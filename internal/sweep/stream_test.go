package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamCtxOrderedAndComplete(t *testing.T) {
	for _, cfg := range []struct{ workers, window int }{
		{1, 1}, {4, 0}, {4, 1}, {8, 3}, {64, 256},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("workers=%d,window=%d", cfg.workers, cfg.window), func(t *testing.T) {
			const n = 500
			var got []int
			err := StreamCtx(context.Background(), cfg.workers, cfg.window, n,
				func(i int) (int, error) { return i * i, nil },
				func(i, v int, err error) error {
					if err != nil {
						t.Errorf("point %d: unexpected error %v", i, err)
					}
					got = append(got, v)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("emitted %d results, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("emit %d carried %d, want %d (out of order?)", i, v, i*i)
				}
			}
		})
	}
}

// TestStreamCtxBoundedWindow is the memory contract: workers may run at
// most window points ahead of the consumer, so a slow consumer
// backpressures the pool instead of growing a buffer.
func TestStreamCtxBoundedWindow(t *testing.T) {
	const n, workers, window = 200, 4, 8
	var started atomic.Int64
	var emitted atomic.Int64
	err := StreamCtx(context.Background(), workers, window, n,
		func(i int) (int, error) {
			started.Add(1)
			return i, nil
		},
		func(i, v int, err error) error {
			// Stall the consumer so the pool races as far ahead as the
			// window allows; the lead must never exceed it.
			time.Sleep(100 * time.Microsecond)
			if lead := started.Load() - emitted.Load(); lead > window {
				t.Errorf("emit %d: %d points in flight, window is %d", i, lead, window)
			}
			emitted.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != n {
		t.Errorf("started %d points, want %d", started.Load(), n)
	}
}

// TestStreamCtxPerPointErrors pins the streaming error vocabulary:
// a failing point is delivered in order with its error and the sweep
// continues — the consumer decides whether to stop.
func TestStreamCtxPerPointErrors(t *testing.T) {
	const n = 50
	boom := errors.New("boom")
	var ok, failed int
	err := StreamCtx(context.Background(), 4, 0, n,
		func(i int) (int, error) {
			if i%7 == 0 {
				return 0, fmt.Errorf("point %d: %w", i, boom)
			}
			return i, nil
		},
		func(i, v int, err error) error {
			if i%7 == 0 {
				if !errors.Is(err, boom) {
					t.Errorf("point %d: err = %v, want boom", i, err)
				}
				failed++
			} else {
				if err != nil || v != i {
					t.Errorf("point %d: (%d, %v)", i, v, err)
				}
				ok++
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if failed != 8 || ok != n-8 {
		t.Errorf("failed=%d ok=%d, want 8 and %d", failed, ok, n-8)
	}
}

// TestStreamCtxEmitErrorAborts pins the consumer-gone path: when emit
// reports a write failure, the sweep cancels, stops evaluating new points,
// and returns the emit error with no goroutine left behind.
func TestStreamCtxEmitErrorAborts(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 100000
	writeFailed := errors.New("client went away")
	var evaluated atomic.Int64
	err := StreamCtx(context.Background(), 4, 8, n,
		func(i int) (int, error) {
			evaluated.Add(1)
			return i, nil
		},
		func(i, v int, err error) error {
			if i == 10 {
				return writeFailed
			}
			return nil
		})
	if !errors.Is(err, writeFailed) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	// 10 emitted + at most window+workers stragglers.
	if ev := evaluated.Load(); ev > 10+8+4+1 {
		t.Errorf("%d points evaluated after consumer died, want a bounded few", ev)
	}
	waitForGoroutines(t, before)
}

func TestStreamCtxCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var emitted int
	err := StreamCtx(ctx, 4, 8, n,
		func(i int) (int, error) { return i, nil },
		func(i, v int, err error) error {
			emitted++
			if emitted == 5 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted >= n {
		t.Error("cancelled stream emitted the whole grid")
	}
	waitForGoroutines(t, before)
}

// TestStreamCtxPreCancelled pins that a stream whose ctx is already done
// emits nothing. A started pool races its token and ready selects against
// done, so the check loops: one lost race in any iteration fails it.
func TestStreamCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for iter := 0; iter < 20000; iter++ {
		emitted := false
		err := StreamCtx(ctx, 4, 0, 100,
			func(i int) (int, error) { return i, nil },
			func(i, v int, err error) error {
				emitted = true
				return nil
			})
		if emitted {
			t.Fatalf("iteration %d: emit called on a pre-cancelled stream", iter)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", iter, err)
		}
	}
}

func TestStreamCtxEmpty(t *testing.T) {
	err := StreamCtx(context.Background(), 4, 0, 0,
		func(i int) (int, error) { return 0, errors.New("never") },
		func(i, v int, err error) error { return errors.New("never") })
	if err != nil {
		t.Errorf("empty stream err = %v", err)
	}
}

// waitForGoroutines asserts the goroutine count returns to (about) its
// pre-test level: StreamCtx must not leak its pool on any exit path.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after 2s", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
