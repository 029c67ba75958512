// Package sweep is the deterministic concurrent execution engine the
// evaluation pipeline runs on. The paper's evaluation is a large grid of
// independent PDN evaluations — PDN topology × workload type × activity
// ratio × TDP × trace — and every cell is a pure function of its sweep
// point, so the grid parallelizes cleanly.
//
// Determinism is the design constraint, not an afterthought: Map collects
// results by grid index and reports the lowest-index error, so a sweep's
// rendered output is byte-identical no matter how many workers execute it
// (workers == 1 degenerates to the plain serial loop). Cache memoizes
// (PDN kind, scenario) evaluations so cells shared between figures are
// computed once per run.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0) … fn(n-1) on a pool of workers and returns the results in
// index order. workers <= 0 sizes the pool by runtime.GOMAXPROCS(0);
// workers == 1 runs inline with no goroutines. fn must be safe for
// concurrent calls when more than one worker runs.
//
// Error handling is deterministic: if any points fail, Map returns the
// error of the lowest failing index — the same error the serial loop would
// stop on — and points beyond the first observed failure may be skipped.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cancellation: workers stop pulling new grid points as
// soon as ctx is done, and the sweep returns context.Cause(ctx) without
// waiting for the untouched remainder of the grid. Cancellation wins over
// per-point errors — a cancelled sweep's partial results are meaningless,
// so reporting which point failed first would be noise. In-flight fn calls
// are not interrupted (they are pure CPU-bound evaluations); a sweep
// returns at worst one evaluation after cancellation per worker.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return nil, context.Cause(ctx)
			default:
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var firstErr atomic.Int64 // lowest failing index seen so far
	firstErr.Store(int64(n))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if int64(i) > firstErr.Load() {
					continue // a lower index already failed; this result is moot
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if i := firstErr.Load(); i < int64(n) {
		return nil, errs[i]
	}
	return out, nil
}

// StreamCtx runs fn(0) … fn(n-1) on a pool of workers and delivers every
// result to emit in strict index order, from the caller's goroutine, while
// holding at most window results in memory — the streaming counterpart of
// MapCtx for grids too large to buffer (a million-point evaluate stream is
// O(window), not O(n)).
//
// Semantics differ from MapCtx where streaming demands it:
//
//   - Per-point errors do not abort the sweep: they are delivered to
//     emit(i, zero, err) in order, because a stream's vocabulary carries
//     per-point failures (the caller decides whether to keep going).
//   - emit returning a non-nil error cancels the sweep — the signal that
//     the consumer is gone (client disconnect, write failure). StreamCtx
//     returns that error.
//   - ctx cancellation stops workers from claiming new points and StreamCtx
//     returns context.Cause(ctx).
//
// window <= 0 defaults to 4×workers; it is clamped to at least the worker
// count (a smaller window would idle the pool) and at most n. Workers stay
// at most window points ahead of the consumer, so a slow consumer
// backpressures the pool instead of growing a buffer. StreamCtx does not
// return until every worker goroutine has exited.
func StreamCtx[T any](ctx context.Context, workers, window, n int, fn func(i int) (T, error), emit func(i int, v T, err error) error) error {
	// An already-done ctx answers before any worker starts: once workers
	// run, a select may take a token (and the consumer a ready cell) over
	// done, so a pre-cancelled stream could still emit.
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if window <= 0 {
		window = 4 * workers
	}
	if window < workers {
		window = workers
	}
	if window > n {
		window = n
	}
	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	done := sctx.Done()

	// Results flow through a fixed ring of window cells. A worker may only
	// claim index i after acquiring a token, and the consumer returns the
	// token when it emits a cell — so at most window claimed-but-unemitted
	// indices exist, which both bounds memory and guarantees each ring cell
	// has a single writer between consecutive reads (indices sharing a cell
	// are window apart, and two unemitted indices can never be).
	type cell struct {
		v   T
		err error
	}
	cells := make([]cell, window)
	ready := make([]chan struct{}, window)
	for i := range ready {
		ready[i] = make(chan struct{}, 1)
	}
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-tokens:
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := fn(i)
				cells[i%window] = cell{v: v, err: err}
				ready[i%window] <- struct{}{}
			}
		}()
	}

	var streamErr error
consume:
	for i := 0; i < n; i++ {
		select {
		case <-done:
			streamErr = context.Cause(sctx)
			break consume
		case <-ready[i%window]:
			c := cells[i%window]
			if err := emit(i, c.v, c.err); err != nil {
				streamErr = err
				break consume
			}
			tokens <- struct{}{}
		}
	}
	// Release the pool (idempotent on the error paths) and wait for every
	// worker to exit before returning, so no goroutine outlives the call.
	cancel(nil)
	wg.Wait()
	if streamErr != nil {
		return streamErr
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// Each is Map for functions that produce no value: it runs fn over the
// index grid and returns the lowest-index error, if any.
func Each(workers, n int, fn func(i int) error) error {
	return EachCtx(context.Background(), workers, n, fn)
}

// EachCtx is Each with cancellation, with MapCtx's semantics.
func EachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	_, err := MapCtx(ctx, workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
