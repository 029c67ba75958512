// Command loadgen drives a running flexwattsd with a closed-loop constant
// request rate and reports what the daemon sustained: evaluations/second
// plus p50/p95/p99 request latency, in `go test -bench` line format so the
// numbers flow straight into the repository's BENCH_<pr>.json perf record
// via cmd/benchjson.
//
// Closed-loop means launch slots are minted on a fixed clock (-rps) and a
// bounded worker pool consumes them: when the daemon falls behind, slots
// are dropped and counted as missed instead of queueing unboundedly — the
// report then describes the offered rate the daemon actually absorbed,
// not a coordinated-omission fiction.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -rps 50 -batch 64 -duration 10s
//	loadgen -addr http://localhost:8080 -stream          # NDJSON endpoint
//	loadgen -addr http://localhost:8080 -optimize -rps 2 # design-space searches
//
// Exit status is 1 when the run completes without a single successful
// request, so scripts can gate on it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/flexwatts/client"
)

// points builds the batch evaluated by every request: a deterministic
// spread across the AR axis, the same for every request.
func points(batch int) []flexwatts.Point {
	pts := make([]flexwatts.Point, batch)
	for i := range pts {
		pts[i] = flexwatts.Point{
			PDN: flexwatts.FlexWatts, TDP: 18, Workload: flexwatts.MultiThread,
			AR: 0.40 + 0.5*float64(i)/float64(batch),
		}
	}
	return pts
}

// gridPoints builds a batch that exercises the daemon's batch-kernel
// prepass: static-baseline (IVR) points with a dense AR spread, the shape
// the server resolves through EvaluateGrid before answering.
func gridPoints(batch int) []flexwatts.Point {
	pts := make([]flexwatts.Point, batch)
	for i := range pts {
		pts[i] = flexwatts.Point{
			PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread,
			AR: 0.40 + 0.5*float64(i)/float64(batch),
		}
	}
	return pts
}

// gridBatchSizes is the -grid sweep: points per request, small to large,
// bracketing the block size at which the server's grid prepass amortizes.
var gridBatchSizes = []int{64, 512, 4096}

// optimizeSpec is the -optimize request: an exhaustive search over every
// PDN topology at the default parameter scales (45 candidates), the shape
// of an architect's interactive what-if query. Seeded, so every request
// asks for byte-identical work and the report measures the daemon, not
// the workload. "evals" in the report counts candidates evaluated.
func optimizeSpec() flexwatts.OptimizeSpec {
	return flexwatts.OptimizeSpec{
		TDP: 18,
		PDNs: []flexwatts.Kind{
			flexwatts.FlexWatts, flexwatts.IVR, flexwatts.MBVR,
			flexwatts.LDO, flexwatts.IMBVR,
		},
		Seed: 1,
	}
}

// tally aggregates the run under one mutex; requests are hundreds per
// second, not millions, so contention is irrelevant next to the RTT.
type tally struct {
	mu        sync.Mutex
	latencies []time.Duration
	evals     int64
	shed      int64 // 429/503 after the client's retry budget
	errs      int64 // everything else
}

func (t *tally) success(d time.Duration, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.latencies = append(t.latencies, d)
	t.evals += int64(n)
}

// quantile returns the q-th latency quantile of a sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8080", "flexwattsd base URL")
	rps := fs.Float64("rps", 50, "target request launch rate (requests/second)")
	batch := fs.Int("batch", 64, "points per request")
	duration := fs.Duration("duration", 10*time.Second, "run length")
	stream := fs.Bool("stream", false, "use POST /v1/evaluate/stream instead of /v1/evaluate")
	workers := fs.Int("workers", 0, "concurrent request slots (0 = ceil(rps), capped at 256)")
	name := fs.String("name", "", "benchmark line name (default LoadgenBuffered / LoadgenStream)")
	grid := fs.Bool("grid", false, "sweep grid-kernel batch sizes (64/512/4096 points/request) against /v1/evaluate, one report line per size")
	optimize := fs.Bool("optimize", false, "drive POST /v1/optimize design-space searches instead of evaluate batches (evals/s counts candidates)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *rps <= 0 || *batch <= 0 || *duration <= 0 {
		fmt.Fprintln(stderr, "loadgen: -rps, -batch and -duration must be positive")
		return 2
	}
	if *workers <= 0 {
		*workers = int(math.Ceil(*rps))
		if *workers > 256 {
			*workers = 256
		}
	}
	if *name == "" {
		switch {
		case *optimize:
			*name = "LoadgenOptimize"
		case *stream:
			*name = "LoadgenStream"
		default:
			*name = "LoadgenBuffered"
		}
	}

	c, err := client.New(*addr)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	if *optimize {
		spec := optimizeSpec()
		return drive(ctx, *rps, *duration, *workers, 1, *name, stdout, stderr,
			func(ctx context.Context) (int, error) {
				res, err := c.Optimize(ctx, spec)
				return res.Evaluated, err
			})
	}
	if *grid {
		// Batch-size sweep: each size gets its own measurement window and
		// report line — named by the client concurrency too, so `make slo`
		// can sweep -workers and BENCH_<pr>.json records how request
		// throughput scales both with points per request riding the batch
		// kernel and with concurrent requests sharing the daemon's arenas.
		for _, n := range gridBatchSizes {
			lineName := fmt.Sprintf("LoadgenGrid/workers=%d/batch=%d", *workers, n)
			if code := drive(ctx, *rps, *duration, *workers, n, lineName, stdout, stderr,
				evaluateRequest(c, gridPoints(n), false)); code != 0 {
				return code
			}
		}
		return 0
	}
	return drive(ctx, *rps, *duration, *workers, *batch, *name, stdout, stderr,
		evaluateRequest(c, points(*batch), *stream))
}

// evaluateRequest builds the per-request callback for the evaluate
// endpoints: one buffered batch or one drained stream, returning how many
// points came back.
func evaluateRequest(c *client.Client, pts []flexwatts.Point, stream bool) func(context.Context) (int, error) {
	return func(ctx context.Context) (int, error) {
		if stream {
			got := 0
			err := c.EvaluateStream(ctx, pts, func(r api.EvalStreamResult) error {
				if r.Err() == nil {
					got++
				}
				return nil
			})
			return got, err
		}
		out, err := c.EvaluateBatch(ctx, pts)
		return len(out), err
	}
}

// drive runs one closed-loop measurement window against the daemon and
// prints its report; it returns the process exit code for the window.
// Each launch slot calls do once; do reports how many evaluations (points
// or search candidates) the request completed.
func drive(ctx context.Context, rps float64, duration time.Duration, workers, batch int, name string, stdout, stderr io.Writer, do func(context.Context) (int, error)) int {
	ctx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	// The launch clock: one slot per tick; a full channel means every
	// worker is busy, so the slot is dropped and counted, not queued.
	slots := make(chan struct{}, workers)
	var missed atomic.Int64
	go func() {
		interval := time.Duration(float64(time.Second) / rps)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				close(slots)
				return
			case <-tick.C:
				select {
				case slots <- struct{}{}:
				default:
					missed.Add(1)
				}
			}
		}
	}()

	res := &tally{}
	oneRequest := func() {
		start := time.Now()
		got, err := do(ctx)
		if err == nil {
			res.success(time.Since(start), got)
		}
		switch {
		case err == nil:
		case ctx.Err() != nil:
			// The run clock expired mid-request; not a daemon failure.
		case errors.Is(err, api.ErrRateLimited) || errors.Is(err, api.ErrOverloaded):
			atomic.AddInt64(&res.shed, 1)
		default:
			atomic.AddInt64(&res.errs, 1)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range slots {
				oneRequest()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.mu.Lock()
	defer res.mu.Unlock()
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	n := len(res.latencies)
	if n == 0 {
		fmt.Fprintf(stderr, "loadgen: no successful requests (%d shed, %d errors)\n",
			res.shed, res.errs)
		return 1
	}
	var sum time.Duration
	for _, d := range res.latencies {
		sum += d
	}
	secs := elapsed.Seconds()

	// One `go test -bench`-shaped line: name, count, then value/unit
	// pairs — exactly what cmd/benchjson parses into the perf record.
	fmt.Fprintf(stdout,
		"Benchmark%s %d %.0f ns/op %.1f evals/s %.1f req/s %.6f p50_s %.6f p95_s %.6f p99_s %d shed %d request_errors %d missed_slots\n",
		name, n, float64(sum.Nanoseconds())/float64(n),
		float64(res.evals)/secs, float64(n)/secs,
		quantile(res.latencies, 0.50).Seconds(),
		quantile(res.latencies, 0.95).Seconds(),
		quantile(res.latencies, 0.99).Seconds(),
		res.shed, res.errs, missed.Load())
	fmt.Fprintf(stderr,
		"loadgen: %s: %d requests over %.1fs (batch %d, target %.0f rps): %.0f evals/s, p50 %s p95 %s p99 %s, %d shed, %d errors, %d missed slots\n",
		name, n, secs, batch, rps,
		float64(res.evals)/secs,
		quantile(res.latencies, 0.50).Round(time.Microsecond),
		quantile(res.latencies, 0.95).Round(time.Microsecond),
		quantile(res.latencies, 0.99).Round(time.Microsecond),
		res.shed, res.errs, missed.Load())
	return 0
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
