// Command flexbench is the benchmark of the FlexWatts stack. It runs one of
// four workloads, each along a path a user takes through the repository:
//
//	reproduce   regenerate the paper's 16 experiments in process (researchers)
//	serve-bulk  4096-point POST /v1/evaluate batches to flexwattsd (services)
//	serve-hot   64-point batches over a small hot set, cache-warm (services)
//	design      Client.Optimize searches, exhaustive and annealing (architects)
//
// Every input is generated from -seed; the program under test sees only the
// generated inputs. Every output is checked: rendered datasets against the
// goldens, served results bit for bit against flexwatts.Client, and searches
// against their own repeats. A wrong output is counted as failed and makes
// the command exit 1.
//
// With -trace 0 the run measures the end-to-end metrics. With -trace 1 it
// runs the workload twice, untraced and traced (the difference is the
// tracing overhead), then times every layer beneath it from outside by
// calling each layer's public functions, and reports the per-layer metrics.
// Spans are recorded only in this program, kept in memory and written to
// <out>/spans/ when the run ends.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// run.sh builds this program and the daemon and passes -root, -daemon and
// -out; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procs is the CPU budget of this process and of each daemon it starts: the
// benchmark machine has two vCPUs, and the load comes from this process.
const procs = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout: goldens and daemon sources
	daemon   string // non-race flexwattsd binary
	out      string // where spans are written
	// minOps is the least number of operations a window completes: ten
	// beyond the workload's tail quantile.
	minOps int
	// tiny shrinks every workload to a smoke size (tests).
	tiny bool
	// corrupt, when non-nil, rewrites each served response before it is
	// checked (tests: a corrupted response must count as failed).
	corrupt func(resp []byte) []byte
}

// window is what one measured run of a workload leaves behind.
type window struct {
	setup     []float64 // seconds, one per set-up
	lat       []float64 // seconds, one per operation
	work      float64   // completed work units (regenerations, points, requests, candidates)
	elapsed   float64   // seconds of the timing window
	rssMB     float64   // peak resident set of the process doing the work
	attempted int
	failed    int
	// Filled for the traced run's per-layer metrics.
	bodies     [][]byte // request bodies of the serve workloads, by index
	sent       []int    // body indices that completed during the window
	cache      cacheStats
	gcCycles   float64 // runtime deltas over the in-process operations
	allocBytes float64
	ops        int
}

// workloadSpec describes one workload.
type workloadSpec struct {
	name string
	run  func(cfg *config, tr *tracer) (*window, error)
	// tailQ is the tail latency quantile; the window runs on until at
	// least ten operations lie beyond it.
	tailQ float64
	// aliases names the generic end-to-end metrics the way the workload
	// speaks of them (suite_s, points_per_s, p95_s, ...).
	aliases map[string]string
}

var workloads = []workloadSpec{
	{name: "reproduce", run: runReproduce, tailQ: 0.8,
		aliases: map[string]string{"throughput_per_s": "suites_per_s", "p50_s": "suite_s", "tail_s": "p80_s"}},
	{name: "serve-bulk", run: runServeBulk, tailQ: 0.95,
		aliases: map[string]string{"throughput_per_s": "points_per_s", "tail_s": "p95_s"}},
	// serve-hot's tail is p95: its p99 follows the host's load from outside
	// the benchmark too closely to be bounded (run-to-run quartile spread
	// 0.16-0.21 of the median on the 2-vCPU host, against 0.09 for p95).
	// The summary still prints p99.
	{name: "serve-hot", run: runServeHot, tailQ: 0.95,
		aliases: map[string]string{"throughput_per_s": "requests_per_s", "tail_s": "p95_s"}},
	{name: "design", run: runDesign, tailQ: 0.8,
		aliases: map[string]string{"throughput_per_s": "candidates_per_s", "p50_s": "study_p50_s", "tail_s": "study_p80_s"}},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "reproduce, serve-bulk, serve-hot or design")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timing window")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout (goldens)")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/flexwattsd", "non-race flexwattsd binary")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory the spans are written under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag != 0
	res, summary, err := runConfig(&cfg)
	return emit(res, summary, err, stdout, stderr)
}

// emit prints the summary and the result line and returns the exit code:
// 1 when the run could not measure or any output was wrong.
func emit(res result, summary string, err error, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, "flexbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "flexbench:", err)
		return 1
	}
	fmt.Fprint(stdout, summary)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "flexbench: %d of %d operations failed or returned a wrong output\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runConfig runs the configured workload and returns the result line plus
// a human-readable summary that also names each end-to-end metric the way
// its workload speaks of it.
func runConfig(cfg *config) (result, string, error) {
	runtime.GOMAXPROCS(procs)
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q (have reproduce, serve-bulk, serve-hot, design)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, "", errors.New("-seconds must be positive")
	}
	cfg.minOps = tailOps(wl.tailQ)
	if cfg.tiny {
		cfg.minOps = 2
	}
	if !cfg.trace {
		w, err := wl.run(cfg, nil)
		if err != nil {
			return result{}, "", err
		}
		e2e := endToEnd(wl, w)
		res, err := newResult(w.attempted, w.failed, e2e)
		return res, summarize(wl, cfg, w, e2e, nil), err
	}

	base, err := wl.run(cfg, nil)
	if err != nil {
		return result{}, "", err
	}
	tr := newTracer()
	traced, err := wl.run(cfg, tr)
	if err != nil {
		return result{}, "", err
	}
	layers, lf, err := ladder(cfg, wl, traced, tr)
	if err != nil {
		return result{}, "", err
	}
	baseE2E, tracedE2E := endToEnd(wl, base), endToEnd(wl, traced)
	layers["trace.overhead_frac"] = metric{
		1 - tracedE2E["throughput_per_s"].Value/baseE2E["throughput_per_s"].Value, "frac"}
	spans, err := tr.write(filepath.Join(cfg.out, "spans"), fmt.Sprintf("%s-seed%d", wl.name, cfg.seed))
	if err != nil {
		return result{}, "", err
	}
	attempted := base.attempted + traced.attempted + lf.attempted
	failed := base.failed + traced.failed + lf.failed
	sum := summarize(wl, cfg, traced, tracedE2E, baseE2E) + tr.summary(16) +
		fmt.Sprintf("spans written to %s\n", spans) + layerSummary(layers)
	res, err := newResult(attempted, failed, layers)
	return res, sum, err
}

func newResult(attempted, failed int, m map[string]metric) (result, error) {
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(wl workloadSpec, w *window) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(w.setup), "s"},
		"throughput_per_s": {w.work / w.elapsed, "1/s"},
		"p50_s":            {quantile(w.lat, 0.5), "s"},
		"tail_s":           {quantile(w.lat, wl.tailQ), "s"},
		"peak_rss_mb":      {w.rssMB, "MB"},
	}
}

// summarize renders the end-to-end reading with each metric also under its
// workload-specific name, the sample counts, and failed_frac.
func summarize(wl workloadSpec, cfg *config, w *window, e2e, untraced map[string]metric) string {
	var b []byte
	mode := "untraced"
	if untraced != nil {
		mode = "traced (untraced reading in brackets)"
	}
	b = fmt.Appendf(b, "# %s seed=%d seconds=%g %s: %d operations in %.3fs, %d set-ups\n",
		wl.name, cfg.seed, cfg.seconds, mode, len(w.lat), w.elapsed, len(w.setup))
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		label := n
		if a, ok := wl.aliases[n]; ok {
			label = fmt.Sprintf("%s (%s)", n, a)
		}
		b = fmt.Appendf(b, "  %-36s %14.6g %s", label, e2e[n].Value, e2e[n].Unit)
		if untraced != nil {
			b = fmt.Appendf(b, "  [%.6g]", untraced[n].Value)
		}
		b = append(b, '\n')
	}
	b = fmt.Appendf(b, "  %-36s %.6g / %.6g / %.6g / %.6g s (%d operations)\n", "latency p50 / p90 / p95 / p99",
		quantile(w.lat, 0.5), quantile(w.lat, 0.9), quantile(w.lat, 0.95), quantile(w.lat, 0.99), len(w.lat))
	frac := 0.0
	if w.attempted > 0 {
		frac = float64(w.failed) / float64(w.attempted)
	}
	b = fmt.Appendf(b, "  %-36s %14.6g (%d of %d)\n", "failed_frac", frac, w.failed, w.attempted)
	return string(b)
}

func layerSummary(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	b = append(b, "# per-layer metrics\n"...)
	for _, n := range names {
		b = fmt.Appendf(b, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	return string(b)
}

// timeWindow runs op until the window has lasted cfg.seconds and at least
// minOps operations completed, recording each operation's latency. op
// reports the work units it completed.
func timeWindow(seconds float64, minOps int, w *window, op func(i int) (float64, error)) error {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; len(w.lat) < minOps || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		units, err := op(i)
		if err != nil {
			return err
		}
		w.lat = append(w.lat, time.Since(t0).Seconds())
		w.work += units
	}
	w.elapsed = time.Since(start).Seconds()
	return nil
}
