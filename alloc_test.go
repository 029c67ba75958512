// Allocation-regression tests for the evaluation hot path. PR 2 made the
// whole closed-form pipeline zero-alloc (array-backed scenarios, value-array
// rail storage, in-place reference stepping); these tests pin that property
// with testing.AllocsPerRun so a future change cannot silently reintroduce
// per-evaluation garbage — the full-suite run issues millions of Evaluate
// calls, and even one small heap object per call costs double-digit
// percentages of wall time in GC.
package repro_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/pdn"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// allocScenarios returns representative evaluation points: an active
// multi-threaded point, a graphics point (exercises the LDO/overvolt rail
// paths), and a deep-idle point (exercises the power-state selection).
func allocScenarios(tb testing.TB) map[string]pdn.Scenario {
	tb.Helper()
	e := benchEnv(tb)
	mt, err := workload.TDPScenario(e.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		tb.Fatal(err)
	}
	gfx, err := workload.TDPScenario(e.Platform, 25, workload.Graphics, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]pdn.Scenario{
		"multithread-18W": mt,
		"graphics-25W":    gfx,
		"idle-C6":         workload.CStateScenario(e.Platform, domain.C6),
	}
}

// TestEvaluateAllocFree pins Evaluate at 0 allocs/op for all five PDN kinds
// (the four static baselines plus FlexWatts in both hybrid modes).
func TestEvaluateAllocFree(t *testing.T) {
	e := benchEnv(t)
	for name, s := range allocScenarios(t) {
		for _, k := range pdn.Kinds() {
			m := e.Baselines[k]
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := m.Evaluate(s); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%v.Evaluate(%s): %.1f allocs/op, want 0", k, name, avg)
			}
		}
		for _, mode := range core.Modes() {
			if avg := testing.AllocsPerRun(200, func() {
				if _, err := e.Flex.EvaluateMode(s, mode); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("FlexWatts %v(%s): %.1f allocs/op, want 0", mode, name, avg)
			}
		}
	}
}

// TestPredictAllocFree pins Algorithm 1's table lookup at 0 allocs/op: the
// PMU performs it every 10 ms interval and the trace simulator every phase.
func TestPredictAllocFree(t *testing.T) {
	e := benchEnv(t)
	inputs := []core.Inputs{
		{TDP: 18, AR: 0.6, Type: workload.MultiThread, CState: domain.C0},
		{TDP: 4, AR: 0.4, Type: workload.Graphics, CState: domain.C0},
		{TDP: 18, AR: 0.6, Type: workload.SingleThread, CState: domain.C6},
	}
	for _, in := range inputs {
		in := in
		if avg := testing.AllocsPerRun(200, func() { e.Predictor.Predict(in) }); avg != 0 {
			t.Errorf("Predict(%+v): %.1f allocs/op, want 0", in, avg)
		}
	}
}

// TestControllerStepAllocFree pins the per-interval controller decision
// (predict + hysteresis + switch accounting) at 0 allocs/op.
func TestControllerStepAllocFree(t *testing.T) {
	e := benchEnv(t)
	ctrl := core.NewController(e.Predictor, core.DefaultSwitchFlow())
	high := core.Inputs{TDP: 50, AR: 0.8, Type: workload.MultiThread, CState: domain.C0}
	low := core.Inputs{TDP: 4, AR: 0.3, Type: workload.SingleThread, CState: domain.C0}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		// Alternate inputs so both the switching and the steady branch run.
		in := high
		if i%2 == 0 {
			in = low
		}
		i++
		ctrl.Step(10e-3, in)
	}); avg != 0 {
		t.Errorf("Controller.Step: %.1f allocs/op, want 0", avg)
	}
}

// TestDatasetAllocBudget pins the typed-dataset driver path on a warm
// cache: every PDN evaluation hits the memoized cache (0 allocs, pinned
// above), so what remains is the dataset structure itself — tables, rows,
// one rendered text string per cell, the metadata map. The budgets have
// ~50 % headroom over the measured counts; a per-cell string-churn
// regression (re-formatting cells, rendering mid-sweep, per-cell interface
// boxing) multiplies the count well past them.
func TestDatasetAllocBudget(t *testing.T) {
	e := benchEnv(t)
	serial := *e
	serial.Workers = 1 // keep goroutine machinery out of the measurement
	budgets := map[string]float64{
		"fig4j": 110, // 6 rows × 4 cells (measured: 70)
		"fig5":  260, // 9 rows × 9 cells (measured: 173)
	}
	for id, budget := range budgets {
		if _, err := experiments.Dataset(id, &serial); err != nil { // warm the cache
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, err := experiments.Dataset(id, &serial); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("%s warm Dataset: %.1f allocs/op, budget %.0f", id, avg, budget)
		}
	}
}

// TestCacheHitAllocFree pins the memoized evaluation path: once a key is
// cached, concurrent-safe hits must not allocate (the sharded cache reads
// under an RLock and hands back the Result value array by copy).
func TestCacheHitAllocFree(t *testing.T) {
	e := benchEnv(t)
	s := allocScenarios(t)["multithread-18W"]
	c := sweep.NewCache()
	m := e.Baselines[pdn.IVR]
	if _, err := c.Evaluate(m, s); err != nil { // warm the key
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := c.Evaluate(m, s); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("cache hit: %.1f allocs/op, want 0", avg)
	}
	if hits, misses := c.Stats(); hits < 200 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want >=200 hits and exactly 1 miss", hits, misses)
	}
}

// TestEvaluateGridAllocFree pins grid runs at 0 allocs/op for a whole
// 4128-point grid call — not merely per point: the grid and result block
// are caller-owned and the run's memo is stack state, so nothing on the
// path may touch the heap. All four static PDN kinds plus FlexWatts in
// both hybrid modes.
func TestEvaluateGridAllocFree(t *testing.T) {
	e := benchEnv(t)
	g := gridBenchGrid(t)
	out := make([]pdn.Result, g.Len())
	for _, k := range pdn.Kinds() {
		m, ok := e.Baselines[k].(sweep.GridEvaluator)
		if !ok {
			t.Fatalf("%v baseline has no EvaluateGrid", k)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if err := m.EvaluateGrid(g, out); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%v.EvaluateGrid: %.1f allocs per grid call, want 0", k, avg)
		}
	}
	for _, mode := range core.Modes() {
		mode := mode
		if avg := testing.AllocsPerRun(10, func() {
			if err := e.Flex.EvaluateGridMode(g, out, mode); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("FlexWatts EvaluateGridMode(%v): %.1f allocs per grid call, want 0", mode, avg)
		}
	}
}

// TestGridArenaAllocFree pins the pooled request-arena cycle — the path
// the serving layer and the SDK take per batch request: check a lease out,
// fill its grid, take a result block, release. After the first cycle
// builds the backing storage, a steady-state cycle must not allocate at
// all; this is what keeps the daemon's batch pass allocation-free per
// request under fleet load.
func TestGridArenaAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector drops sync.Pool puts; alloc/reuse pins do not hold")
	}
	s := allocScenarios(t)["multithread-18W"]
	var arena pdn.GridArena
	cycle := func() {
		l := arena.Get()
		g := l.Grid()
		for i := 0; i < 256; i++ {
			g.Append(s)
		}
		if len(l.Results(g.Len())) != g.Len() {
			t.Fatal("short result block")
		}
		l.Release()
	}
	cycle() // build the lease, columns and result block once
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("warm arena cycle: %.1f allocs/op, want 0", avg)
	}
	if gets, reuses := arena.Stats(); reuses < gets-5 {
		t.Errorf("arena stats (%d gets, %d reuses): pool barely reusing", gets, reuses)
	}
}

// TestCacheGridAllocs pins the memoizing grid path on both sides of the
// cache: a warm repeat must allocate nothing at all (every key hits, no
// scratch grid is built), and the cold first pass may allocate only the
// cache's own bookkeeping — a small bounded number of objects per point
// (entry, interned key, shard map growth), not per-point evaluation
// garbage.
func TestCacheGridAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector drops sync.Pool puts; the warm pass's pooled probe scratch may reallocate")
	}
	e := benchEnv(t)
	g := gridBenchGrid(t)
	out := make([]pdn.Result, g.Len())
	m := e.Baselines[pdn.IVR]

	cold := testing.AllocsPerRun(1, func() {
		c := sweep.NewCache()
		if err := c.EvaluateGrid(m, g, out); err != nil {
			t.Fatal(err)
		}
	})
	if perPoint := cold / float64(g.Len()); perPoint > 8 {
		t.Errorf("cold cache grid pass: %.2f allocs/point, budget 8", perPoint)
	}

	c := sweep.NewCache()
	if err := c.EvaluateGrid(m, g, out); err != nil { // warm every key
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := c.EvaluateGrid(m, g, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm cache grid repeat: %.1f allocs per call, want 0", avg)
	}
	if hits, misses := c.Stats(); misses != int64(g.Len()) || hits < int64(10*g.Len()) {
		t.Errorf("stats hits=%d misses=%d, want exactly %d misses and >=%d hits",
			hits, misses, g.Len(), 10*g.Len())
	}
}

// mixedEvalBody renders a POST /v1/evaluate body of n distinct points
// over all five PDN kinds, every workload type, seven TDPs and every
// idle state.
func mixedEvalBody(tb testing.TB, n int) []byte {
	tb.Helper()
	kinds := []string{"FlexWatts", "IVR", "MBVR", "LDO", "I+MBVR"}
	types := []string{"single-thread", "multi-thread", "graphics"}
	tdps := []float64{4, 8, 12, 18, 25, 35, 50}
	idle := []string{"C0MIN", "C2", "C3", "C6", "C7", "C8"}
	req := api.EvalRequest{Points: make([]api.EvalPoint, n)}
	for i := range req.Points {
		p := api.EvalPoint{PDN: kinds[i%len(kinds)]}
		if i%16 == 15 {
			p.CState = idle[(i/16)%len(idle)]
		} else {
			p.TDP = tdps[(i/5)%len(tdps)]
			p.Workload = types[(i/35)%len(types)]
			p.AR = 0.3 + 0.6*float64(i)/float64(n)
		}
		req.Points[i] = p
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestEvaluateHandlerAllocBudget pins the allocation cost of one
// in-process 4096-point mixed POST on each evaluate route, per point:
// request decoding, job building, the grouped grid-kernel pass and the
// response encoding together. It measures on one P with the collector
// paused, so pooled buffers are reused deterministically instead of
// whenever a GC or a GOMAXPROCS change happens to clear the pools.
// Measured at 0.0159 allocs and 477 B per point buffered (65 allocs per
// request), 0.0840 allocs and 615 B per point streamed; the budgets leave
// 5 % headroom.
func TestEvaluateHandlerAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector drops sync.Pool puts; pooled codecs and arenas reallocate")
	}
	const n, runs = 4096, 5
	body := mixedEvalBody(t, n)
	// One P, as testing.AllocsPerRun measures, and no collections.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		path          string
		allocs, bytes float64
	}{
		{api.PathEvaluate, 0.0167, 501},
		{api.PathEvaluateStream, 0.0882, 646},
	} {
		h := server.New(benchEnv(t), server.Options{}).Handler()
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %.200s", c.path, rec.Code, rec.Body.String())
			}
		}
		serve() // grow the pooled buffers and arena once
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs / n
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
		t.Logf("%s: %.4f allocs/point, %.0f B/point", c.path, allocs, bytesPer)
		if allocs > c.allocs {
			t.Errorf("%s: %.4f allocs/point, budget %.4f", c.path, allocs, c.allocs)
		}
		if bytesPer > c.bytes {
			t.Errorf("%s: %.0f B/point, budget %.0f", c.path, bytesPer, c.bytes)
		}
	}
}
