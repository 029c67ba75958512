package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
	"repro/internal/refmodel"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Each ladder probe calls a layer until one repetition has lasted at least
// probeRep, repeats that probeReps times, and reports the median.
const (
	probeRep  = 20 * time.Millisecond
	probeReps = 5
	// bulkReplay and hotReplay are how many of the window's bodies the
	// traced run replays in process, per serve workload.
	bulkReplay = 8
	hotReplay  = 256
)

// tally counts the ladder's own checked operations.
type tally struct{ attempted, failed int }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// layerRig is the state the probes share: the layers under test, built
// once, and the scenario mix they run on.
type layerRig struct {
	tr     *tracer
	plat   *domain.Platform
	params pdn.Params
	models map[pdn.Kind]pdn.Model
	flex   *core.Model
	pred   *core.Predictor
	scen   []pdn.Scenario
	tdps   []float64
	grid   *pdn.Grid
	out    []pdn.Result
	m      map[string]metric
	err    error // the first probe failure
}

// probe times fn, which does units units of work per call, and returns
// the median nanoseconds per unit. Each repetition is a ladder.<name> span.
// The first, untimed call's error is kept in r.err; the timed calls repeat
// it on the same inputs.
func (r *layerRig) probe(name string, units int, fn func() error) float64 {
	if err := fn(); err != nil && r.err == nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn() //nolint:errcheck // checked by the first call
		}
		if time.Since(t0) >= probeRep/4 {
			calls = int(float64(calls)*float64(probeRep)/float64(time.Since(t0))) + 1
			break
		}
		calls *= 4
	}
	per := make([]float64, probeReps)
	for k := range per {
		sp := r.tr.start("ladder."+name, r.tr.op())
		for i := 0; i < calls; i++ {
			fn() //nolint:errcheck // checked by the first call
		}
		per[k] = float64(sp.end().Nanoseconds()) / float64(calls*units)
	}
	return median(per)
}

func (r *layerRig) set(name string, v float64, unit string) { r.m[name] = metric{v, unit} }

// kindName is a metric suffix for a baseline kind.
func kindName(k pdn.Kind) string {
	if k == pdn.IMBVR {
		return "imbvr"
	}
	return map[pdn.Kind]string{pdn.IVR: "ivr", pdn.MBVR: "mbvr", pdn.LDO: "ldo"}[k]
}

// ladder measures every per-layer metric. The model layers run on the
// workload's own point mix (serve-hot's hot set; the serve-bulk mix for
// the others); the serving layers replay the workload's request bodies in
// process, or the serve-bulk bodies for the in-process workloads.
func ladder(cfg *config, wl workloadSpec, traced *window, tr *tracer) (map[string]metric, tally, error) {
	var t tally
	r, pts, err := newRig(cfg, wl, tr)
	if err != nil {
		return nil, t, err
	}
	for _, step := range []func() error{
		r.modelLayers,
		func() error { return r.experimentLayers(cfg, wl, &t) },
		func() error { return r.optimizeLayers(cfg, wl) },
		func() error { return r.servingLayers(cfg, wl, traced, pts, &t) },
	} {
		if err := step(); err != nil {
			return nil, t, err
		}
	}
	if wl.name == "reproduce" || wl.name == "design" {
		r.set("runtime.gc_cycles", traced.gcCycles/float64(traced.ops), "count/op")
		r.set("runtime.alloc_bytes_per_op", traced.allocBytes/float64(traced.ops), "B/op")
	}
	return r.m, t, nil
}

func newRig(cfg *config, wl workloadSpec, tr *tracer) (*layerRig, []flexwatts.Point, error) {
	r := &layerRig{tr: tr, plat: domain.NewClientPlatform(), params: pdn.DefaultParams(),
		models: map[pdn.Kind]pdn.Model{}, m: map[string]metric{}}
	for _, k := range pdn.Kinds() {
		m, err := pdn.New(k, r.params)
		if err != nil {
			return nil, nil, err
		}
		r.models[k] = m
	}
	r.flex = core.NewModel(r.params)
	var err error
	if r.pred, err = core.NewPredictor(r.plat, r.flex, core.DefaultPredictorConfig()); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var pts []flexwatts.Point
	if wl.name == "serve-hot" {
		pts = hotSet(rng)
	} else {
		pts = bulkPoints(rng, bulkBatch)
	}
	for _, p := range pts {
		s, tdp, err := scenarioOf(r.plat, p)
		if err != nil {
			return nil, nil, err
		}
		r.scen, r.tdps = append(r.scen, s), append(r.tdps, tdp)
	}
	r.grid = pdn.GridOf(r.scen)
	r.out = make([]pdn.Result, len(r.scen))
	return r, pts, nil
}

// scenarioOf builds a point's scenario the way the daemon does: the typed
// enums round-trip through their shared spelling into the internal ones.
func scenarioOf(plat *domain.Platform, p flexwatts.Point) (pdn.Scenario, float64, error) {
	tdp := float64(p.TDP)
	if p.CState != flexwatts.C0 {
		c, err := domain.ParseCState(p.CState.String())
		if err != nil {
			return pdn.Scenario{}, 0, err
		}
		if tdp == 0 {
			tdp = 4
		}
		return workload.CStateScenario(plat, c), tdp, nil
	}
	wt, err := workload.ParseType(p.Workload.String())
	if err != nil {
		return pdn.Scenario{}, 0, err
	}
	s, err := workload.TDPScenario(plat, tdp, wt, p.AR)
	return s, tdp, err
}

// modelLayers times the PDN models, their grid kernels, the FlexWatts
// core and the evaluation cache on the rig's scenario mix.
func (r *layerRig) modelLayers() error {
	n := len(r.scen)
	one := pdn.GridOf(r.scen[:1])
	out1 := make([]pdn.Result, 1)
	kinds := pdn.Kinds()
	// each evaluates every rig scenario with eval.
	each := func(eval func(i int, s pdn.Scenario) error) func() error {
		return func() error {
			for i, s := range r.scen {
				if err := eval(i, s); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, k := range kinds {
		m, name := r.models[k], kindName(k)
		ge, ok := m.(sweep.GridEvaluator)
		if !ok {
			return fmt.Errorf("%s has no grid kernel", k)
		}
		r.set("pdn.eval_ns."+name, r.probe("pdn.eval."+name, n, each(func(_ int, s pdn.Scenario) error {
			_, err := m.Evaluate(s)
			return err
		})), "ns")
		r.set("pdn.grid_points_per_s."+name, 1e9/r.probe("pdn.grid."+name, n, func() error {
			return ge.EvaluateGrid(r.grid, r.out)
		}), "1/s")
		r.set("pdn.grid1_ns."+name, r.probe("pdn.grid1."+name, 1, func() error {
			return ge.EvaluateGrid(one, out1)
		}), "ns")
	}
	r.set("pdn.new_ns", r.probe("pdn.new", len(kinds), func() error {
		for _, k := range kinds {
			if _, err := pdn.New(k, r.params); err != nil {
				return err
			}
		}
		return nil
	}), "ns")
	for _, md := range []struct {
		name string
		mode core.Mode
	}{{"ivr_mode", core.IVRMode}, {"ldo_mode", core.LDOMode}} {
		r.set("core.grid_points_per_s."+md.name, 1e9/r.probe("core.grid."+md.name, n, func() error {
			return r.flex.EvaluateGridMode(r.grid, r.out, md.mode)
		}), "1/s")
	}
	r.set("core.predict_ns", r.probe("core.predict", n, each(func(i int, s pdn.Scenario) error {
		r.pred.Predict(core.InputsFromScenario(s, r.tdps[i]))
		return nil
	})), "ns")
	r.set("core.auto_eval_ns", r.probe("core.auto_eval", n, each(func(i int, s pdn.Scenario) error {
		_, err := core.NewAutoModel(r.flex, r.pred, r.tdps[i]).Evaluate(s)
		return err
	})), "ns")

	grids := func(c *sweep.Cache) error {
		for _, k := range kinds {
			if err := c.EvaluateGrid(r.models[k], r.grid, r.out); err != nil {
				return err
			}
		}
		return nil
	}
	r.set("sweep.grid_cold_points_per_s", 1e9/r.probe("sweep.grid_cold", n*len(kinds), func() error {
		return grids(sweep.NewCache())
	}), "1/s")
	warm := sweep.NewCache()
	r.set("sweep.grid_warm_points_per_s", 1e9/r.probe("sweep.grid_warm", n*len(kinds), func() error {
		return grids(warm)
	}), "1/s")
	r.set("sweep.hit_ns", r.probe("sweep.hit", n*len(kinds), func() error {
		for _, k := range kinds {
			if err := each(func(_ int, s pdn.Scenario) error {
				_, err := warm.Evaluate(r.models[k], s)
				return err
			})(); err != nil {
				return err
			}
		}
		return nil
	}), "ns")
	return r.err
}

// experimentLayers times each experiment on a fresh environment, fig4's
// reference simulator, and the ASCII renderer; every dataset rendered here
// is checked against its golden too. On reproduce, the environment's cache
// is the workload's evaluation cache.
func (r *layerRig) experimentLayers(cfg *config, wl workloadSpec, t *tally) error {
	goldens, err := loadGoldens(cfg.root)
	if err != nil {
		return err
	}
	ids := experiments.IDs()
	per := map[string][]float64{}
	var datasets []*flexwatts.Dataset
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		env, err := experiments.NewEnv()
		if err != nil {
			return err
		}
		root := r.tr.start("ladder.experiments", r.tr.op())
		for _, id := range ids {
			sp := root.child("experiments." + id)
			d, err := experiments.Dataset(id, env)
			per[id] = append(per[id], sp.end().Seconds())
			if err != nil {
				return err
			}
			if rep == 0 {
				datasets = append(datasets, d)
			}
		}
		root.end()
		if rep == 0 && wl.name == "reproduce" {
			hits, misses := env.Cache.Stats()
			r.setCache(cacheStats{hits: float64(hits), misses: float64(misses), keys: float64(env.Cache.Len())})
		}
	}
	for _, id := range ids {
		r.set("experiments."+id+"_s", median(per[id]), "s")
	}
	var buf bytes.Buffer
	for i, d := range datasets {
		buf.Reset()
		err := d.WriteASCIIGolden(&buf)
		t.add(err == nil && bytes.Equal(buf.Bytes(), goldens[ids[i]]))
	}
	r.set("report.render_ns", r.probe("report.render", len(datasets), func() error {
		for _, d := range datasets {
			buf.Reset()
			if err := d.WriteASCII(&buf); err != nil {
				return err
			}
		}
		return nil
	}), "ns")

	// fig4's scenarios and seeds: every (workload, TDP, AR) cell measured
	// on the three validated PDNs.
	var calls []float64
	i := 0
	for _, wt := range workload.Types() {
		for _, tdp := range []float64{4, 18, 50} {
			for _, ar := range []float64{0.40, 0.50, 0.60, 0.70, 0.80} {
				s, err := workload.TDPScenario(r.plat, tdp, wt, ar)
				if err != nil {
					return err
				}
				mc := refmodel.DefaultConfig()
				mc.Seed = int64(i) + 7
				for _, k := range []pdn.Kind{pdn.IVR, pdn.MBVR, pdn.LDO} {
					sp := r.tr.start("refmodel.measure", r.tr.op())
					if _, err := refmodel.Measure(r.models[k], s, mc); err != nil {
						return err
					}
					calls = append(calls, float64(sp.end().Nanoseconds()))
				}
				i++
			}
		}
	}
	r.set("refmodel.measure_ns", median(calls), "ns")
	return r.err
}

func (r *layerRig) setCache(c cacheStats) {
	r.set("sweep.cache_hit_ratio", c.ratio(), "frac")
	r.set("sweep.cache_keys", c.keys, "count")
}

// optimizeLayers times Client.Optimize per strategy on the seed's first
// design space. On design, the engine's own cache over the same searches
// is the workload's evaluation cache.
func (r *layerRig) optimizeLayers(cfg *config, wl workloadSpec) error {
	ctx := context.Background()
	client, err := flexwatts.NewClient(flexwatts.WithWorkers(designWork))
	if err != nil {
		return err
	}
	study := designStudies(cfg.seed, cfg.tiny)[0]
	for _, s := range []struct {
		name string
		spec flexwatts.OptimizeSpec
	}{{"exhaustive", study.exhaustive}, {"anneal", study.anneal}} {
		var rates []float64
		for rep := 0; rep < 3; rep++ {
			sp := r.tr.start("ladder.optimize."+s.name, r.tr.op())
			res, err := client.Optimize(ctx, s.spec)
			d := sp.end()
			if err != nil {
				return err
			}
			rates = append(rates, float64(res.Evaluated)/d.Seconds())
			if s.name == "exhaustive" {
				r.set("optimize.frontier_size", float64(len(res.Frontier)), "count")
			}
		}
		r.set("optimize.candidates_per_s."+s.name, median(rates), "1/s")
	}
	if wl.name != "design" {
		return nil
	}
	cache := sweep.NewCache()
	eng := optimize.Engine{Platform: r.plat, Base: r.params, Cache: cache, Workers: designWork}
	for _, spec := range []flexwatts.OptimizeSpec{study.exhaustive, study.anneal} {
		is := optimize.Spec{TDP: float64(spec.TDP), LoadlineScales: spec.LoadlineScales,
			GuardbandScales: spec.GuardbandScales, VRScales: spec.VRScales, Strategy: optimize.Exhaustive,
			Seed: spec.Seed, Budget: spec.Budget, Chains: spec.Chains}
		if spec.Strategy == flexwatts.StrategyAnneal {
			is.Strategy = optimize.Anneal
		}
		if _, err := eng.Run(ctx, is, nil); err != nil {
			return err
		}
	}
	hits, misses := cache.Stats()
	r.setCache(cacheStats{hits: float64(hits), misses: float64(misses), keys: float64(cache.Len())})
	return nil
}

// stageTimes sums the replay's stage durations over its points.
type stageTimes struct {
	points                                             int
	decode, parse, scenario, evaluate, handler, stream time.Duration
	reqBytes, respBytes                                int
	handlerNs                                          []float64 // per request
	mallocs, allocBytes, gcCycles                      uint64
}

// servingLayers replays request bodies in process: each body once through
// the daemon's stages called one by one under a replay span (decode, parse,
// scenario build, evaluation), and once through Server.Handler, buffered
// and streamed. serve-hot replays on warm caches, as its window ran.
func (r *layerRig) servingLayers(cfg *config, wl workloadSpec, traced *window, pts []flexwatts.Point, t *tally) error {
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var bs [][]byte
	var warm [][]byte
	if wl.name == "serve-bulk" || wl.name == "serve-hot" {
		n := bulkReplay
		if wl.name == "serve-hot" {
			n = hotReplay
		}
		for _, i := range rng.Perm(len(traced.sent))[:min(n, len(traced.sent))] {
			bs = append(bs, traced.bodies[traced.sent[i]])
		}
	} else {
		var err error
		if bs, err = bodies(bulkPoints(rng, bulkReplay*bulkBatch), bulkBatch); err != nil {
			return err
		}
	}
	if wl.name == "serve-hot" {
		var err error
		if warm, err = bodies(pts, hotBatch); err != nil {
			return err
		}
	}
	ref, err := newReference()
	if err != nil {
		return err
	}
	st, err := r.replay(bs, warm, ref, t)
	if err != nil {
		return err
	}
	pn := float64(st.points)
	perPoint := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / pn }
	r.set("api.decode_ns_per_point", perPoint(st.decode), "ns")
	r.set("api.parse_ns_per_point", perPoint(st.parse), "ns")
	r.set("api.request_bytes_per_point", float64(st.reqBytes)/pn, "B")
	r.set("api.response_bytes_per_point", float64(st.respBytes)/pn, "B")
	r.set("workload.scenario_ns", perPoint(st.scenario), "ns")
	r.set("server.handler_ns_per_point", perPoint(st.handler), "ns")
	r.set("server.handler_allocs_per_point", float64(st.mallocs)/pn, "count")
	r.set("server.handler_bytes_per_point", float64(st.allocBytes)/pn, "B")
	r.set("server.stream_ns_per_point", perPoint(st.stream), "ns")
	r.set("server.self_ns_per_point", perPoint(st.handler-st.decode-st.parse-st.scenario-st.evaluate), "ns")
	handlerP50 := quantile(st.handlerNs, 0.5)

	if wl.name == "serve-bulk" || wl.name == "serve-hot" {
		r.setCache(traced.cache)
		r.set("transport.ns_per_request", quantile(traced.lat, 0.5)*1e9-handlerP50, "ns")
		r.set("runtime.gc_cycles", float64(st.gcCycles)/float64(len(bs)), "count/op")
		r.set("runtime.alloc_bytes_per_op", float64(st.allocBytes)/float64(len(bs)), "B/op")
		return nil
	}
	// The in-process workloads have no loopback window: send the same
	// bodies one at a time to a fresh daemon, cold as the replay was.
	d, _, err := startDaemon(cfg.daemon)
	if err != nil {
		return err
	}
	defer d.stop()
	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var lat []float64
	for _, b := range bs {
		sp := r.tr.start("loopback.evaluate", r.tr.op())
		status, resp, err := post(client, d.base+api.PathEvaluate, b)
		lat = append(lat, float64(sp.end().Nanoseconds()))
		if err != nil {
			return err
		}
		t.add(status == http.StatusOK && checkResponse(ref, b, resp) == nil)
	}
	r.set("transport.ns_per_request", quantile(lat, 0.5)-handlerP50, "ns")
	return nil
}

// replay runs the bodies through the stages and the handlers; warm bodies
// go through everything first, unmeasured.
func (r *layerRig) replay(bs, warm [][]byte, ref *flexwatts.Client, t *tally) (stageTimes, error) {
	var st stageTimes
	env, err := experiments.NewEnv()
	if err != nil {
		return st, err
	}
	h := server.New(env, server.Options{Workers: procs}).Handler()
	senv, err := experiments.NewEnv()
	if err != nil {
		return st, err
	}
	sh := server.New(senv, server.Options{Workers: procs}).Handler()
	cache := sweep.NewCache()
	call := func(h http.Handler, path string, b []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		return rec
	}
	for _, b := range warm {
		call(h, api.PathEvaluate, b)
		call(sh, api.PathEvaluateStream, b)
		if _, err := r.stages(nil, b, cache); err != nil {
			return st, err
		}
	}
	for _, b := range bs {
		op := r.tr.op()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		sp := r.tr.start("server.handler", op)
		rec := call(h, api.PathEvaluate, b)
		d := sp.end()
		runtime.ReadMemStats(&ms1)
		st.handler += d
		st.handlerNs = append(st.handlerNs, float64(d.Nanoseconds()))
		st.mallocs += ms1.Mallocs - ms0.Mallocs
		st.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		st.gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		st.reqBytes += len(b)
		st.respBytes += rec.Body.Len()
		t.add(rec.Code == http.StatusOK && checkResponse(ref, b, rec.Body.Bytes()) == nil)

		sp = r.tr.start("server.stream", op)
		srec := call(sh, api.PathEvaluateStream, b)
		st.stream += sp.end()
		t.add(srec.Code == http.StatusOK)

		root := r.tr.start("replay", op)
		s, err := r.stages(&root, b, cache)
		root.end()
		if err != nil {
			return st, err
		}
		st.points += s.points
		st.decode += s.decode
		st.parse += s.parse
		st.scenario += s.scenario
		st.evaluate += s.evaluate
	}
	return st, nil
}

// stages runs one body through the daemon's stages, each a child span of
// root (nil: untraced warm-up).
func (r *layerRig) stages(root *active, b []byte, cache *sweep.Cache) (stageTimes, error) {
	var st stageTimes
	if root == nil {
		root = &active{start: time.Now()}
	}
	sp := root.child("api.decode")
	var req api.EvalRequest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	st.decode = sp.end()
	if err != nil {
		return st, fmt.Errorf("replay decode: %w", err)
	}
	sp = root.child("api.parse")
	pts := make([]flexwatts.Point, len(req.Points))
	for i, ep := range req.Points {
		if pts[i], err = ep.Point(); err == nil {
			err = pts[i].Validate()
		}
		if err != nil {
			return st, fmt.Errorf("replay parse: %w", err)
		}
	}
	st.parse = sp.end()
	sp = root.child("workload.scenario")
	kinds := make([]pdn.Kind, len(pts))
	scen := make([]pdn.Scenario, len(pts))
	tdps := make([]float64, len(pts))
	for i, p := range pts {
		if kinds[i], err = pdn.ParseKind(p.PDN.String()); err == nil {
			scen[i], tdps[i], err = scenarioOf(r.plat, p)
		}
		if err != nil {
			return st, fmt.Errorf("replay scenario: %w", err)
		}
	}
	st.scenario = sp.end()
	st.points = len(pts)
	t0 := time.Now()
	for _, k := range pdn.Kinds() {
		g := pdn.NewGrid(0)
		for i := range scen {
			if kinds[i] == k {
				g.Append(scen[i])
			}
		}
		if g.Len() == 0 {
			continue
		}
		sp = root.child("sweep.grid." + kindName(k))
		err := cache.EvaluateGrid(r.models[k], g, make([]pdn.Result, g.Len()))
		sp.end()
		if err != nil {
			return st, err
		}
	}
	sp = root.child("core.auto_eval")
	for i := range scen {
		if kinds[i] == pdn.FlexWatts {
			if _, err := core.NewAutoModel(r.flex, r.pred, tdps[i]).Evaluate(scen[i]); err != nil {
				return st, err
			}
		}
	}
	sp.end()
	st.evaluate = time.Since(t0)
	return st, nil
}
