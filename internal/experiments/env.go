// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each driver
// computes the same rows/series the paper reports and returns them as a
// typed report.Dataset, so the repository's cmd/flexwatts binary, the
// flexwattsd HTTP service and the bench harness can regenerate every
// artifact in any render format without re-evaluating.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"repro/flexwatts/report"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/sweep"
)

// Env bundles the objects every experiment needs: the platform model, the
// PDNspot parameters, the four baseline PDNs, and FlexWatts with its
// predictor, plus the sweep engine settings the figure drivers execute on.
type Env struct {
	Platform  *domain.Platform
	Params    pdn.Params
	Baselines map[pdn.Kind]pdn.Model
	Flex      *core.Model
	Predictor *core.Predictor
	// Workers bounds how many sweep points the drivers evaluate
	// concurrently: 1 is fully serial, 0 (the default) sizes the pool by
	// GOMAXPROCS. Output is byte-identical either way — results are
	// collected by grid index before rendering.
	Workers int
	// Cache memoizes baseline PDN evaluations, so scenario cells shared
	// between figures (the same TDP grids recur everywhere) evaluate once
	// per Env.
	Cache *sweep.Cache
}

// NewEnv constructs the default evaluation environment.
func NewEnv() (*Env, error) {
	plat := domain.NewClientPlatform()
	params := pdn.DefaultParams()
	baselines := make(map[pdn.Kind]pdn.Model, 4)
	for _, k := range pdn.Kinds() {
		m, err := pdn.New(k, params)
		if err != nil {
			return nil, err
		}
		baselines[k] = m
	}
	flex := core.NewModel(params)
	pred, err := core.NewPredictor(plat, flex, core.DefaultPredictorConfig())
	if err != nil {
		return nil, err
	}
	return &Env{
		Platform:  plat,
		Params:    params,
		Baselines: baselines,
		Flex:      flex,
		Predictor: pred,
		Cache:     sweep.NewCache(),
	}, nil
}

// Eval evaluates baseline k on s through the env's memoizing cache.
func (e *Env) Eval(k pdn.Kind, s pdn.Scenario) (pdn.Result, error) {
	return e.Cache.Evaluate(e.Baselines[k], s)
}

// EvalGrid evaluates baseline k on every grid point into out[:g.Len()],
// through the same memoizing cache as Eval — same keys, same accounting —
// with cache misses resolved by EvaluateGrid and chunks spread over the
// env's worker pool. A grid run is bitwise identical to Evaluate, so a
// driver converted from per-point Eval to EvalGrid renders byte-identical
// datasets and shares cache entries with drivers that were not.
func (e *Env) EvalGrid(k pdn.Kind, g *pdn.Grid, out []pdn.Result) error {
	return sweep.GridMapCtx(context.Background(), e.Workers, e.Cache, e.Baselines[k], g, out, 0)
}

// Model returns baseline k wrapped in the env's memoizing cache, for
// callers that consume a pdn.Model (perf.Evaluator, battery-life drivers).
func (e *Env) Model(k pdn.Kind) pdn.Model {
	return sweep.Cached(e.Baselines[k], e.Cache)
}

// AllModels returns the five PDNs in plotting order, with FlexWatts wrapped
// in its Algorithm 1 auto-mode adapter for the given TDP. The baselines are
// cache-wrapped; the auto-model is not (its result depends on the TDP, not
// just the scenario).
func (e *Env) AllModels(tdp float64) []pdn.Model {
	return []pdn.Model{
		e.Model(pdn.IVR),
		e.Model(pdn.MBVR),
		e.Model(pdn.LDO),
		e.Model(pdn.IMBVR),
		core.NewAutoModel(e.Flex, e.Predictor, tdp),
	}
}

// Runner is an experiment entry point: it evaluates the experiment's grid
// and returns the results as a typed dataset. Rendering is the caller's
// choice (report.Format).
type Runner func(e *Env) (*report.Dataset, error)

// registry maps experiment ids to runners; populated by init() calls in
// the per-figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// Dataset executes the experiment with the given id and returns its typed
// result, with the dataset's ID stamped to the registry key.
func Dataset(id string, e *Env) (*report.Dataset, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	d, err := r(e)
	if err != nil {
		return nil, err
	}
	d.ID = id
	return d, nil
}

// Run executes the experiment with the given id and renders it as ASCII,
// the historical driver behavior (golden files are captured in this form).
func Run(id string, e *Env, w io.Writer) error {
	d, err := Dataset(id, e)
	if err != nil {
		return err
	}
	return d.WriteASCII(w)
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// IDs lists the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Datasets executes every registered experiment through the sweep engine
// and returns the typed results in id order.
//
// The env's worker budget is split between the two sweep levels — a few
// experiments in flight, each granted its share of the pool for its own
// grid — so nested sweeps never multiply into workers² goroutines.
func Datasets(e *Env) ([]*report.Dataset, error) {
	ids := IDs()
	budget := e.Workers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer := budget
	if outer > 4 {
		outer = 4
	}
	inner := *e
	inner.Workers = (budget + outer - 1) / outer
	return sweep.Map(outer, len(ids), func(i int) (*report.Dataset, error) {
		d, err := Dataset(ids[i], &inner)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
		return d, nil
	})
}

// RunAll executes every registered experiment and renders the results to w
// in id order, each followed by a blank line, so the output is byte-for-byte
// the same whether the registry ran serially or concurrently.
func RunAll(e *Env, w io.Writer) error {
	ds, err := Datasets(e)
	if err != nil {
		return err
	}
	for _, d := range ds {
		if err := d.WriteASCII(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// kindsMeta renders a PDN order list for dataset metadata.
func kindsMeta(ks []pdn.Kind) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}

// floatsMeta renders a numeric grid axis for dataset metadata.
func floatsMeta(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return strings.Join(parts, ",")
}
