package pdn

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/units"
)

// gridTestParams returns plausible PDNspot parameters for the grid tests
// (the root-level property test covers the real platform parameters; here
// the point is exercising every branch of the stages and memos).
func gridTestParams() Params {
	return Params{
		PSU:              12,
		TOBIVR:           units.MilliVolt(10),
		TOBMBVR:          units.MilliVolt(20),
		TOBLDO:           units.MilliVolt(15),
		VINLevel:         1.8,
		IVRInLL:          units.MilliOhm(3),
		LDOInLL:          units.MilliOhm(5),
		CoresLL:          units.MilliOhm(2),
		GfxLL:            units.MilliOhm(2),
		SALL:             units.MilliOhm(5),
		IOLL:             units.MilliOhm(5),
		RPG:              units.MilliOhm(1.5),
		IVRIccmax:        50,
		VINIccmax:        40,
		CoresIccmax:      60,
		GfxIccmax:        40,
		SAIccmax:         10,
		IOIccmax:         10,
		FlexSharePenalty: 1.1,
	}
}

// gridTestScenarios builds a grid that exercises the memos the way real
// sweeps do — runs where only AR changes (stage-memo hits), power/voltage
// steps (misses), C-state changes (VR state re-selection), exact repeats
// (board-rail memo hits), idle domains, all-compute-idle points and
// single-domain points — in an order that also forces memo invalidation
// between hits.
func gridTestScenarios() []Scenario {
	base := NewScenario()
	base.Loads[domain.Core0] = Load{PNom: 4, VNom: 0.85, FL: 0.3, AR: 0.6}
	base.Loads[domain.Core1] = Load{PNom: 3.5, VNom: 0.85, FL: 0.3, AR: 0.6}
	base.Loads[domain.LLC] = Load{PNom: 1.2, VNom: 0.8, FL: 0.4, AR: 0.7}
	base.Loads[domain.GFX] = Load{PNom: 5, VNom: 0.75, FL: 0.35, AR: 0.5}
	base.Loads[domain.SA] = Load{PNom: 0.8, VNom: 0.8, FL: 0.25, AR: 0.9}
	base.Loads[domain.IO] = Load{PNom: 0.5, VNom: 1.05, FL: 0.2, AR: 0.95}

	var out []Scenario
	// AR-only runs at two power levels: consecutive points hit the stage
	// memos.
	for _, scale := range []float64{1, 2.5} {
		for _, ar := range []float64{0.3, 0.45, 0.6, 0.8, 1} {
			s := base
			for k := range s.Loads {
				if s.Loads[k].Active() {
					s.Loads[k].PNom *= scale
					s.Loads[k].AR = ar
				}
			}
			out = append(out, s)
		}
	}
	// Voltage and leakage steps: memo misses on VNom/FL.
	for _, dv := range []float64{-0.1, 0.05, 0.2} {
		s := base
		for _, k := range domain.ComputeKinds() {
			s.Loads[k].VNom += dv
			s.Loads[k].FL += dv / 2
		}
		out = append(out, s)
	}
	// C-state ladder at fixed loads: same load key, different VR states.
	for _, c := range []domain.CState{domain.C0, domain.C0MIN, domain.C2, domain.C6, domain.C8} {
		s := base
		s.CState = c
		out = append(out, s)
	}
	// Exact repeats: every memo hits.
	for i := 0; i < 3; i++ {
		out = append(out, base)
	}
	// Idle subsets: compute-idle (LDO stage's vin==0 branch, SA/IO-only
	// rails), uncore-idle, single tiny domain, light loads (PS1 selection).
	computeIdle := base
	for _, k := range domain.ComputeKinds() {
		computeIdle.Loads[k] = Load{}
	}
	out = append(out, computeIdle)
	uncoreIdle := base
	for _, k := range domain.UncoreKinds() {
		uncoreIdle.Loads[k] = Load{}
	}
	out = append(out, uncoreIdle)
	solo := NewScenario()
	solo.Loads[domain.IO] = Load{PNom: 0.05, VNom: 1.05, FL: 0.2, AR: 1}
	out = append(out, solo)
	light := base
	for k := range light.Loads {
		if light.Loads[k].Active() {
			light.Loads[k].PNom *= 0.05
		}
	}
	out = append(out, light)
	// Mixed rail voltages so MBVR's rail-sharing overvolt branch runs both
	// ways (LLC below and above the GFX voltage).
	swapped := base
	swapped.Loads[domain.LLC].VNom = 1.0
	out = append(out, swapped)
	// Return to base: stage memos must re-validate correctly after misses.
	out = append(out, base)
	return out
}

// TestGridViewAliasing pins View's alias contract: a view shares the
// parent's storage, so mutation flows both ways — that sharing is
// what lets GridMapCtx chunk one grid across workers without copying.
func TestGridViewAliasing(t *testing.T) {
	scenarios := gridTestScenarios()
	g := GridOf(scenarios)
	v := g.View(3, 9)
	if v.Len() != 6 {
		t.Fatalf("view length %d, want 6", v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.At(i) != g.At(3+i) {
			t.Fatalf("view point %d differs from parent point %d", i, 3+i)
		}
	}
	// Writing through the view must reach the parent…
	mut := scenarios[len(scenarios)-1]
	mut.Loads[domain.Core0].PNom = 42
	mut.CState = domain.C2
	v.Set(2, mut)
	if got := g.At(5); got != mut {
		t.Errorf("parent did not see view mutation: got %+v", got)
	}
	// …and writing through the parent must be visible in the view.
	mut.Loads[domain.GFX].AR = 0.123
	g.Set(7, mut)
	if got := v.At(4); got != mut {
		t.Errorf("view did not see parent mutation: got %+v", got)
	}
	// Points outside the window stay untouched by the view writes.
	if g.At(2) != scenarios[2] || g.At(9) != scenarios[9] {
		t.Error("view mutation leaked outside its [lo,hi) window")
	}
}

// TestGridGatherCopies pins Gather's copy contract — the opposite of
// View's: the gathered sub-grid owns its storage, so mutating it must
// never corrupt the source (the cache relies on this when it evaluates a
// miss sub-grid while other workers read the request grid), and mutating
// the source must not retroactively change the gathered points.
func TestGridGatherCopies(t *testing.T) {
	scenarios := gridTestScenarios()
	src := GridOf(scenarios)
	indices := []int{7, 0, 3, 3, len(scenarios) - 1}
	var g Grid
	g.Gather(src, indices)
	if g.Len() != len(indices) {
		t.Fatalf("gathered length %d, want %d", g.Len(), len(indices))
	}
	for j, i := range indices {
		if g.At(j) != src.At(i) {
			t.Fatalf("gathered point %d differs from source point %d", j, i)
		}
	}
	// Mutate every gathered point; the source must keep its bits.
	mut := scenarios[1]
	mut.Loads[domain.Core0].PNom = 99
	for j := 0; j < g.Len(); j++ {
		g.Set(j, mut)
	}
	for i, want := range scenarios {
		if src.At(i) != want {
			t.Fatalf("source point %d corrupted by gathered-grid mutation", i)
		}
	}
	// And the reverse: source mutation must not reach the gathered copy.
	g.Gather(src, indices)
	src.Set(7, mut)
	if g.At(0) != scenarios[7] {
		t.Error("source mutation reached the gathered copy")
	}
	// Re-gather into the same grid reuses its columns across lengths.
	g.Gather(src, indices[:2])
	if g.Len() != 2 || g.At(1) != src.At(0) {
		t.Errorf("re-gather: len %d, point 1 mismatch", g.Len())
	}
}

// TestEvaluateGridBitwise pins grid runs, memos included, against
// per-point Evaluate: every Result field of every point must be equal.
func TestEvaluateGridBitwise(t *testing.T) {
	p := gridTestParams()
	g := GridOf(gridTestScenarios())
	out := make([]Result, g.Len())
	for _, k := range Kinds() {
		m, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		ge, ok := m.(interface {
			EvaluateGrid(*Grid, []Result) error
		})
		if !ok {
			t.Fatalf("%v model does not implement EvaluateGrid", k)
		}
		if err := ge.EvaluateGrid(g, out); err != nil {
			t.Fatalf("%v EvaluateGrid: %v", k, err)
		}
		for i := 0; i < g.Len(); i++ {
			want, err := m.Evaluate(g.At(i))
			if err != nil {
				t.Fatalf("%v scalar point %d: %v", k, i, err)
			}
			if out[i] != want {
				t.Errorf("%v point %d: grid result differs from scalar\n grid:   %+v\n scalar: %+v", k, i, out[i], want)
			}
		}
	}
}

// TestEvaluateGridErrors pins the error contract: the first invalid point
// stops the run with the scalar error wrapped by its index, preceding
// results stay valid, and a short result block is rejected up front.
func TestEvaluateGridErrors(t *testing.T) {
	p := gridTestParams()
	m := NewIVRModel(p)
	good := gridTestScenarios()[0]
	bad := good
	bad.Loads[domain.Core0].AR = 1.5 // outside (0,1]

	g := GridOf([]Scenario{good, bad, good})
	out := make([]Result, g.Len())
	err := m.EvaluateGrid(g, out)
	if err == nil {
		t.Fatal("EvaluateGrid accepted an invalid point")
	}
	_, wantErr := m.Evaluate(bad)
	if wantErr == nil {
		t.Fatal("scalar Evaluate accepted the invalid point")
	}
	if !strings.Contains(err.Error(), "grid point 1") || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Errorf("grid error %q does not wrap scalar error %q at index 1", err, wantErr)
	}
	want, err2 := m.Evaluate(good)
	if err2 != nil {
		t.Fatal(err2)
	}
	if out[0] != want {
		t.Error("result for the point preceding the failure was not written")
	}

	empty := GridOf([]Scenario{NewScenario()}) // no active load
	if err := m.EvaluateGrid(empty, make([]Result, 1)); !errors.Is(err, ErrNoLoad) {
		t.Errorf("no-load grid error = %v, want wrapped ErrNoLoad", err)
	}

	if err := m.EvaluateGrid(g, make([]Result, 1)); err == nil {
		t.Error("EvaluateGrid accepted a result block shorter than the grid")
	}
}

// TestGridAccessors pins the round-trip: Append/Set/At/View agree with the
// scenario values they were fed.
func TestGridAccessors(t *testing.T) {
	ss := gridTestScenarios()
	g := NewGrid(4) // smaller than len(ss): growth path
	for _, s := range ss {
		g.Append(s)
	}
	if g.Len() != len(ss) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(ss))
	}
	for i, s := range ss {
		if g.At(i) != s {
			t.Fatalf("At(%d) round-trip mismatch", i)
		}
	}
	v := g.View(2, 5)
	if v.Len() != 3 {
		t.Fatalf("View len = %d, want 3", v.Len())
	}
	for i := 0; i < 3; i++ {
		if v.At(i) != ss[2+i] {
			t.Fatalf("View.At(%d) != parent point %d", i, 2+i)
		}
	}
	repl := ss[7]
	v.Set(0, repl)
	if g.At(2) != repl {
		t.Error("Set through a view did not write the parent storage")
	}
}
