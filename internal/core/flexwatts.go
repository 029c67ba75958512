// Package core implements FlexWatts, the paper's contribution (§6): a
// power- and workload-aware hybrid adaptive PDN.
//
// FlexWatts rests on three ideas:
//
//  1. The wide-power-range compute domains (cores, LLC, GFX) sit behind
//     hybrid VRs that share the IVR's high-side power switch, decoupling
//     capacitors, routing, and the off-chip V_IN VR between an IVR-Mode
//     (two-stage, V_IN at 1.8 V) and an LDO-Mode (V_IN at the maximum
//     compute voltage, on-chip LDOs regulating down or bypassing).
//  2. The narrow-power-range SA and IO domains get dedicated off-chip VRs,
//     as in the LDO PDN.
//  3. A runtime prediction algorithm (Algorithm 1, predictor.go) selects
//     the mode with the higher predicted ETEE from firmware curve tables,
//     and a voltage-noise-free switching flow (switchflow.go) carries out
//     the transition through package C6.
//
// The resource sharing costs a slightly higher input load-line in both
// modes (Params.FlexSharePenalty), which is why FlexWatts trails the best
// static PDN by under 1 % while beating the worst by 20 %+.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/vr"
)

// Mode is the hybrid PDN's operating mode (§6).
type Mode int

// The two modes of the hybrid VR.
const (
	// IVRMode runs the compute domains' hybrid VRs as integrated switching
	// regulators from a 1.8 V input rail — efficient at high power.
	IVRMode Mode = iota
	// LDOMode runs them as LDOs (or bypass switches) from an input rail at
	// the maximum compute voltage — efficient at low power.
	LDOMode
)

// Modes lists both modes.
func Modes() []Mode { return []Mode{IVRMode, LDOMode} }

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case IVRMode:
		return "IVR-Mode"
	case LDOMode:
		return "LDO-Mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Model is the FlexWatts PDN. It implements pdn.Model; Evaluate uses the
// currently configured mode, while EvaluateMode evaluates a specific one
// (used by the predictor's offline table generation and by oracle
// baselines). The zero mode is IVRMode. Both modes' compute stages are
// built at construction, each behind the shared V_IN rail and the
// dedicated SA/IO rails.
type Model struct {
	params pdn.Params
	ivr    pdn.IVRStage
	ldo    pdn.LDOStage
	rails  pdn.StageRails
	// mode is atomic because sweep workers share one Model: AutoModel
	// records the mode it evaluates, and concurrent evaluations must not
	// race on the field (each evaluation passes its mode explicitly).
	mode atomic.Int32
}

// NewModel constructs a FlexWatts PDN with the given PDNspot parameters.
func NewModel(p pdn.Params) *Model {
	compute := domain.ComputeKinds()
	return &Model{
		params: p,
		ivr:    pdn.NewIVRStage(vr.NewIVR("HybridIVR", p.IVRIccmax), compute, p.TOBIVR, p.VINLevel),
		ldo:    pdn.NewLDOStage(vr.NewPlatformLDO("HybridLDO", p.IVRIccmax), compute, p.TOBLDO),
		rails:  pdn.NewStageRails(p, p.TOBLDO),
	}
}

// Kind implements pdn.Model.
func (m *Model) Kind() pdn.Kind { return pdn.FlexWatts }

// Mode returns the currently configured hybrid mode.
func (m *Model) Mode() Mode { return Mode(m.mode.Load()) }

// SetMode configures the hybrid mode. The electrical transition itself is
// modeled by SwitchFlow; SetMode only changes which mode Evaluate uses.
func (m *Model) SetMode(mode Mode) { m.mode.Store(int32(mode)) }

// Evaluate implements pdn.Model using the current mode.
func (m *Model) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	return m.EvaluateMode(s, m.Mode())
}

// EvaluateMode computes the end-to-end power flow with the hybrid VRs in
// the given mode. In both modes the SA and IO domains ride their dedicated
// board VRs; the compute domains go through the shared V_IN rail whose
// load-line is the corresponding static PDN's times the sharing penalty.
func (m *Model) EvaluateMode(s pdn.Scenario, mode Mode) (pdn.Result, error) {
	if err := pdn.Validate(&s); err != nil {
		return pdn.Result{}, err
	}
	if err := checkMode(mode); err != nil {
		return pdn.Result{}, err
	}
	var r pdn.Result
	m.eval(&s, mode, nil, &r)
	return r, nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()] using the
// currently configured mode, bitwise identical to per-point Evaluate.
func (m *Model) EvaluateGrid(g *pdn.Grid, out []pdn.Result) error {
	return m.EvaluateGridMode(g, out, m.Mode())
}

// EvaluateGridMode evaluates every grid point in the given hybrid mode
// through EvaluateMode's per-point path with one pdn.Memo for the run, so
// each result is bitwise identical to EvaluateMode's; the first invalid
// point stops the run with its error wrapped by pdn.GridPointError.
func (m *Model) EvaluateGridMode(g *pdn.Grid, out []pdn.Result, mode Mode) error {
	if err := pdn.CheckGridOut(g, out); err != nil {
		return err
	}
	if err := checkMode(mode); err != nil {
		return err
	}
	var memo pdn.Memo
	pts := g.Scenarios()
	for i := range pts {
		if err := pdn.Validate(&pts[i]); err != nil {
			return pdn.GridPointError(i, err)
		}
		out[i] = pdn.Result{}
		m.eval(&pts[i], mode, &memo, &out[i])
	}
	return nil
}

func checkMode(mode Mode) error {
	if mode != IVRMode && mode != LDOMode {
		return fmt.Errorf("core: unknown mode %v", mode)
	}
	return nil
}

// eval accumulates a validated point's result in a known mode into the
// zeroed *r; memo is nil outside grid runs.
func (m *Model) eval(s *pdn.Scenario, mode Mode, memo *pdn.Memo, r *pdn.Result) {
	p := &m.params
	var st pdn.StageOut
	var vinLevel units.Volt
	var rll units.Ohm
	if mode == IVRMode {
		vinLevel = p.VINLevel
		m.ivr.Eval(s, memo, &st)
		rll = p.IVRInLL * p.FlexSharePenalty
	} else {
		vinLevel = m.ldo.Eval(s, memo, &st)
		rll = p.LDOInLL * p.FlexSharePenalty
	}
	pin := m.rails.Eval(&st, vinLevel, rll, s, memo, r)
	pdn.Finish(r, pdn.FlexWatts, s.TotalNominal(), pin, rll)
}

// BestMode evaluates both modes on the scenario and returns the one with
// the higher ETEE together with both results. This is the oracle selection
// used to bound the predictor's quality in the ablation benches.
func (m *Model) BestMode(s pdn.Scenario) (Mode, pdn.Result, pdn.Result, error) {
	ri, err := m.EvaluateMode(s, IVRMode)
	if err != nil {
		return IVRMode, pdn.Result{}, pdn.Result{}, err
	}
	rl, err := m.EvaluateMode(s, LDOMode)
	if err != nil {
		return IVRMode, pdn.Result{}, pdn.Result{}, err
	}
	if ri.ETEE >= rl.ETEE {
		return IVRMode, ri, rl, nil
	}
	return LDOMode, ri, rl, nil
}
