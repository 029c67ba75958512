package pdn

import (
	"errors"
	"fmt"

	"repro/internal/domain"
	"repro/internal/units"
	"repro/internal/vr"
)

// ErrNoLoad is returned when a scenario has no active domain at all.
var ErrNoLoad = errors.New("pdn: scenario has no active load")

// Validate checks scenario invariants shared by all models. It takes a
// pointer because it sits on the per-evaluation hot path and Scenario is a
// ~200-byte value; the scenario is not modified.
func Validate(s *Scenario) error {
	active := false
	for k := range s.Loads {
		l := &s.Loads[k]
		if l.PNom < 0 {
			return fmt.Errorf("pdn: %v has negative power %g", domain.Kind(k), l.PNom)
		}
		if !l.Active() {
			continue
		}
		active = true
		if l.VNom <= 0 {
			return fmt.Errorf("pdn: %v active with non-positive voltage %g", domain.Kind(k), l.VNom)
		}
		if !(l.AR > 0 && l.AR <= 1) {
			return fmt.Errorf("pdn: %v has AR %g outside (0,1]", domain.Kind(k), l.AR)
		}
		if !(l.FL >= 0 && l.FL <= 1) {
			return fmt.Errorf("pdn: %v has FL %g outside [0,1]", domain.Kind(k), l.FL)
		}
	}
	if !active {
		return ErrNoLoad
	}
	return nil
}

// Finish completes a Result whose Breakdown and Rails the stages have
// accumulated: it records the kind, ΣPNOM (the scenario's TotalNominal),
// the PSU draw, ETEE and the total chip input current.
func Finish(r *Result, kind Kind, pnom, pin units.Watt, railR units.Ohm) {
	var iin units.Amp
	for i := 0; i < r.Rails.n; i++ {
		iin += r.Rails.rails[i].Current
	}
	r.PDN = kind
	r.PNomTotal = pnom
	r.PIn = pin
	r.ETEE = pnom / pin
	r.ChipInputCurrent = iin
	r.ComputeRailR = railR
}

// Every model evaluates a point with one method, eval(s, memo, r): it
// validates s and accumulates the point's Result into the zeroed *r.
// Evaluate runs it with a nil memo; EvaluateGrid runs it on every grid
// point with one Memo for the whole run, stopping at the first invalid
// point with its error wrapped by GridPointError (results for preceding
// points remain valid). Each model spells out that short loop: handing
// eval to a shared loop as a function value would move the Memo to the
// heap, and grid runs are pinned allocation-free.

// IVRModel is the integrated-VR PDN (Fig 1(a)): one off-chip V_IN VR at
// 1.8 V feeding six on-die IVRs, one per domain.
type IVRModel struct {
	params Params
	stage  IVRStage
	vin    vinRail
}

// NewIVRModel constructs the IVR PDN with the given parameters.
func NewIVRModel(p Params) *IVRModel {
	return &IVRModel{
		params: p,
		stage:  NewIVRStage(vr.NewIVR("IVR", p.IVRIccmax), domain.Kinds(), p.TOBIVR, p.VINLevel),
		vin:    newVinRail(vr.NewVinVR(p.VINIccmax), p.PSU),
	}
}

// Kind implements Model.
func (m *IVRModel) Kind() Kind { return IVR }

// Evaluate implements Model, following Eq. 2, 6, 7, 8, 9.
func (m *IVRModel) Evaluate(s Scenario) (Result, error) {
	var r Result
	if err := m.eval(&s, nil, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], bitwise
// identical to calling Evaluate per point.
func (m *IVRModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := CheckGridOut(g, out); err != nil {
		return err
	}
	var memo Memo
	for i := range g.s {
		out[i] = Result{}
		if err := m.eval(&g.s[i], &memo, &out[i]); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

func (m *IVRModel) eval(s *Scenario, memo *Memo, r *Result) error {
	if err := Validate(s); err != nil {
		return err
	}
	p := &m.params
	var computeP, total units.Watt
	for k := range s.Loads {
		total += s.Loads[k].PNom
		if domain.Kind(k).IsCompute() {
			computeP += s.Loads[k].PNom
		}
	}
	var st StageOut
	m.stage.Eval(s, memo, &st)
	share := 1.0
	if total > 0 {
		share = computeP / total
	}
	r.Breakdown = st.Breakdown
	pin := m.vin.eval(&st, p.VINLevel, p.IVRInLL, s.CState, share, r)
	Finish(r, IVR, total, pin, p.IVRInLL)
	return nil
}

// MBVRModel is the motherboard-VR PDN (Fig 1(b)): four one-stage board VRs
// (V_Cores for Core0/Core1, V_GFX for GFX and the LLC, V_SA, V_IO) and six
// on-chip power gates. The LLC shares the graphics rail: for CPU workloads
// its voltage matches the cores anyway (§7.1), while for graphics workloads
// it runs at graphics-class voltage, so pairing it with V_GFX avoids
// over-volting the (low-voltage) cores.
type MBVRModel struct {
	params             Params
	cores, gfx, sa, io boardRail
}

// NewMBVRModel constructs the MBVR PDN.
func NewMBVRModel(p Params) *MBVRModel {
	tob := p.TOBMBVR
	return &MBVRModel{
		params: p,
		cores:  newBoardRail(vr.NewBoardVR("V_Cores", p.CoresIccmax), p.PSU, []domain.Kind{domain.Core0, domain.Core1}, tob, p.RPG, p.CoresLL, true, 0),
		gfx:    newBoardRail(vr.NewBoardVR("V_GFX", p.GfxIccmax), p.PSU, []domain.Kind{domain.GFX, domain.LLC}, tob, p.RPG, p.GfxLL, true, 1),
		sa:     newBoardRail(vr.NewSmallRailVR("V_SA", p.SAIccmax), p.PSU, []domain.Kind{domain.SA}, tob, p.RPG, p.SALL, false, 2),
		io:     newBoardRail(vr.NewSmallRailVR("V_IO", p.IOIccmax), p.PSU, []domain.Kind{domain.IO}, tob, p.RPG, p.IOLL, false, 3),
	}
}

// Kind implements Model.
func (m *MBVRModel) Kind() Kind { return MBVR }

// Evaluate implements Model, following Eq. 2–5 per rail.
func (m *MBVRModel) Evaluate(s Scenario) (Result, error) {
	var r Result
	if err := m.eval(&s, nil, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], bitwise
// identical to calling Evaluate per point.
func (m *MBVRModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := CheckGridOut(g, out); err != nil {
		return err
	}
	var memo Memo
	for i := range g.s {
		out[i] = Result{}
		if err := m.eval(&g.s[i], &memo, &out[i]); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

func (m *MBVRModel) eval(s *Scenario, memo *Memo, r *Result) error {
	if err := Validate(s); err != nil {
		return err
	}
	var pin units.Watt
	pin += m.cores.run(s, memo, r)
	pin += m.gfx.run(s, memo, r)
	pin += m.sa.run(s, memo, r)
	pin += m.io.run(s, memo, r)
	Finish(r, MBVR, s.TotalNominal(), pin, m.params.CoresLL)
	return nil
}

// LDOModel is the LDO PDN (Fig 1(c), AMD Zen style): compute domains behind
// on-chip LDOs fed from a shared V_IN VR set to the maximum compute voltage;
// SA and IO on dedicated one-stage board VRs with power gates.
type LDOModel struct {
	params Params
	stage  LDOStage
	rails  StageRails
}

// NewLDOModel constructs the LDO PDN.
func NewLDOModel(p Params) *LDOModel {
	return &LDOModel{
		params: p,
		stage:  NewLDOStage(vr.NewPlatformLDO("LDO", p.IVRIccmax), domain.ComputeKinds(), p.TOBLDO),
		rails:  NewStageRails(p, p.TOBLDO),
	}
}

// Kind implements Model.
func (m *LDOModel) Kind() Kind { return LDO }

// Evaluate implements Model, following Eq. 2, 10, 11, 7, 8, 12.
func (m *LDOModel) Evaluate(s Scenario) (Result, error) {
	var r Result
	if err := m.eval(&s, nil, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], bitwise
// identical to calling Evaluate per point.
func (m *LDOModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := CheckGridOut(g, out); err != nil {
		return err
	}
	var memo Memo
	for i := range g.s {
		out[i] = Result{}
		if err := m.eval(&g.s[i], &memo, &out[i]); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

func (m *LDOModel) eval(s *Scenario, memo *Memo, r *Result) error {
	if err := Validate(s); err != nil {
		return err
	}
	var st StageOut
	vinLevel := m.stage.Eval(s, memo, &st)
	pin := m.rails.Eval(&st, vinLevel, m.params.LDOInLL, s, memo, r)
	Finish(r, LDO, s.TotalNominal(), pin, m.params.LDOInLL)
	return nil
}

// IMBVRModel is the Skylake-X style hybrid (§7): compute domains behind
// IVRs on the 1.8 V V_IN rail (as in the IVR PDN) while SA and IO sit on
// dedicated one-stage board VRs (as in the MBVR PDN).
type IMBVRModel struct {
	params Params
	stage  IVRStage
	rails  StageRails
}

// NewIMBVRModel constructs the I+MBVR PDN.
func NewIMBVRModel(p Params) *IMBVRModel {
	return &IMBVRModel{
		params: p,
		stage:  NewIVRStage(vr.NewIVR("IVR", p.IVRIccmax), domain.ComputeKinds(), p.TOBIVR, p.VINLevel),
		rails:  NewStageRails(p, p.TOBMBVR),
	}
}

// Kind implements Model.
func (m *IMBVRModel) Kind() Kind { return IMBVR }

// Evaluate implements Model.
func (m *IMBVRModel) Evaluate(s Scenario) (Result, error) {
	var r Result
	if err := m.eval(&s, nil, &r); err != nil {
		return Result{}, err
	}
	return r, nil
}

// EvaluateGrid evaluates every grid point into out[:g.Len()], bitwise
// identical to calling Evaluate per point.
func (m *IMBVRModel) EvaluateGrid(g *Grid, out []Result) error {
	if err := CheckGridOut(g, out); err != nil {
		return err
	}
	var memo Memo
	for i := range g.s {
		out[i] = Result{}
		if err := m.eval(&g.s[i], &memo, &out[i]); err != nil {
			return GridPointError(i, err)
		}
	}
	return nil
}

func (m *IMBVRModel) eval(s *Scenario, memo *Memo, r *Result) error {
	if err := Validate(s); err != nil {
		return err
	}
	var st StageOut
	m.stage.Eval(s, memo, &st)
	pin := m.rails.Eval(&st, m.params.VINLevel, m.params.IVRInLL, s, memo, r)
	Finish(r, IMBVR, s.TotalNominal(), pin, m.params.IVRInLL)
	return nil
}

// New constructs a baseline model of the given kind (not FlexWatts, which
// lives in internal/core).
func New(k Kind, p Params) (Model, error) {
	switch k {
	case IVR:
		return NewIVRModel(p), nil
	case MBVR:
		return NewMBVRModel(p), nil
	case LDO:
		return NewLDOModel(p), nil
	case IMBVR:
		return NewIMBVRModel(p), nil
	default:
		return nil, fmt.Errorf("pdn: no baseline model for %v", k)
	}
}
