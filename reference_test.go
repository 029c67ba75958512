// Frozen reference: the closed-form PDN power flow written out once more,
// test-only, in plain scalar form — per-model Evaluate bodies, []Load
// stages, a per-call buck loss formula and a struct-built Result. It is
// built from exported loadline, vr and pdn APIs only, so it shares no
// arithmetic with the models under test. The models (one per-point path
// behind both Evaluate and EvaluateGrid, VR constants compiled at
// construction, previous-point memos on grid runs) must reproduce it bit
// for bit and error for error; the experiment goldens rest on that. Keep
// it frozen: a deliberate model change updates it in the same commit.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/flexwatts"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/loadline"
	"repro/internal/pdn"
	"repro/internal/units"
	"repro/internal/vr"
	"repro/internal/workload"
)

// refBuckLoss is the buck loss model of the vr package documentation,
// evaluated per call from the part's parameters.
func refBuckLoss(p vr.BuckParams, op vr.OperatingPoint) units.Watt {
	var fixed, sw units.Watt
	if op.State >= vr.PS1 {
		fixed = p.PControlLight
		sw = p.KSwitch * op.Vin * op.Vin / p.LightSwitchDiv
		if op.State >= vr.PS3 {
			sw /= 4
			fixed /= 2
		}
	} else {
		fixed = p.PControl
		sw = p.KSwitch * op.Vin * op.Vin
	}
	n := 1
	if op.State < vr.PS1 {
		n = int(math.Ceil(op.Iout / p.PhaseCurrent))
		if n < 1 {
			n = 1
		}
		if n > p.MaxPhases {
			n = p.MaxPhases
		}
	}
	rEff := p.RSeries / float64(n)
	ovl := p.KOverlap * op.Vin * op.Iout
	duty := 0.0
	if op.Vin > 0 {
		duty = units.Clamp(op.Vout/op.Vin, 0, 1)
	}
	dt := p.VDeadTime * (1 - duty) * op.Iout
	drv := p.KDriver * op.Iout
	cond := rEff * op.Iout * op.Iout
	const maxDuty, headK = 0.85, 0.25
	var head units.Watt
	if duty > maxDuty {
		head = headK * op.Vout * op.Iout * (duty - maxDuty) / (1 - maxDuty)
	}
	return fixed + sw + ovl + dt + drv + cond + head
}

// refBuckEfficiency is Pout/(Pout+Ploss), floored at the part's EtaFloor.
func refBuckEfficiency(b *vr.Buck, op vr.OperatingPoint) float64 {
	p := b.Params()
	if op.Iout <= 0 {
		return p.EtaFloor
	}
	pout := op.Vout * op.Iout
	eta := pout / (pout + refBuckLoss(p, op))
	if eta < p.EtaFloor {
		eta = p.EtaFloor
	}
	return eta
}

// refValidate checks the scenario invariants every model enforces.
func refValidate(s *pdn.Scenario) error {
	active := false
	for k := range s.Loads {
		l := s.Loads[k]
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
		return pdn.ErrNoLoad
	}
	return nil
}

type refStageOut struct {
	pin units.Watt
	ar  float64
	bd  pdn.Breakdown
}

type refRailOut struct {
	pin  units.Watt
	bd   pdn.Breakdown
	rail pdn.RailDraw
}

// refOffChip runs an off-chip buck from the supply.
func refOffChip(b *vr.Buck, psu, vout units.Volt, p units.Watt, c domain.CState) (pin, loss units.Watt) {
	if p == 0 {
		return 0, 0
	}
	iout := p / vout
	eta := refBuckEfficiency(b, vr.OperatingPoint{Vin: psu, Vout: vout, Iout: iout, State: pdn.VRStateFor(c, iout)})
	pin = p / eta
	return pin, pin - p
}

// refIVRStage is Eq. 2 + Eq. 6 per active load.
func refIVRStage(loads []pdn.Load, ivr *vr.Buck, tob, vin units.Volt, c domain.CState) refStageOut {
	var out refStageOut
	var ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		out.bd.Guardband += pgb - l.PNom
		iout := pgb / l.VNom
		eta := refBuckEfficiency(ivr, vr.OperatingPoint{Vin: vin, Vout: l.VNom, Iout: iout, State: pdn.VRStateFor(c, iout)})
		pd := pgb / eta
		out.bd.OnChipVR += pd - pgb
		out.pin += pd
		ppeak += pd / l.AR
	}
	if ppeak > 0 {
		out.ar = out.pin / ppeak
	} else {
		out.ar = 1
	}
	return out
}

// refLDOStage is Eq. 2 + Eq. 10/11 from a rail at the highest active
// voltage plus the tolerance band.
func refLDOStage(loads []pdn.Load, ldo *vr.LDO, tob units.Volt) (units.Volt, refStageOut) {
	var out refStageOut
	var vin units.Volt
	for _, l := range loads {
		if l.Active() && l.VNom > vin {
			vin = l.VNom
		}
	}
	if vin == 0 {
		out.ar = 1
		return 0, out
	}
	vin += tob
	var ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		out.bd.Guardband += pgb - l.PNom
		eta := ldo.Efficiency(vr.OperatingPoint{Vin: vin, Vout: l.VNom + tob})
		pd := pgb / eta
		out.bd.OnChipVR += pd - pgb
		out.pin += pd
		ppeak += pd / l.AR
	}
	out.ar = out.pin / ppeak
	return vin, out
}

// refVinRail carries an on-chip stage across the input load-line and the
// first-stage VR.
func refVinRail(b *vr.Buck, st refStageOut, vin units.Volt, rll units.Ohm, psu units.Volt, c domain.CState, share float64) refRailOut {
	var out refRailOut
	if st.pin == 0 {
		out.rail = pdn.RailDraw{Name: b.Name(), VOut: vin}
		return out
	}
	ll := loadline.Compensate(st.pin, vin, st.ar, rll)
	out.bd.CondCompute = ll.Loss * share
	out.bd.CondUncore = ll.Loss * (1 - share)
	pin, loss := refOffChip(b, psu, ll.V, ll.P, c)
	out.bd.OffChipVR = loss
	out.pin = pin
	out.rail = pdn.RailDraw{Name: b.Name(), VOut: ll.V, Current: ll.I, Peak: st.pin / st.ar / vin}
	return out
}

// refBoardRail is the one-stage motherboard rail of Eq. 2–5.
func refBoardRail(b *vr.Buck, loads []pdn.Load, tob units.Volt, rpg, rll units.Ohm, psu units.Volt, c domain.CState, compute bool) refRailOut {
	var out refRailOut
	var railV units.Volt
	for _, l := range loads {
		if l.Active() && l.VNom > railV {
			railV = l.VNom
		}
	}
	if railV == 0 {
		out.rail = pdn.RailDraw{Name: b.Name()}
		return out
	}
	var sum, ppeak units.Watt
	for _, l := range loads {
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, tob, l.FL)
		if l.VNom < railV {
			pgb = loadline.ApplyGuardband(pgb, l.VNom+tob, railV-l.VNom, l.FL)
		}
		out.bd.Guardband += pgb - l.PNom
		ppg := loadline.ApplyPowerGate(pgb, railV+tob, l.AR, l.FL, rpg)
		out.bd.PowerGate += ppg - pgb
		sum += ppg
		ppeak += ppg / l.AR
	}
	ar := sum / ppeak
	ll := loadline.Compensate(sum, railV+tob, ar, rll)
	if compute {
		out.bd.CondCompute = ll.Loss
	} else {
		out.bd.CondUncore = ll.Loss
	}
	pin, loss := refOffChip(b, psu, ll.V, ll.P, c)
	out.bd.OffChipVR = loss
	out.pin = pin
	out.rail = pdn.RailDraw{Name: b.Name(), VOut: ll.V, Current: ll.I, Peak: sum / ar / (railV + tob)}
	return out
}

func refFinish(kind pdn.Kind, pnom, pin units.Watt, bd pdn.Breakdown, rails []pdn.RailDraw, railR units.Ohm) pdn.Result {
	r := pdn.Result{PDN: kind, PNomTotal: pnom, PIn: pin, ETEE: pnom / pin, Breakdown: bd, ComputeRailR: railR}
	for _, rd := range rails {
		r.ChipInputCurrent += rd.Current
		r.Rails.Append(rd)
	}
	return r
}

// refPDN holds one parameter set's regulators.
type refPDN struct {
	p                            pdn.Params
	ivr, vin, cores, gfx, sa, io *vr.Buck
	ldo                          *vr.LDO
}

func newRefPDN(p pdn.Params) *refPDN {
	return &refPDN{
		p:     p,
		ivr:   vr.NewIVR("IVR", p.IVRIccmax),
		ldo:   vr.NewPlatformLDO("LDO", p.IVRIccmax),
		vin:   vr.NewVinVR(p.VINIccmax),
		cores: vr.NewBoardVR("V_Cores", p.CoresIccmax),
		gfx:   vr.NewBoardVR("V_GFX", p.GfxIccmax),
		sa:    vr.NewSmallRailVR("V_SA", p.SAIccmax),
		io:    vr.NewSmallRailVR("V_IO", p.IOIccmax),
	}
}

// evaluate is the reference for Evaluate (baselines) and EvaluateMode
// (FlexWatts, in the given mode).
func (m *refPDN) evaluate(kind pdn.Kind, mode core.Mode, s pdn.Scenario) (pdn.Result, error) {
	if err := refValidate(&s); err != nil {
		return pdn.Result{}, err
	}
	p := m.p
	L := s.Loads
	compute := []pdn.Load{L[domain.Core0], L[domain.Core1], L[domain.LLC], L[domain.GFX]}
	var total units.Watt
	for k := range L {
		total += L[k].PNom
	}
	// withUncore finishes the stage-plus-V_IN-rail PDNs (LDO, I+MBVR,
	// FlexWatts): the compute rail when the stage draws power, then the
	// dedicated SA and IO board rails.
	withUncore := func(st refStageOut, vinLevel units.Volt, rll units.Ohm, tobUncore units.Volt) (units.Watt, pdn.Breakdown, []pdn.RailDraw) {
		var pin units.Watt
		var bd pdn.Breakdown
		var rails []pdn.RailDraw
		if st.pin > 0 {
			rail := refVinRail(m.vin, st, vinLevel, rll, p.PSU, s.CState, 1)
			pin += rail.pin
			bd.Add(st.bd)
			bd.Add(rail.bd)
			rails = append(rails, rail.rail)
		}
		sa := refBoardRail(m.sa, []pdn.Load{L[domain.SA]}, tobUncore, p.RPG, p.SALL, p.PSU, s.CState, false)
		io := refBoardRail(m.io, []pdn.Load{L[domain.IO]}, tobUncore, p.RPG, p.IOLL, p.PSU, s.CState, false)
		pin += sa.pin + io.pin
		bd.Add(sa.bd)
		bd.Add(io.bd)
		return pin, bd, append(rails, sa.rail, io.rail)
	}
	switch kind {
	case pdn.IVR:
		var computeP units.Watt
		for k := range L {
			if domain.Kind(k).IsCompute() {
				computeP += L[k].PNom
			}
		}
		st := refIVRStage(L[:], m.ivr, p.TOBIVR, p.VINLevel, s.CState)
		share := 1.0
		if total > 0 {
			share = computeP / total
		}
		rail := refVinRail(m.vin, st, p.VINLevel, p.IVRInLL, p.PSU, s.CState, share)
		bd := st.bd
		bd.Add(rail.bd)
		return refFinish(pdn.IVR, total, rail.pin, bd, []pdn.RailDraw{rail.rail}, p.IVRInLL), nil
	case pdn.MBVR:
		var pin units.Watt
		var bd pdn.Breakdown
		var rails []pdn.RailDraw
		for _, out := range []refRailOut{
			refBoardRail(m.cores, []pdn.Load{L[domain.Core0], L[domain.Core1]}, p.TOBMBVR, p.RPG, p.CoresLL, p.PSU, s.CState, true),
			refBoardRail(m.gfx, []pdn.Load{L[domain.GFX], L[domain.LLC]}, p.TOBMBVR, p.RPG, p.GfxLL, p.PSU, s.CState, true),
			refBoardRail(m.sa, []pdn.Load{L[domain.SA]}, p.TOBMBVR, p.RPG, p.SALL, p.PSU, s.CState, false),
			refBoardRail(m.io, []pdn.Load{L[domain.IO]}, p.TOBMBVR, p.RPG, p.IOLL, p.PSU, s.CState, false),
		} {
			pin += out.pin
			bd.Add(out.bd)
			rails = append(rails, out.rail)
		}
		return refFinish(pdn.MBVR, total, pin, bd, rails, p.CoresLL), nil
	case pdn.LDO:
		vinLevel, st := refLDOStage(compute, m.ldo, p.TOBLDO)
		pin, bd, rails := withUncore(st, vinLevel, p.LDOInLL, p.TOBLDO)
		return refFinish(pdn.LDO, total, pin, bd, rails, p.LDOInLL), nil
	case pdn.IMBVR:
		st := refIVRStage(compute, m.ivr, p.TOBIVR, p.VINLevel, s.CState)
		pin, bd, rails := withUncore(st, p.VINLevel, p.IVRInLL, p.TOBMBVR)
		return refFinish(pdn.IMBVR, total, pin, bd, rails, p.IVRInLL), nil
	case pdn.FlexWatts:
		var st refStageOut
		var vinLevel units.Volt
		var rll units.Ohm
		switch mode {
		case core.IVRMode:
			vinLevel = p.VINLevel
			st = refIVRStage(compute, m.ivr, p.TOBIVR, vinLevel, s.CState)
			rll = p.IVRInLL * p.FlexSharePenalty
		case core.LDOMode:
			vinLevel, st = refLDOStage(compute, m.ldo, p.TOBLDO)
			rll = p.LDOInLL * p.FlexSharePenalty
		default:
			return pdn.Result{}, fmt.Errorf("core: unknown mode %v", mode)
		}
		pin, bd, rails := withUncore(st, vinLevel, rll, p.TOBLDO)
		return refFinish(pdn.FlexWatts, total, pin, bd, rails, rll), nil
	}
	return pdn.Result{}, fmt.Errorf("reference: no model for %v", kind)
}

// sameBits reports whether two results carry identical float64 bits in
// every observable field.
func sameBits(a, b pdn.Result) bool {
	f := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.PDN != b.PDN || a.Rails.Len() != b.Rails.Len() {
		return false
	}
	for i := 0; i < a.Rails.Len(); i++ {
		x, y := a.Rails.At(i), b.Rails.At(i)
		if x.Name != y.Name || !f(x.VOut, y.VOut) || !f(x.Current, y.Current) || !f(x.Peak, y.Peak) {
			return false
		}
	}
	ab, bb := a.Breakdown, b.Breakdown
	return f(a.PNomTotal, b.PNomTotal) && f(a.PIn, b.PIn) && f(a.ETEE, b.ETEE) &&
		f(a.ChipInputCurrent, b.ChipInputCurrent) && f(a.ComputeRailR, b.ComputeRailR) &&
		f(ab.Guardband, bb.Guardband) && f(ab.PowerGate, bb.PowerGate) && f(ab.OnChipVR, bb.OnChipVR) &&
		f(ab.OffChipVR, bb.OffChipVR) && f(ab.CondCompute, bb.CondCompute) && f(ab.CondUncore, bb.CondUncore)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// refTarget is one model under test: a baseline kind, or FlexWatts pinned
// to a mode.
type refTarget struct {
	kind pdn.Kind
	mode core.Mode
}

func (t refTarget) String() string {
	if t.kind == pdn.FlexWatts {
		return t.mode.String()
	}
	return t.kind.String()
}

func refTargets() []refTarget {
	var ts []refTarget
	for _, k := range pdn.Kinds() {
		ts = append(ts, refTarget{kind: k})
	}
	for _, m := range core.Modes() {
		ts = append(ts, refTarget{kind: pdn.FlexWatts, mode: m})
	}
	return ts
}

// refModels are the models under test for one parameter set.
type refModels struct {
	base map[pdn.Kind]pdn.Model
	flex *core.Model
	ref  *refPDN
}

func newRefModels(tb testing.TB, p pdn.Params) *refModels {
	tb.Helper()
	m := &refModels{base: map[pdn.Kind]pdn.Model{}, flex: core.NewModel(p), ref: newRefPDN(p)}
	for _, k := range pdn.Kinds() {
		bm, err := pdn.New(k, p)
		if err != nil {
			tb.Fatal(err)
		}
		m.base[k] = bm
	}
	return m
}

// evaluate runs Evaluate or EvaluateMode on one point.
func (m *refModels) evaluate(t refTarget, s pdn.Scenario) (pdn.Result, error) {
	if t.kind == pdn.FlexWatts {
		return m.flex.EvaluateMode(s, t.mode)
	}
	return m.base[t.kind].Evaluate(s)
}

// evaluateGrid runs EvaluateGrid or EvaluateGridMode on a grid.
func (m *refModels) evaluateGrid(t refTarget, g *pdn.Grid, out []pdn.Result) error {
	if t.kind == pdn.FlexWatts {
		return m.flex.EvaluateGridMode(g, out, t.mode)
	}
	return m.base[t.kind].(interface {
		EvaluateGrid(*pdn.Grid, []pdn.Result) error
	}).EvaluateGrid(g, out)
}

// checkPoint compares one point's Evaluate/EvaluateMode with the
// reference.
func (m *refModels) checkPoint(tb testing.TB, t refTarget, s pdn.Scenario) {
	tb.Helper()
	got, gerr := m.evaluate(t, s)
	want, werr := m.ref.evaluate(t.kind, t.mode, s)
	if errText(gerr) != errText(werr) {
		tb.Fatalf("%v on %+v: error %q, reference %q", t, s, errText(gerr), errText(werr))
	}
	if !sameBits(got, want) {
		tb.Fatalf("%v on %+v: result differs from the reference\n got:  %+v\n want: %+v", t, s, got, want)
	}
}

// checkGrid compares a grid run with the reference point by point: every
// point before the first invalid one carries the reference bits, and the
// run fails there with the reference error wrapped by its index.
func (m *refModels) checkGrid(tb testing.TB, t refTarget, points []pdn.Scenario) {
	tb.Helper()
	g := pdn.GridOf(points)
	out := make([]pdn.Result, len(points))
	err := m.evaluateGrid(t, g, out)
	for i, s := range points {
		want, werr := m.ref.evaluate(t.kind, t.mode, s)
		if werr != nil {
			if wantText := fmt.Sprintf("pdn: grid point %d: %v", i, werr); errText(err) != wantText {
				tb.Fatalf("%v grid: error %q, want %q", t, errText(err), wantText)
			}
			return
		}
		if !sameBits(out[i], want) {
			tb.Fatalf("%v grid point %d: result differs from the reference\n got:  %+v\n want: %+v", t, i, out[i], want)
		}
		if got, _ := m.evaluate(t, s); !sameBits(out[i], got) {
			tb.Fatalf("%v grid point %d: result differs from per-point evaluation", t, i)
		}
	}
	if err != nil {
		tb.Fatalf("%v grid: unexpected error %v", t, err)
	}
}

// refPSUs are the supply voltages the reference tests sweep: the default
// 7.2 V battery and two adapter-class inputs.
var refPSUs = []units.Volt{7.2, 12, 19.5}

func refParams(psu units.Volt) pdn.Params {
	p := pdn.DefaultParams()
	p.PSU = psu
	return p
}

// randomLoad draws one domain load: idle a quarter of the time, otherwise
// a power spanning light-load VR states to multi-phase currents, with
// voltages on both sides of the neighbouring domains' (LDO bypass and
// regulation, rail over-volting).
func randomLoad(rng *rand.Rand) pdn.Load {
	if rng.Intn(4) == 0 {
		return pdn.Load{}
	}
	ar := 0.05 + 0.95*rng.Float64()
	if rng.Intn(8) == 0 {
		ar = 1
	}
	return pdn.Load{
		PNom: math.Exp(math.Log(0.005) + rng.Float64()*math.Log(25/0.005)),
		VNom: 0.5 + 0.8*rng.Float64(),
		FL:   0.6 * rng.Float64(),
		AR:   ar,
	}
}

// randomScenario draws a scenario over every C-state; about one in forty
// is invalid in one of the ways Validate rejects.
func randomScenario(rng *rand.Rand) pdn.Scenario {
	cs := domain.CStates()
	s := pdn.NewScenario()
	s.CState = cs[rng.Intn(len(cs))]
	for k := range s.Loads {
		s.Loads[k] = randomLoad(rng)
	}
	if rng.Intn(40) == 0 {
		k := domain.Kind(rng.Intn(int(domain.NumKinds)))
		s.Loads[k] = pdn.Load{PNom: 1, VNom: 0.8, FL: 0.2, AR: 0.5}
		switch rng.Intn(5) {
		case 0:
			s.Loads[k].AR = 1.5
		case 1:
			s.Loads[k].FL = -0.1
		case 2:
			s.Loads[k].VNom = 0
		case 3:
			s.Loads[k].PNom = -1
		default:
			s.Loads = [domain.NumKinds]pdn.Load{}
		}
	}
	return s
}

// TestFrozenReference pins Evaluate and EvaluateMode to the reference on
// seeded random scenarios — every kind, both modes, every C-state, three
// supply voltages — plus the workload scenarios the experiments evaluate.
func TestFrozenReference(t *testing.T) {
	e := benchEnv(t)
	rng := rand.New(rand.NewSource(14))
	const perPSU = 3400
	n := 0
	for _, psu := range refPSUs {
		m := newRefModels(t, refParams(psu))
		var points []pdn.Scenario
		for i := 0; i < perPSU; i++ {
			points = append(points, randomScenario(rng))
		}
		for _, wt := range workload.Types() {
			for _, tdp := range domain.StandardTDPs() {
				s, err := workload.TDPScenario(e.Platform, tdp, wt, 0.6)
				if err != nil {
					t.Fatal(err)
				}
				points = append(points, s)
			}
		}
		for _, c := range domain.CStates() {
			points = append(points, workload.CStateScenario(e.Platform, c))
		}
		for _, s := range points {
			for _, tg := range refTargets() {
				m.checkPoint(t, tg, s)
			}
		}
		n += len(points)
	}
	if n < 10000 {
		t.Fatalf("only %d scenarios checked", n)
	}
	// An unknown hybrid mode is rejected after validation, with the
	// reference's error.
	m := newRefModels(t, pdn.DefaultParams())
	m.checkPoint(t, refTarget{kind: pdn.FlexWatts, mode: core.Mode(7)}, workload.CStateScenario(e.Platform, domain.C2))
}

// TestFrozenReferenceGrids pins EvaluateGrid and EvaluateGridMode to the
// reference on the grids the memos see: AR-innermost sweeps (on-chip
// stage memo hits), the same points shuffled (mostly misses), C-state runs
// at fixed loads, and grids stopped by an invalid point.
func TestFrozenReferenceGrids(t *testing.T) {
	e := benchEnv(t)
	rng := rand.New(rand.NewSource(41))
	var swept []pdn.Scenario
	for _, wt := range workload.Types() {
		for tdp := 4.0; tdp <= 50; tdp += 3.5 {
			for ar := 0.2; ar <= 1; ar += 0.1 {
				s, err := workload.TDPScenario(e.Platform, tdp, wt, ar)
				if err != nil {
					t.Fatal(err)
				}
				swept = append(swept, s)
			}
		}
	}
	// Random bases with AR-only variants, exact repeats and C-state steps.
	var varied []pdn.Scenario
	for len(varied) < 1500 {
		s := randomScenario(rng)
		if s.Loads == ([domain.NumKinds]pdn.Load{}) {
			continue
		}
		for j := 0; j < 6; j++ {
			v := s
			switch rng.Intn(3) {
			case 0:
				k := rng.Intn(int(domain.NumKinds))
				v.Loads[k].AR = 0.05 + 0.95*rng.Float64()
			case 1:
				v.CState = domain.CStates()[rng.Intn(7)]
			}
			if refValidate(&v) == nil {
				varied = append(varied, v)
				s = v
			}
		}
	}
	shuffled := append([]pdn.Scenario(nil), swept...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var ladder []pdn.Scenario
	for _, s := range swept[:40] {
		for _, c := range domain.CStates() {
			s.CState = c
			ladder = append(ladder, s)
		}
	}
	bad := swept[:30:30]
	bad = append(bad, swept[30])
	bad[30].Loads[domain.Core0].AR = 1.5
	bad = append(bad, swept[31:40]...)

	for _, psu := range []units.Volt{7.2, 19.5} {
		m := newRefModels(t, refParams(psu))
		for _, tg := range refTargets() {
			for _, grid := range [][]pdn.Scenario{swept, varied, shuffled, ladder, bad} {
				m.checkGrid(t, tg, grid)
			}
		}
	}
}

// TestBuckReferenceLoss pins vr.Buck's exported Loss and Efficiency to the
// reference loss formula on every catalog part.
func TestBuckReferenceLoss(t *testing.T) {
	for _, b := range []*vr.Buck{vr.NewVinVR(45), vr.NewBoardVR("V_Cores", 60), vr.NewSmallRailVR("V_SA", 6), vr.NewIVR("IVR", 45)} {
		for _, vin := range []units.Volt{0, 1.05, 1.8, 7.2, 19.5} {
			for ps := vr.PS0; ps <= vr.PS4; ps++ {
				for vout := units.Volt(0); vout <= 1.9; vout += 0.07 {
					for iout := units.Amp(-0.5); iout < 70; iout = iout*1.6 + 0.6 {
						op := vr.OperatingPoint{Vin: vin, Vout: vout, Iout: iout, State: ps}
						if got, want := b.Loss(op), refBuckLoss(b.Params(), op); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s Loss(%+v) = %g, reference %g", b.Name(), op, got, want)
						}
						if got, want := b.Efficiency(op), refBuckEfficiency(b, op); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s Efficiency(%+v) = %g, reference %g", b.Name(), op, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClientPSU pins the supply voltage end to end: a client built with a
// 19.5 V supply evaluates through it (a different input power from the
// 7.2 V default) and matches the reference at 19.5 V.
func TestClientPSU(t *testing.T) {
	pt := flexwatts.Point{PDN: flexwatts.MBVR, TDP: 15, Workload: flexwatts.MultiThread, AR: 0.6}
	def, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	p := flexwatts.DefaultParams()
	p.PSU = 19.5
	hi, err := flexwatts.NewClient(flexwatts.WithParams(p))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := def.Evaluate(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := hi.Evaluate(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if rd.PIn == rh.PIn {
		t.Fatalf("PIn %g at both 7.2 V and 19.5 V: the supply voltage is ignored", float64(rd.PIn))
	}
	s, err := workload.TDPScenario(benchEnv(t).Platform, 15, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := newRefPDN(refParams(19.5)).evaluate(pdn.MBVR, core.IVRMode, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(float64(rh.PIn)) != math.Float64bits(want.PIn) {
		t.Errorf("PIn at 19.5 V = %g, reference %g", float64(rh.PIn), want.PIn)
	}
}

// FuzzEvaluateGrid drives the grid memos with arbitrary runs: a base
// scenario decoded from the input, then AR-only variants, exact repeats,
// C-state changes and load changes. EvaluateGrid/EvaluateGridMode must
// match per-point Evaluate/EvaluateMode and the reference in bits and in
// error text.
//
// Input layout: byte 0 picks the model (four baselines, two hybrid
// modes), byte 1 the supply voltage, byte 2 the base C-state, the next 24
// bytes one (PNom, VNom, FL, AR) quadruple per domain, and every further
// byte pair one step (op, value).
func FuzzEvaluateGrid(f *testing.F) {
	models := map[units.Volt]*refModels{}
	for _, psu := range refPSUs {
		models[psu] = newRefModels(f, refParams(psu))
	}
	seed := []byte{0, 0, 0}
	for k := 0; k < int(domain.NumKinds); k++ {
		seed = append(seed, 40, 100, 60, 150)
	}
	for tg := byte(0); tg < 6; tg++ {
		in := append([]byte(nil), seed...)
		in[0], in[1] = tg, tg%3
		f.Add(append(in, 0, 90, 0, 200, 1, 0, 2, 3, 0, 17, 3, 5, 1, 0, 0, 254))
	}
	f.Add(append(append([]byte(nil), seed...), 0, 255, 0, 0)) // AR out of (0,1] mid-run
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 3 + 4*int(domain.NumKinds)
		if len(data) < header {
			return
		}
		tg := refTargets()[int(data[0])%6]
		m := models[refPSUs[int(data[1])%len(refPSUs)]]
		cs := domain.CStates()
		s := pdn.NewScenario()
		s.CState = cs[int(data[2])%len(cs)]
		for k := range s.Loads {
			q := data[3+4*k:]
			s.Loads[k] = pdn.Load{
				PNom: float64(q[0]) / 8,
				VNom: 0.4 + float64(q[1])/255,
				FL:   float64(q[2]) / 255,
				AR:   float64(q[3]) / 254, // 0 and 255 fall outside (0,1]
			}
		}
		points := []pdn.Scenario{s}
		for ops := data[header:]; len(ops) >= 2 && len(points) < 64; ops = ops[2:] {
			op, v := ops[0], ops[1]
			k := int(op>>2) % int(domain.NumKinds)
			switch op % 4 {
			case 0: // AR-only variant
				s.Loads[k].AR = float64(v) / 254
			case 1: // exact repeat
			case 2:
				s.CState = cs[int(v)%len(cs)]
			case 3:
				s.Loads[k].PNom = float64(v) / 8
			}
			points = append(points, s)
		}
		m.checkGrid(t, tg, points)
	})
}
