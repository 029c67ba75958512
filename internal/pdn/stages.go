package pdn

import (
	"repro/internal/domain"
	"repro/internal/loadline"
	"repro/internal/units"
	"repro/internal/vr"
)

// This file implements the reusable power-flow stages from which the four
// baseline PDN models (and FlexWatts, in internal/core) are assembled. Each
// stage follows the corresponding equations of paper §3.1. A stage is
// built once per model, with its regulators compiled at the rail voltages
// it sees (vr.BuckStates), and evaluated per point on a *Scenario.
//
// The stages accumulate into the caller's Result with the same += sequence
// per Breakdown field, the same rail order and the same pin grouping in
// every model, so a model computes one set of float64 bits per scenario
// whether it is called through Evaluate or EvaluateGrid.

// StageOut is the result of an on-chip conversion stage for a group of
// domains feeding a shared input rail.
type StageOut struct {
	// PIn is the power drawn from the shared rail (PIN in Fig 1).
	PIn units.Watt
	// AR is the group's effective application ratio (PIN / PINpeak).
	AR float64
	// Breakdown accumulates guardband and on-chip VR losses.
	Breakdown Breakdown
}

// Memo is a grid run's previous-point memo: EvaluateGrid keeps one on its
// stack and hands it to every stage; Evaluate passes nil. Two memos hit:
//
//   - the on-chip stage memo: when the stage's loads and the package state
//     equal the previous point's in everything but AR, the per-domain
//     outputs are reused and only the AR-weighted peak is recomputed (AR
//     enters nothing else);
//   - the board-rail memo: when a rail's own loads (AR included) and the
//     package state repeat — the SA/IO rails across a TDP or AR sweep — its
//     whole output is reused.
//
// Fields are compared with ==. Every reused value is what the same pure
// computation produced from equal inputs, so a hit carries the bits a miss
// would compute. The zero Memo is empty. One Memo serves one model in one
// mode.
type Memo struct {
	stage stageMemo
	rails [MaxRails]railMemo
}

// stageMemo is the on-chip stage's memo: the loads and package state it
// was computed from, the rail voltage (LDO), the active domains with
// their stage input powers, and the output without AR.
type stageMemo struct {
	valid  bool
	cstate domain.CState
	loads  [domain.NumKinds]Load
	vin    units.Volt
	nact   int
	act    [domain.NumKinds]domain.Kind
	pd     [domain.NumKinds]units.Watt
	out    StageOut
}

// hit reports whether s matches the memoized point on kinds in everything
// but AR.
func (m *stageMemo) hit(s *Scenario, kinds []domain.Kind) bool {
	if !m.valid || m.cstate != s.CState {
		return false
	}
	for _, k := range kinds {
		a, b := &s.Loads[k], &m.loads[k]
		if a.PNom != b.PNom || a.VNom != b.VNom || a.FL != b.FL {
			return false
		}
	}
	return true
}

// start records s's loads on kinds as the point being computed; the
// caller adds the active domains and finishes with the output.
func (m *stageMemo) start(s *Scenario, kinds []domain.Kind) {
	m.valid = false
	m.cstate = s.CState
	for _, k := range kinds {
		m.loads[k] = s.Loads[k]
	}
	m.nact = 0
}

func (m *stageMemo) add(k domain.Kind, pd units.Watt) {
	m.act[m.nact] = k
	m.pd[k] = pd
	m.nact++
}

// peak is the stage's AR-weighted peak input power at s, accumulated in
// domain order as the full computation does.
func (m *stageMemo) peak(s *Scenario) units.Watt {
	var ppeak units.Watt
	for _, k := range m.act[:m.nact] {
		ppeak += m.pd[k] / s.Loads[k].AR
	}
	return ppeak
}

// IVRStage is the integrated-VR conversion of a domain group (Eq. 2 and
// Eq. 6): tolerance-band guardband followed by each domain's IVR loss,
// with all IVRs fed from the vin rail. It serves all six domains in the
// IVR PDN and the compute domains in I+MBVR and FlexWatts' IVR-Mode.
type IVRStage struct {
	ivr   vr.BuckStates
	kinds []domain.Kind
	tob   units.Volt
}

// NewIVRStage compiles ivr at the vin rail for the given domains, which
// are evaluated in slice order.
func NewIVRStage(ivr *vr.Buck, kinds []domain.Kind, tob, vin units.Volt) IVRStage {
	return IVRStage{ivr: ivr.CompileStates(vin), kinds: kinds, tob: tob}
}

// Eval runs the stage on s into *out; memo is nil outside grid runs.
func (st *IVRStage) Eval(s *Scenario, memo *Memo, out *StageOut) {
	var m *stageMemo
	if memo != nil {
		m = &memo.stage
		if m.hit(s, st.kinds) {
			*out = m.out
			out.AR = ivrStageAR(out.PIn, m.peak(s))
			return
		}
		m.start(s, st.kinds)
	}
	*out = StageOut{}
	var ppeak units.Watt
	for _, k := range st.kinds {
		l := &s.Loads[k]
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, st.tob, l.FL)
		out.Breakdown.Guardband += pgb - l.PNom
		iout := pgb / l.VNom
		eta := st.ivr.Efficiency(VRStateFor(s.CState, iout), l.VNom, iout)
		pd := pgb / eta // Eq. 6
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / l.AR
		if m != nil {
			m.add(k, pd)
		}
	}
	if m != nil {
		m.out, m.valid = *out, true
	}
	out.AR = ivrStageAR(out.PIn, ppeak)
}

// ivrStageAR is the group AR PIn/ppeak, or 1 for an idle group.
func ivrStageAR(pin, ppeak units.Watt) float64 {
	if ppeak > 0 {
		return pin / ppeak
	}
	return 1
}

// LDOStage is the LDO conversion of the compute domains (Eq. 2 and Eq.
// 10/11): the shared input rail is set to the maximum domain voltage plus
// the tolerance band, the highest-voltage domain's LDO runs in bypass,
// and the others regulate down, paying the voltage-ratio efficiency. It
// serves the LDO PDN and FlexWatts' LDO-Mode.
type LDOStage struct {
	ldo   *vr.LDO
	kinds []domain.Kind
	tob   units.Volt
}

// NewLDOStage returns the stage for the given domains, evaluated in slice
// order.
func NewLDOStage(ldo *vr.LDO, kinds []domain.Kind, tob units.Volt) LDOStage {
	return LDOStage{ldo: ldo, kinds: kinds, tob: tob}
}

// Eval runs the stage on s into *out and returns the chosen rail voltage
// (0 when every domain idles); memo is nil outside grid runs.
func (st *LDOStage) Eval(s *Scenario, memo *Memo, out *StageOut) units.Volt {
	var m *stageMemo
	if memo != nil {
		m = &memo.stage
		if m.hit(s, st.kinds) {
			*out = m.out
			if m.vin == 0 {
				out.AR = 1
			} else {
				out.AR = out.PIn / m.peak(s)
			}
			return m.vin
		}
		m.start(s, st.kinds)
	}
	*out = StageOut{}
	var vin units.Volt
	for _, k := range st.kinds {
		if l := &s.Loads[k]; l.Active() && l.VNom > vin {
			vin = l.VNom
		}
	}
	if vin == 0 {
		if m != nil {
			m.vin, m.out, m.valid = 0, StageOut{}, true
		}
		out.AR = 1
		return 0
	}
	// The rail itself needs the tolerance-band margin once; domains then
	// regulate (or bypass) from the raised rail.
	vin += st.tob
	var ppeak units.Watt
	for _, k := range st.kinds {
		l := &s.Loads[k]
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, st.tob, l.FL)
		out.Breakdown.Guardband += pgb - l.PNom
		eta := st.ldo.Efficiency(vr.OperatingPoint{Vin: vin, Vout: l.VNom + st.tob})
		pd := pgb / eta // Eq. 11
		out.Breakdown.OnChipVR += pd - pgb
		out.PIn += pd
		ppeak += pd / l.AR
		if m != nil {
			m.add(k, pd)
		}
	}
	if m != nil {
		m.vin, m.out, m.valid = vin, *out, true
	}
	out.AR = out.PIn / ppeak
	return vin
}

// offChip runs an off-chip buck compiled at the supply voltage: the PSU
// draw and conversion loss for delivering p at vout, with the VR power
// state the package state selects.
func offChip(b *vr.BuckStates, vout units.Volt, p units.Watt, c domain.CState) (pin, loss units.Watt) {
	if p == 0 {
		return 0, 0
	}
	iout := p / vout
	eta := b.Efficiency(VRStateFor(c, iout), vout, iout)
	pin = p / eta
	return pin, pin - p
}

// vinRail is the shared input rail of an on-chip stage: its load-line
// (Eq. 7/8) and first-stage off-chip VR (Eq. 9/12, first term).
type vinRail struct {
	name string
	buck vr.BuckStates
}

// newVinRail compiles the first-stage VR b at the supply voltage psu.
func newVinRail(b *vr.Buck, psu units.Volt) vinRail {
	return vinRail{name: b.Name(), buck: b.CompileStates(psu)}
}

// eval carries the stage output st, delivered at vin, across the rail:
// the load-line loss (computeShare of it booked as compute conduction,
// the rest as uncore) and the VR loss accumulate into r's breakdown, the
// rail's demand is appended to r's rails, and the PSU draw is returned.
func (v *vinRail) eval(st *StageOut, vin units.Volt, rll units.Ohm, c domain.CState, computeShare float64, r *Result) units.Watt {
	if st.PIn == 0 {
		r.Rails.Append(RailDraw{Name: v.name, VOut: vin})
		return 0
	}
	ll := loadline.Compensate(st.PIn, vin, st.AR, rll)
	r.Breakdown.CondCompute += ll.Loss * computeShare
	r.Breakdown.CondUncore += ll.Loss * (1 - computeShare)
	pin, loss := offChip(&v.buck, ll.V, ll.P, c)
	r.Breakdown.OffChipVR += loss
	r.Rails.Append(RailDraw{
		Name:    v.name,
		VOut:    ll.V,
		Current: ll.I,
		Peak:    st.PIn / st.AR / vin,
	})
	return pin
}

// railOut is one board rail's contribution to a Result.
type railOut struct {
	pin  units.Watt
	bd   Breakdown
	rail RailDraw
}

// railMemo is one board rail's memo: the loads and package state of the
// memoized point and the rail's output there.
type railMemo struct {
	valid  bool
	cstate domain.CState
	loads  [domain.NumKinds]Load
	out    railOut
}

// boardRail serves a group of domains directly from a one-stage
// motherboard VR (the MBVR pattern, Eq. 2–5): per-domain tolerance
// guardband, scaling to the shared rail voltage (domains needing less
// than the rail voltage still receive it), power-gate drop compensation,
// group load-line, and the off-chip VR. compute selects which Fig 5
// conduction-loss bucket the load-line loss lands in.
type boardRail struct {
	buck     vr.BuckStates
	name     string
	kinds    []domain.Kind
	tob      units.Volt
	rpg, rll units.Ohm
	compute  bool
	slot     int // this rail's Memo.rails entry
}

// newBoardRail compiles b at the supply voltage psu for the given domains
// (evaluated in slice order); slot is the rail's memo entry, distinct per
// rail of a model.
func newBoardRail(b *vr.Buck, psu units.Volt, kinds []domain.Kind, tob units.Volt, rpg, rll units.Ohm, compute bool, slot int) boardRail {
	return boardRail{
		buck: b.CompileStates(psu), name: b.Name(), kinds: kinds,
		tob: tob, rpg: rpg, rll: rll, compute: compute, slot: slot,
	}
}

// run evaluates the rail on s, adding its losses to r's breakdown and its
// demand to r's rails, and returns its PSU draw; memo is nil outside grid
// runs.
func (b *boardRail) run(s *Scenario, memo *Memo, r *Result) units.Watt {
	var local railOut
	out := &local
	if memo != nil {
		m := &memo.rails[b.slot]
		if !m.hit(s, b.kinds) {
			m.valid, m.cstate = true, s.CState
			for _, k := range b.kinds {
				m.loads[k] = s.Loads[k]
			}
			b.eval(s, &m.out)
		}
		out = &m.out
	} else {
		b.eval(s, out)
	}
	r.Breakdown.Add(out.bd)
	r.Rails.Append(out.rail)
	return out.pin
}

// hit reports whether s repeats the memoized point on kinds.
func (m *railMemo) hit(s *Scenario, kinds []domain.Kind) bool {
	if !m.valid || m.cstate != s.CState {
		return false
	}
	for _, k := range kinds {
		if s.Loads[k] != m.loads[k] {
			return false
		}
	}
	return true
}

// eval computes the rail's output at s into *out.
func (b *boardRail) eval(s *Scenario, out *railOut) {
	*out = railOut{}
	var railV units.Volt
	for _, k := range b.kinds {
		if l := &s.Loads[k]; l.Active() && l.VNom > railV {
			railV = l.VNom
		}
	}
	if railV == 0 {
		out.rail.Name = b.name
		return
	}
	var sum, ppeak units.Watt
	for _, k := range b.kinds {
		l := &s.Loads[k]
		if !l.Active() {
			continue
		}
		pgb := loadline.ApplyGuardband(l.PNom, l.VNom, b.tob, l.FL)
		// Rail sharing: a domain whose nominal voltage is below the rail
		// voltage runs over-volted; Eq. 2 gives the power inflation.
		if l.VNom < railV {
			pgb = loadline.ApplyGuardband(pgb, l.VNom+b.tob, railV-l.VNom, l.FL)
		}
		out.bd.Guardband += pgb - l.PNom
		ppg := loadline.ApplyPowerGate(pgb, railV+b.tob, l.AR, l.FL, b.rpg)
		out.bd.PowerGate += ppg - pgb
		sum += ppg
		ppeak += ppg / l.AR
	}
	ar := sum / ppeak
	ll := loadline.Compensate(sum, railV+b.tob, ar, b.rll)
	if b.compute {
		out.bd.CondCompute = ll.Loss
	} else {
		out.bd.CondUncore = ll.Loss
	}
	out.pin, out.bd.OffChipVR = offChip(&b.buck, ll.V, ll.P, s.CState)
	out.rail = RailDraw{
		Name:    b.name,
		VOut:    ll.V,
		Current: ll.I,
		Peak:    sum / ar / (railV + b.tob),
	}
}

// StageRails are the rails behind an on-chip stage in the LDO, I+MBVR and
// FlexWatts PDNs: the stage's V_IN rail and the dedicated V_SA and V_IO
// board rails.
type StageRails struct {
	vin    vinRail
	sa, io boardRail
}

// NewStageRails compiles the rails' off-chip VRs at p.PSU; tob is the SA
// and IO rails' tolerance band.
func NewStageRails(p Params, tob units.Volt) StageRails {
	return StageRails{
		vin: newVinRail(vr.NewVinVR(p.VINIccmax), p.PSU),
		sa:  newBoardRail(vr.NewSmallRailVR("V_SA", p.SAIccmax), p.PSU, []domain.Kind{domain.SA}, tob, p.RPG, p.SALL, false, 0),
		io:  newBoardRail(vr.NewSmallRailVR("V_IO", p.IOIccmax), p.PSU, []domain.Kind{domain.IO}, tob, p.RPG, p.IOLL, false, 1),
	}
}

// Eval accumulates the rails into r and returns the total PSU draw: the
// stage's losses and its V_IN rail at vinLevel with load-line rll when the
// stage draws power, then the SA and IO rails; memo is nil outside grid
// runs.
func (sr *StageRails) Eval(st *StageOut, vinLevel units.Volt, rll units.Ohm, s *Scenario, memo *Memo, r *Result) units.Watt {
	var pin units.Watt
	if st.PIn > 0 {
		r.Breakdown.Add(st.Breakdown)
		pin += sr.vin.eval(st, vinLevel, rll, s.CState, 1, r)
	}
	saP := sr.sa.run(s, memo, r)
	ioP := sr.io.run(s, memo, r)
	return pin + (saP + ioP)
}
