package pdn

import (
	"math"
	"testing"

	"repro/internal/domain"
	"repro/internal/units"
	"repro/internal/vr"
)

// computeScenario loads the compute domains: two cores and the LLC at v,
// graphics idle.
func computeScenario(p units.Watt, v units.Volt, ar float64) Scenario {
	s := NewScenario()
	s.Loads[domain.Core0] = Load{PNom: p / 2, VNom: v, FL: 0.22, AR: ar}
	s.Loads[domain.Core1] = Load{PNom: p / 2, VNom: v, FL: 0.22, AR: ar}
	s.Loads[domain.LLC] = Load{PNom: p / 6, VNom: v, FL: 0.22, AR: ar}
	return s
}

func TestIVRStage(t *testing.T) {
	st := NewIVRStage(vr.NewIVR("ivr", 45), domain.ComputeKinds(), units.MilliVolt(20), 1.8)
	s := computeScenario(6, 0.8, 0.6)
	var out StageOut
	st.Eval(&s, nil, &out)
	pnom := s.TotalNominal()
	if !(out.PIn > pnom) {
		t.Errorf("stage input %g must exceed nominal %g", out.PIn, pnom)
	}
	if out.Breakdown.OnChipVR <= 0 || out.Breakdown.Guardband <= 0 {
		t.Error("stage must report guardband and VR losses")
	}
	// Uniform per-load AR propagates as the group AR.
	if math.Abs(out.AR-0.6) > 1e-9 {
		t.Errorf("group AR %g, want 0.6", out.AR)
	}
	// No active loads: zero stage.
	idle := NewScenario()
	var empty StageOut
	st.Eval(&idle, nil, &empty)
	if empty.PIn != 0 || empty.AR != 1 {
		t.Errorf("empty stage: %+v", empty)
	}
}

func TestLDOStageBypass(t *testing.T) {
	st := NewLDOStage(vr.NewPlatformLDO("ldo", 45), domain.ComputeKinds(), units.MilliVolt(17))
	// All compute domains at the same voltage: everything runs in bypass,
	// so the on-chip loss is only the tolerance band + bypass drop.
	s := computeScenario(6, 0.8, 0.6)
	var out StageOut
	vin := st.Eval(&s, nil, &out)
	if math.Abs(vin-(0.8+0.017)) > 1e-9 {
		t.Errorf("rail voltage %g, want 0.817", vin)
	}
	if pnom := s.TotalNominal(); out.Breakdown.OnChipVR > 0.02*pnom {
		t.Errorf("bypass mode should have tiny on-chip loss, got %g on %g", out.Breakdown.OnChipVR, pnom)
	}
}

func TestLDOStageRegulation(t *testing.T) {
	st := NewLDOStage(vr.NewPlatformLDO("ldo", 45), domain.ComputeKinds(), units.MilliVolt(17))
	// Cores at 0.55V under a 1.0V GFX rail: the cores pay ~45% conversion
	// loss through their LDO (§5 Observation 2's mechanism).
	s := NewScenario()
	s.Loads[domain.Core0] = Load{PNom: 2, VNom: 0.55, FL: 0.22, AR: 0.6}
	s.Loads[domain.GFX] = Load{PNom: 5, VNom: 1.0, FL: 0.45, AR: 0.6}
	var out StageOut
	vin := st.Eval(&s, nil, &out)
	if vin < 1.0 {
		t.Errorf("rail must follow the max domain voltage, got %g", vin)
	}
	// Cores' LDO loss ≈ 2W * (1 - 0.55/1.017/0.991) ≈ 0.9W.
	if out.Breakdown.OnChipVR < 0.6 {
		t.Errorf("voltage-split LDO loss %g too small", out.Breakdown.OnChipVR)
	}
	// Empty stage.
	idle := NewScenario()
	var empty StageOut
	vin = st.Eval(&idle, nil, &empty)
	if vin != 0 || empty.PIn != 0 {
		t.Error("empty LDO stage should be zero")
	}
}

func TestVinRailAttribution(t *testing.T) {
	v := newVinRail(vr.NewVinVR(45), 7.2)
	st := StageOut{PIn: 10, AR: 0.5}
	var r Result
	pin := v.eval(&st, 1.8, units.MilliOhm(1), domain.C0, 0.7, &r)
	if pin <= st.PIn {
		t.Error("rail must add loss")
	}
	// The conduction loss splits 70/30 between compute and uncore.
	total := r.Breakdown.CondCompute + r.Breakdown.CondUncore
	if total <= 0 {
		t.Fatal("no conduction loss")
	}
	if math.Abs(r.Breakdown.CondCompute/total-0.7) > 1e-9 {
		t.Errorf("compute share %.2f, want 0.70", r.Breakdown.CondCompute/total)
	}
	if rail := r.Rails.At(0); rail.Name != "V_IN" || rail.Current <= 0 || rail.Peak <= rail.Current {
		t.Errorf("rail draw %+v", rail)
	}
	// Zero stage passes through as zero.
	var zr Result
	if zero := v.eval(&StageOut{}, 1.8, units.MilliOhm(1), domain.C0, 1, &zr); zero != 0 {
		t.Error("zero stage should draw nothing")
	}
}

func TestBoardRailSharingOvervolt(t *testing.T) {
	b := vr.NewBoardVR("V_GFX", 55)
	tob := units.MilliVolt(19)
	rpg := units.MilliOhm(1.5)
	rll := units.MilliOhm(2.5)
	rail := newBoardRail(b, 7.2, []domain.Kind{domain.GFX, domain.LLC}, tob, rpg, rll, true, 0)
	gfx := Load{PNom: 5, VNom: 0.9, FL: 0.45, AR: 0.6}
	llc := Load{PNom: 1, VNom: 1.1, FL: 0.22, AR: 0.6}
	run := func(loads ...Load) (units.Watt, RailDraw) {
		s := NewScenario()
		s.Loads[domain.GFX], s.Loads[domain.LLC] = loads[0], loads[1]
		var r Result
		pin := rail.run(&s, nil, &r)
		return pin, r.Rails.At(0)
	}
	// A lone 0.9V load...
	alone, _ := run(gfx, Load{})
	// ...versus sharing the rail with a 1.1V domain: the 0.9V load gets
	// over-volted and the rail draws strictly more than the sum of parts.
	shared, sharedRail := run(gfx, llc)
	llcAlone, _ := run(Load{}, llc)
	if !(shared > alone+llcAlone-0.3) { // fixed losses amortize; overvolt dominates
		t.Errorf("sharing with a higher-voltage domain should cost: %.2f vs %.2f+%.2f",
			shared, alone, llcAlone)
	}
	if sharedRail.VOut <= 1.1 {
		t.Errorf("shared rail voltage %.3f should sit above the max domain voltage", sharedRail.VOut)
	}
	// Empty rail.
	if empty, _ := run(Load{}, Load{}); empty != 0 {
		t.Error("empty rail should draw nothing")
	}
}
