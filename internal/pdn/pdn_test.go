package pdn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/domain"
	"repro/internal/units"
)

func testModels(t *testing.T) (map[Kind]Model, *domain.Platform) {
	t.Helper()
	p := DefaultParams()
	plat := domain.NewClientPlatform()
	models := make(map[Kind]Model, 4)
	for _, k := range Kinds() {
		m, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		models[k] = m
	}
	return models, plat
}

// activeScenario returns a representative multi-threaded scenario.
func activeScenario(coreP units.Watt, coreV units.Volt, ar float64) Scenario {
	s := NewScenario()
	mk := func(k domain.Kind, p units.Watt, v units.Volt, fl float64) {
		s.Loads[k] = Load{PNom: p, VNom: v, FL: fl, AR: ar}
	}
	mk(domain.Core0, coreP/2, coreV, 0.22)
	mk(domain.Core1, coreP/2, coreV, 0.22)
	mk(domain.LLC, coreP/6, coreV, 0.22)
	mk(domain.GFX, 0, 0, 0)
	mk(domain.SA, 0.8, 0.85, 0.22)
	mk(domain.IO, 0.45, 1.05, 0.22)
	return s
}

func TestEvaluateBasics(t *testing.T) {
	models, _ := testModels(t)
	s := activeScenario(3, 0.7, 0.6)
	for k, m := range models {
		r, err := m.Evaluate(s)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !(r.ETEE > 0 && r.ETEE < 1) {
			t.Errorf("%v: ETEE %g outside (0,1)", k, r.ETEE)
		}
		if r.PIn <= r.PNomTotal {
			t.Errorf("%v: input power %g must exceed nominal %g", k, r.PIn, r.PNomTotal)
		}
		if r.PDN != k {
			t.Errorf("%v: result tagged %v", k, r.PDN)
		}
		if r.Rails.Len() == 0 {
			t.Errorf("%v: no rails reported", k)
		}
		// The breakdown must account for the whole loss.
		loss := r.PIn - r.PNomTotal
		if !units.ApproxEqual(r.Breakdown.Total(), loss, 0.01) {
			t.Errorf("%v: breakdown total %g != loss %g", k, r.Breakdown.Total(), loss)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	models, _ := testModels(t)
	m := models[IVR]

	empty := NewScenario()
	if _, err := m.Evaluate(empty); !errors.Is(err, ErrNoLoad) {
		t.Errorf("empty scenario: got %v, want ErrNoLoad", err)
	}

	s := activeScenario(3, 0.7, 0.6)
	s.Loads[domain.Core0].AR = 0
	if _, err := m.Evaluate(s); err == nil {
		t.Error("zero AR accepted")
	}

	s = activeScenario(3, 0.7, 0.6)
	l := s.Loads[domain.Core0]
	l.AR = 1.5
	s.Loads[domain.Core0] = l
	if _, err := m.Evaluate(s); err == nil {
		t.Error("AR > 1 accepted")
	}

	s = activeScenario(3, 0.7, 0.6)
	l = s.Loads[domain.Core0]
	l.VNom = 0
	s.Loads[domain.Core0] = l
	if _, err := m.Evaluate(s); err == nil {
		t.Error("active load with zero voltage accepted")
	}

	s = activeScenario(3, 0.7, 0.6)
	l = s.Loads[domain.Core0]
	l.PNom = -1
	s.Loads[domain.Core0] = l
	if _, err := m.Evaluate(s); err == nil {
		t.Error("negative power accepted")
	}

	s = activeScenario(3, 0.7, 0.6)
	l = s.Loads[domain.Core0]
	l.FL = 1.5
	s.Loads[domain.Core0] = l
	if _, err := m.Evaluate(s); err == nil {
		t.Error("FL > 1 accepted")
	}
}

func TestIVRWorstAtLightLoad(t *testing.T) {
	// Observation 1/3: the two-stage IVR PDN loses at light load to both
	// single-stage PDNs.
	models, _ := testModels(t)
	s := activeScenario(1.2, 0.58, 0.5)
	ri, _ := models[IVR].Evaluate(s)
	rm, _ := models[MBVR].Evaluate(s)
	rl, _ := models[LDO].Evaluate(s)
	if !(ri.ETEE < rm.ETEE && ri.ETEE < rl.ETEE) {
		t.Errorf("light load: IVR %.3f should trail MBVR %.3f and LDO %.3f",
			ri.ETEE, rm.ETEE, rl.ETEE)
	}
}

func TestIVRBestAtHeavyLoad(t *testing.T) {
	// Observation 1: at high power the IVR PDN overtakes MBVR and LDO.
	models, _ := testModels(t)
	s := activeScenario(28, 1.1, 0.6)
	ri, _ := models[IVR].Evaluate(s)
	rm, _ := models[MBVR].Evaluate(s)
	rl, _ := models[LDO].Evaluate(s)
	if !(ri.ETEE > rm.ETEE && ri.ETEE > rl.ETEE) {
		t.Errorf("heavy load: IVR %.3f should beat MBVR %.3f and LDO %.3f",
			ri.ETEE, rm.ETEE, rl.ETEE)
	}
}

func TestChipInputCurrentOrdering(t *testing.T) {
	// Fig 5: the IVR PDN's 1.8V input rail roughly halves chip input
	// current versus the low-voltage PDNs.
	models, _ := testModels(t)
	s := activeScenario(12, 0.9, 0.6)
	ri, _ := models[IVR].Evaluate(s)
	rm, _ := models[MBVR].Evaluate(s)
	rl, _ := models[LDO].Evaluate(s)
	if !(rm.ChipInputCurrent > 1.6*ri.ChipInputCurrent) {
		t.Errorf("MBVR current %.1fA should be ~2x IVR's %.1fA", rm.ChipInputCurrent, ri.ChipInputCurrent)
	}
	if !(rl.ChipInputCurrent > 1.6*ri.ChipInputCurrent) {
		t.Errorf("LDO current %.1fA should be ~2x IVR's %.1fA", rl.ChipInputCurrent, ri.ChipInputCurrent)
	}
}

func TestARRaisesETEE(t *testing.T) {
	// Observation 2: at fixed nominal power, higher AR means lower peak
	// current guardband, so MBVR/LDO ETEE rises with AR.
	models, _ := testModels(t)
	for _, k := range []Kind{MBVR, LDO} {
		prev := 0.0
		for _, ar := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
			s := activeScenario(12, 0.9, ar)
			r, err := models[k].Evaluate(s)
			if err != nil {
				t.Fatal(err)
			}
			if r.ETEE <= prev {
				t.Errorf("%v: ETEE %.4f at AR %.1f not above %.4f", k, r.ETEE, ar, prev)
			}
			prev = r.ETEE
		}
	}
}

func TestIdleCStateScenarios(t *testing.T) {
	// Observation 3: in package idle states the IVR PDN pays its two-stage
	// losses while the others use efficient small rails.
	models, _ := testModels(t)
	for _, c := range domain.IdleCStates() {
		s := NewScenario()
		s.CState = c
		s.Loads[domain.SA] = Load{PNom: 0.3, VNom: 0.85, FL: 0.22, AR: 0.8}
		s.Loads[domain.IO] = Load{PNom: 0.2, VNom: 1.05, FL: 0.22, AR: 0.8}
		ri, err := models[IVR].Evaluate(s)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		rm, _ := models[MBVR].Evaluate(s)
		if !(ri.ETEE < rm.ETEE) {
			t.Errorf("%v: IVR %.3f should trail MBVR %.3f", c, ri.ETEE, rm.ETEE)
		}
	}
}

func TestEvaluateProperty(t *testing.T) {
	// Property: any valid scenario yields a finite result with ETEE in
	// (0,1) and a breakdown that accounts for the loss.
	models, _ := testModels(t)
	f := func(pRaw, vRaw, arRaw float64, idleGfx bool) bool {
		p := 0.2 + math.Mod(math.Abs(pRaw), 30)
		v := 0.55 + math.Mod(math.Abs(vRaw), 0.55)
		ar := 0.15 + math.Mod(math.Abs(arRaw), 0.85)
		s := activeScenario(p, v, ar)
		if !idleGfx {
			s.Loads[domain.GFX] = Load{PNom: p / 3, VNom: v, FL: 0.45, AR: ar}
		}
		for _, m := range models {
			r, err := m.Evaluate(s)
			if err != nil {
				return false
			}
			if math.IsNaN(r.PIn) || math.IsInf(r.PIn, 0) {
				return false
			}
			if !(r.ETEE > 0 && r.ETEE < 1) {
				return false
			}
			if !units.ApproxEqual(r.Breakdown.Total(), r.PIn-r.PNomTotal, 0.01) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVRStateFor(t *testing.T) {
	cases := []struct {
		c    domain.CState
		iout units.Amp
		want string
	}{
		{domain.C0, 5, "PS0"},
		{domain.C0, 0.3, "PS1"},
		{domain.C2, 10, "PS1"},
		{domain.C6, 10, "PS3"},
		{domain.C8, 10, "PS4"},
	}
	for _, c := range cases {
		if got := VRStateFor(c.c, c.iout).String(); got != c.want {
			t.Errorf("VRStateFor(%v, %g) = %s, want %s", c.c, c.iout, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if IVR.String() != "IVR" || IMBVR.String() != "I+MBVR" || FlexWatts.String() != "FlexWatts" {
		t.Error("Kind.String mismatch")
	}
	if len(Kinds()) != 4 || len(AllKinds()) != 5 {
		t.Error("kind list sizes")
	}
	if _, err := New(FlexWatts, DefaultParams()); err == nil {
		t.Error("New(FlexWatts) should fail (lives in internal/core)")
	}
}

func TestBuildScenarioPhysics(t *testing.T) {
	plat := domain.NewClientPlatform()
	op := OperatingPoint{
		CState: domain.C0, Tj: 80, ActiveCores: 2,
		CoreFreq: units.GigaHertz(0.9), CoreAR: 0.56,
	}
	s := BuildScenario(plat, op)
	// §3.3: at the 4W operating point the domains' total nominal power is
	// approximately 3W.
	total := s.TotalNominal()
	if total < 2.4 || total > 3.6 {
		t.Errorf("4W-point nominal = %.2fW, want ~3W", total)
	}
	// Single-threaded gates the second core.
	op.ActiveCores = 1
	s = BuildScenario(plat, op)
	if s.Loads[domain.Core1].Active() {
		t.Error("ST scenario should gate core1")
	}
	// Idle states power only SA/IO.
	op = OperatingPoint{CState: domain.C8, Tj: 50}
	s = BuildScenario(plat, op)
	for _, k := range domain.ComputeKinds() {
		if s.Loads[k].Active() {
			t.Errorf("C8 scenario should gate %v", k)
		}
	}
	if !s.Loads[domain.SA].Active() || !s.Loads[domain.IO].Active() {
		t.Error("SA/IO must stay powered in C8")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := ParseKind("flexwatts"); err != nil || got != FlexWatts {
		t.Errorf("ParseKind is not case-insensitive: %v, %v", got, err)
	}
	if got, err := ParseKind("IMBVR"); err != nil || got != IMBVR {
		t.Errorf("ParseKind(IMBVR) = %v, %v", got, err)
	}
	if _, err := ParseKind("XVR"); err == nil {
		t.Error("ParseKind accepted an unknown kind")
	}
}
