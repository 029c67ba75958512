package loadline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestGuardbandScaleIdentity(t *testing.T) {
	if got := GuardbandScale(1.0, 0, 0.22); got != 1 {
		t.Errorf("zero guardband must not scale power, got %g", got)
	}
}

func TestGuardbandScaleKnownValue(t *testing.T) {
	// Pure dynamic (FL=0): scale is the squared voltage ratio.
	got := GuardbandScale(1.0, 0.1, 0)
	if math.Abs(got-1.21) > 1e-12 {
		t.Errorf("dynamic scale = %g, want 1.21", got)
	}
	// Pure leakage (FL=1): the delta=2.8 polynomial.
	got = GuardbandScale(1.0, 0.1, 1)
	if math.Abs(got-math.Pow(1.1, 2.8)) > 1e-12 {
		t.Errorf("leakage scale = %g, want 1.1^2.8", got)
	}
	// Eq. 2 mixes them linearly by FL.
	got = GuardbandScale(1.0, 0.1, 0.5)
	want := 0.5*math.Pow(1.1, 2.8) + 0.5*1.21
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed scale = %g, want %g", got, want)
	}
}

func TestGuardbandScaleProperties(t *testing.T) {
	f := func(vgbRaw, flRaw float64) bool {
		vgb := math.Mod(math.Abs(vgbRaw), 0.2)
		fl := math.Mod(math.Abs(flRaw), 1.0)
		s := GuardbandScale(0.8, vgb, fl)
		// Guardbands only ever increase power, and leakage scales harder
		// than dynamic (2.8 > 2), so the scale grows with FL.
		if s < 1 {
			return false
		}
		return GuardbandScale(0.8, vgb, fl) <= GuardbandScale(0.8, vgb, math.Min(1, fl+0.1))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplyGuardband(t *testing.T) {
	if got := ApplyGuardband(0, 1, 0.02, 0.22); got != 0 {
		t.Errorf("zero power stays zero, got %g", got)
	}
	got := ApplyGuardband(2.0, 1.0, 0.02, 0.22)
	want := 2.0 * GuardbandScale(1.0, 0.02, 0.22)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PGB = %g, want %g", got, want)
	}
}

func TestPowerGateDrop(t *testing.T) {
	// 2W at AR 0.5 and 1V: peak current 4A through 1.5mOhm -> 6mV.
	got := PowerGateDrop(2, 0.5, 1.0, units.MilliOhm(1.5))
	if math.Abs(got-0.006) > 1e-12 {
		t.Errorf("drop = %g, want 6mV", got)
	}
	if PowerGateDrop(0, 0.5, 1.0, 0.001) != 0 {
		t.Error("zero power has zero drop")
	}
}

func TestApplyPowerGate(t *testing.T) {
	pgb := 2.0
	got := ApplyPowerGate(pgb, 1.0, 0.5, 0.22, units.MilliOhm(1.5))
	if !(got > pgb) {
		t.Errorf("PPG %g must exceed PGB %g", got, pgb)
	}
	if ApplyPowerGate(0, 1.0, 0.5, 0.22, 0.001) != 0 {
		t.Error("zero power stays zero")
	}
}

func TestCompensateEquations(t *testing.T) {
	// Worked example of Eq. 3/4: P=10W at 1V, AR=0.5 (so Ppeak=20W,
	// Ipeak=20A), RLL=2.5mOhm: VLL = 1 + 20*0.0025 = 1.05V,
	// PLL = 1.05 * 10/1 = 10.5W.
	r := Compensate(10, 1.0, 0.5, units.MilliOhm(2.5))
	if math.Abs(r.V-1.05) > 1e-12 {
		t.Errorf("VLL = %g, want 1.05", r.V)
	}
	if math.Abs(r.P-10.5) > 1e-12 {
		t.Errorf("PLL = %g, want 10.5", r.P)
	}
	if math.Abs(r.I-10) > 1e-12 {
		t.Errorf("I = %g, want 10", r.I)
	}
	if math.Abs(r.Loss-0.5) > 1e-12 {
		t.Errorf("Loss = %g, want 0.5", r.Loss)
	}
}

func TestCompensateZero(t *testing.T) {
	r := Compensate(0, 1.0, 0.5, 0.0025)
	if r.P != 0 || r.Loss != 0 || r.I != 0 {
		t.Errorf("zero power: %+v", r)
	}
}

func TestCompensateProperties(t *testing.T) {
	f := func(pRaw, arRaw, rRaw float64) bool {
		p := 0.1 + math.Mod(math.Abs(pRaw), 50)
		ar := 0.1 + math.Mod(math.Abs(arRaw), 0.9)
		rll := math.Mod(math.Abs(rRaw), 0.01)
		r := Compensate(p, 1.0, ar, rll)
		// The compensation only ever costs power, raises voltage, and the
		// loss shrinks as AR rises (lower peak-to-average ratio).
		if r.Loss < 0 || r.V < 1.0 || r.P < p {
			return false
		}
		r2 := Compensate(p, 1.0, math.Min(1, ar+0.1), rll)
		return r2.Loss <= r.Loss+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGuardbandCacheKeepsHotKeys pins the memo's replacement policy: once
// a set is full of keys nobody asks for any more, two hot keys that
// collide in it must both stay resident, so alternating between them
// stops allocating after the first round.
func TestGuardbandCacheKeepsHotKeys(t *testing.T) {
	const vnom, vgb = 0.8, 0.02
	var keys []float64 // leakage fractions whose keys share one set
	target := gbSet(vnom, vgb, 0.5)
	for i := 1; len(keys) < gbWays+2; i++ {
		if fl := float64(i) / 1e7; gbSet(vnom, vgb, fl) == target {
			keys = append(keys, fl)
		}
	}
	for _, fl := range keys[:gbWays] {
		GuardbandScale(vnom, vgb, fl) // stale fill
	}
	hotA, hotB := keys[gbWays], keys[gbWays+1]
	if avg := testing.AllocsPerRun(20, func() {
		GuardbandScale(vnom, vgb, hotA)
		GuardbandScale(vnom, vgb, hotB)
	}); avg != 0 {
		t.Errorf("alternating two colliding hot keys: %.1f allocs per round, want 0", avg)
	}
	for _, fl := range []float64{hotA, hotB} {
		if got, want := GuardbandScale(vnom, vgb, fl), rawGuardbandScale(vnom, vgb, fl); got != want {
			t.Errorf("cached scale %g, direct %g", got, want)
		}
	}
}
