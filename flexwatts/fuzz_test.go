package flexwatts_test

import (
	"errors"
	"math"
	"testing"

	"repro/flexwatts"
)

// FuzzEvaluate drives Client.Evaluate with arbitrary points — any PDN,
// TDP, workload, AR and C-state, in or out of range — and pins that each
// one either fails with ErrInvalidPoint or yields a physically sane
// result: every value finite, 0 < ETEE ≤ 1, Loss = PIn − PNom within
// rounding, and Loss and PNom non-negative. No input may panic.
func FuzzEvaluate(f *testing.F) {
	c, err := flexwatts.NewClient()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int(flexwatts.IVR), 18.0, int(flexwatts.MultiThread), 0.6, int(flexwatts.C0))
	f.Add(int(flexwatts.FlexWatts), 4.0, int(flexwatts.SingleThread), 0.5, int(flexwatts.C0))
	f.Add(int(flexwatts.LDO), 0.0, int(flexwatts.WorkloadUnset), 0.0, int(flexwatts.C6))
	f.Add(int(flexwatts.IMBVR), 50.0, int(flexwatts.Graphics), 1.0, int(flexwatts.C0))
	f.Add(int(flexwatts.FlexWatts), 18.0, int(flexwatts.BatteryLife), 0.5, int(flexwatts.C0))
	f.Add(99, 1e308, -3, 2.0, 42)
	// Vanishing ARs that overflowed the peak-current term before the AR
	// floor: a panic for MBVR, a 1e298 W input power for FlexWatts.
	f.Add(int(flexwatts.MBVR), 50.0, int(flexwatts.MultiThread), 5e-324, int(flexwatts.C0))
	f.Add(int(flexwatts.MBVR), 50.0, int(flexwatts.MultiThread), 1e-83, int(flexwatts.C0))
	f.Add(int(flexwatts.FlexWatts), 50.0, int(flexwatts.MultiThread), 1e-300, int(flexwatts.C0))
	// Non-finite TDPs, once a NaN result with a nil error.
	f.Add(int(flexwatts.IVR), math.NaN(), int(flexwatts.MultiThread), 0.5, int(flexwatts.C0))
	f.Add(int(flexwatts.FlexWatts), math.Inf(1), int(flexwatts.WorkloadUnset), 0.0, int(flexwatts.C6))
	f.Add(int(flexwatts.MBVR), math.Inf(-1), int(flexwatts.Graphics), 0.7, int(flexwatts.C0))

	f.Fuzz(func(t *testing.T, kind int, tdp float64, wl int, ar float64, cs int) {
		pt := flexwatts.Point{
			PDN:      flexwatts.Kind(kind),
			TDP:      flexwatts.Watt(tdp),
			Workload: flexwatts.WorkloadType(wl),
			AR:       ar,
			CState:   flexwatts.CState(cs),
		}
		res, err := c.Evaluate(ctx, pt)
		if err != nil {
			if !errors.Is(err, flexwatts.ErrInvalidPoint) {
				t.Fatalf("%+v: untyped error %v", pt, err)
			}
			return
		}
		etee, pnom, pin, loss := res.ETEE, float64(res.PNomTotal), float64(res.PIn), float64(res.Loss())
		for _, v := range []float64{etee, pnom, pin, loss} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%+v: non-finite result %+v", pt, res)
			}
		}
		switch {
		case !(etee > 0 && etee <= 1):
			t.Errorf("%+v: ETEE %g outside (0,1]", pt, etee)
		case math.Abs(loss-(pin-pnom)) > 1e-9*math.Max(1, math.Abs(pin)):
			t.Errorf("%+v: Loss %g != PIn %g - PNom %g", pt, loss, pin, pnom)
		case loss < 0:
			t.Errorf("%+v: negative Loss %g", pt, loss)
		case pnom < 0:
			t.Errorf("%+v: negative PNom %g", pt, pnom)
		}
	})
}
