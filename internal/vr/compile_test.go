package vr

import (
	"math"
	"testing"

	"repro/internal/units"
)

// frozenEfficiency is the buck loss model written out per call from the
// part's parameters, independently of BuckOp: the reference the compiled
// form must reproduce bit for bit.
func frozenEfficiency(b *Buck, op OperatingPoint) float64 {
	p := b.Params()
	if op.Iout <= 0 {
		return p.EtaFloor
	}
	var fixed, sw units.Watt
	if op.State >= PS1 {
		fixed = p.PControlLight
		sw = p.KSwitch * op.Vin * op.Vin / p.LightSwitchDiv
		if op.State >= PS3 {
			sw /= 4
			fixed /= 2
		}
	} else {
		fixed = p.PControl
		sw = p.KSwitch * op.Vin * op.Vin
	}
	n := 1
	if op.State < PS1 {
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
	var head units.Watt
	if duty > 0.85 {
		head = 0.25 * op.Vout * op.Iout * (duty - 0.85) / (1 - 0.85)
	}
	pout := op.Vout * op.Iout
	eta := pout / (pout + (fixed + sw + ovl + dt + drv + cond + head))
	if eta < p.EtaFloor {
		eta = p.EtaFloor
	}
	return eta
}

// TestBuckCompileBitwise pins the compiled loss model to the frozen
// per-call formula: a compiled BuckOp, a BuckStates entry and
// Buck.Efficiency return its exact float64 bits at every operating
// point. The sweep covers all catalog parts, every power state, input
// voltages from battery to IVR rail, and currents that exercise the
// iout<=0 floor, the single-phase and multi-phase shedding branches, the
// MaxPhases clamp, and the duty>maxBuckDuty headroom branch.
func TestBuckCompileBitwise(t *testing.T) {
	parts := map[string]*Buck{
		"vin":   NewVinVR(40),
		"board": NewBoardVR("V_Cores", 60),
		"small": NewSmallRailVR("V_SA", 10),
		"ivr":   NewIVR("IVR_Core0", 50),
	}
	vins := []units.Volt{0, 0.9, 1.05, 1.8, 7.2, 12, 20}
	vouts := []units.Volt{0, 0.55, 0.75, 1.0, 1.1, 1.7, 1.79, 1.8}
	iouts := []units.Amp{-1, 0, 1e-9, 0.01, 0.3, 0.999, 1, 2.5, 3.001, 7, 12.5, 40, 100}
	for name, b := range parts {
		for _, vin := range vins {
			var states BuckStates
			statesReady := false
			for ps := PS0; ps <= PS4; ps++ {
				op := b.Compile(vin, ps)
				for _, vout := range vouts {
					for _, iout := range iouts {
						want := frozenEfficiency(b, OperatingPoint{Vin: vin, Vout: vout, Iout: iout, State: ps})
						got := op.Efficiency(vout, iout)
						if e := b.Efficiency(OperatingPoint{Vin: vin, Vout: vout, Iout: iout, State: ps}); math.Float64bits(e) != math.Float64bits(want) {
							t.Fatalf("%s Efficiency(%g,%v,%g,%g) = %x, frozen %x", name, vin, ps, vout, iout,
								math.Float64bits(e), math.Float64bits(want))
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s Compile(%g,%v).Efficiency(%g,%g) = %x, frozen %x",
								name, vin, ps, vout, iout,
								math.Float64bits(got), math.Float64bits(want))
						}
						if !statesReady {
							states = b.CompileStates(vin)
							statesReady = true
						}
						if got2 := states.Efficiency(ps, vout, iout); math.Float64bits(got2) != math.Float64bits(want) {
							t.Fatalf("%s CompileStates(%g).Efficiency(%v,%g,%g) = %x, frozen %x",
								name, vin, ps, vout, iout,
								math.Float64bits(got2), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestBuckCompileDenseSweep crosses the branch boundaries with a dense
// (vout, iout) sweep at the catalog's real operating voltages, so a future
// reordering of loss terms — numerically close but not bit-identical to
// the frozen formula — cannot hide between the coarse grid points above.
func TestBuckCompileDenseSweep(t *testing.T) {
	b := NewIVR("IVR_GFX", 50)
	const vin = 1.8
	for ps := PS0; ps <= PS4; ps++ {
		op := b.Compile(vin, ps)
		for vout := units.Volt(0.4); vout <= 1.85; vout += 0.013 {
			for iout := units.Amp(0.001); iout < 45; iout *= 1.7 {
				want := frozenEfficiency(b, OperatingPoint{Vin: vin, Vout: vout, Iout: iout, State: ps})
				got := op.Efficiency(vout, iout)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dense: Efficiency(vout=%g, iout=%g, %v) = %x, frozen %x",
						vout, iout, ps, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
