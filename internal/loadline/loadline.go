// Package loadline implements the voltage-guardband and load-line arithmetic
// shared by every PDN model in PDNspot (paper §3.1, Equations 2–4 and 7–8).
//
// Three effects inflate a domain's nominal power on the way to the power
// supply:
//
//  1. Tolerance-band guardband (Eq. 2): the supply is kept VTOB above the
//     nominal voltage to cover controller tolerance, current-sense variation
//     and ripple. Dynamic power scales with the square of the voltage ratio,
//     leakage with the validated δ ≈ 2.8 power.
//  2. Power-gate drop: conducting power gates add a series drop VPG = RPG·I
//     that must also be compensated by raising the supply (same Eq. 2 form).
//  3. Load-line (Eq. 3/4 and 7/8): the board/package impedance RLL drops
//     voltage proportionally to current, and the guardband must cover the
//     *worst-case* current — the power-virus workload (AR = 1) — so the VR
//     output is raised by (Ppeak/V)·RLL where Ppeak = P/AR.
package loadline

import (
	"math"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/units"
)

// gbEntry memoizes one guardband-scale evaluation point. The scale factor
// depends only on (vnom, vgb, fl) — not on the power flowing through — and
// evaluation workloads revisit the same handful of operating voltages
// millions of times (the reference simulator perturbs only PNom), so the
// math.Pow in Eq. 2 is worth memoizing.
type gbEntry struct {
	vnom, vgb units.Volt
	fl        float64
	scale     float64
}

// gbCache is a 4-way set-associative, lock-free memo for GuardbandScale.
// Each slot is an atomic pointer to an immutable entry: a hit is one cheap
// hand hash, a pointer load and three float compares — far cheaper than
// either math.Pow or a runtime map lookup. A set is kept newest first: a
// miss inserts at way 0 and shifts the other entries one way down, into
// the first empty way or, when the set is full, out of the last one. The
// oldest entry is evicted, so keys a workload keeps revisiting stay
// resident however many stale keys earlier workloads left in the set,
// instead of thrashing allocations on one way.
// GuardbandScale is a pure function, so a cached hit returns the exact
// float bits the direct computation produced regardless of which goroutine
// filled the slot.
const (
	gbWays  = 4
	gbSets  = 1 << 12
	gbSlots = gbSets * gbWays
)

var gbCache [gbSlots]atomic.Pointer[gbEntry]

// gbSet mixes the three operand bit patterns into a set index
// (splitmix64-style multiply-xorshift).
func gbSet(vnom, vgb units.Volt, fl float64) uint64 {
	h := math.Float64bits(vnom)
	h = (h ^ math.Float64bits(vgb)*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	h = (h ^ math.Float64bits(fl)*0x94d049bb133111eb) * 0xff51afd7ed558ccd
	h ^= h >> 33
	return (h % gbSets) * gbWays
}

// rawGuardbandScale is the uncached Eq. 2 computation shared by the memoized
// and the memo-bypassing call paths; both therefore produce identical bits.
func rawGuardbandScale(vnom, vgb units.Volt, fl float64) float64 {
	units.CheckPositive("vnom", vnom)
	units.CheckNonNegative("vgb", vgb)
	units.CheckFraction("fl", fl)
	ratio := (vnom + vgb) / vnom
	return fl*math.Pow(ratio, domain.LeakVoltageExp) + (1-fl)*ratio*ratio
}

// GuardbandScale returns the factor by which a domain's power grows when its
// supply voltage rises from vnom to vnom+vgb (Eq. 2): the leakage fraction
// fl scales polynomially with exponent δ = 2.8, the dynamic remainder
// quadratically. Callers pass a platform tolerance band or rail-sharing
// delta as vgb — a small, heavily repeated operand set — which is what makes
// the memo effective; a guardband that varies per call (the power-gate drop)
// must use rawGuardbandScale instead so it doesn't churn the cache.
func GuardbandScale(vnom, vgb units.Volt, fl float64) float64 {
	set := gbSet(vnom, vgb, fl)
	last := uint64(gbWays - 1)
	for w := uint64(0); w < gbWays; w++ {
		e := gbCache[set+w].Load()
		if e == nil {
			last = w
			break
		}
		if e.vnom == vnom && e.vgb == vgb && e.fl == fl {
			return e.scale
		}
	}
	v := rawGuardbandScale(vnom, vgb, fl)
	for w := last; w > 0; w-- {
		gbCache[set+w].Store(gbCache[set+w-1].Load())
	}
	gbCache[set].Store(&gbEntry{vnom: vnom, vgb: vgb, fl: fl, scale: v})
	return v
}

// ApplyGuardband returns PGB, the power after raising the supply by vgb
// above vnom (Eq. 2).
func ApplyGuardband(pnom units.Watt, vnom, vgb units.Volt, fl float64) units.Watt {
	units.CheckNonNegative("pnom", pnom)
	if pnom == 0 {
		return 0
	}
	return pnom * GuardbandScale(vnom, vgb, fl)
}

// PowerGateDrop returns the voltage drop across a conducting power gate of
// impedance rpg carrying the domain's worst-case current at supply voltage
// v: the current guardband again assumes the power virus (p/ar at voltage v).
func PowerGateDrop(p units.Watt, ar float64, v units.Volt, rpg units.Ohm) units.Volt {
	if p == 0 {
		return 0
	}
	units.CheckPositive("v", v)
	units.CheckPositive("ar", ar)
	ipeak := p / ar / v
	return rpg * ipeak
}

// ApplyPowerGate returns PPG: the power after compensating the power-gate
// drop, computed with the Eq. 2 form using (VPG, PGB, vgb+vnom) in place of
// (VGB, PNOM, VNOM) as §3.1 describes.
func ApplyPowerGate(pgb units.Watt, vSupply units.Volt, ar, fl float64, rpg units.Ohm) units.Watt {
	if pgb == 0 {
		return 0
	}
	vpg := PowerGateDrop(pgb, ar, vSupply, rpg)
	// vpg tracks the instantaneous current, so (vSupply, vpg, fl) is a fresh
	// evaluation point nearly every call — computing directly beats churning
	// GuardbandScale's memo with single-use keys.
	units.CheckNonNegative("pgb", pgb)
	return pgb * rawGuardbandScale(vSupply, vpg, fl)
}

// Result carries the outputs of a load-line compensation step.
type Result struct {
	// V is the raised VR output voltage VD_LL (Eq. 3 / Eq. 7).
	V units.Volt
	// P is the power drawn from the VR output PD_LL (Eq. 4 / Eq. 8).
	P units.Watt
	// I is the average current through the load-line at the raised voltage.
	I units.Amp
	// Loss is the extra power paid for the compensation (P − Pin).
	Loss units.Watt
}

// Compensate applies Equations 3/4 (identically 7/8) to a group of domains
// that share a VR rail: given the group's power p at nominal rail voltage v,
// the group application ratio ar (peak power is p/ar), and the rail
// impedance rll, it returns the raised voltage, the power at the VR output,
// and the implied average current.
func Compensate(p units.Watt, v units.Volt, ar float64, rll units.Ohm) Result {
	units.CheckNonNegative("p", p)
	if p == 0 {
		return Result{V: v}
	}
	units.CheckPositive("v", v)
	units.CheckPositive("ar", ar)
	units.CheckNonNegative("rll", rll)
	ppeak := p / ar
	vll := v + ppeak/v*rll // Eq. 3 / Eq. 7
	pll := vll * p / v     // Eq. 4 / Eq. 8
	return Result{
		V:    vll,
		P:    pll,
		I:    p / v, // ID = PD/VD; the same current flows at the raised voltage
		Loss: pll - p,
	}
}
