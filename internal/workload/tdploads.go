package workload

import (
	"fmt"

	"repro/internal/curves"
	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/units"
)

// This file builds the fixed-nominal-power scenarios used by the ETEE
// experiments (Fig 4, Fig 5): at each TDP the domains' nominal powers are
// pinned by the design tables below (consistent with Table 2's ranges and
// Fig 2(b)'s budget shares), while the application ratio is swept
// independently — AR affects only the worst-case (power-virus) current that
// sizes guardbands, which is what produces the rising-with-AR ETEE curves of
// Fig 4.

// tdpAxis is the TDP design-point axis shared by all tables.
var tdpAxis = []float64{4, 8, 10, 18, 25, 36, 50}

// mustCurve builds an interpolation table over the TDP axis.
func mustCurve(ys []float64) *curves.Table1D {
	pts := make([]curves.Point, len(tdpAxis))
	for i := range tdpAxis {
		pts[i] = curves.Point{X: tdpAxis[i], Y: ys[i]}
	}
	return curves.MustTable1D(pts)
}

// Nominal-power design tables (watts) per workload class. The CPU table
// follows Fig 2(b)'s CPU budget share (13 % of 4 W ... 52 % of 50 W, i.e.
// Table 2's 0.6–30 W cores range); LLC spans Table 2's 0.5–4 W; SA/IO are
// fixed (their power does not scale with TDP, Fig 2(b)).
var (
	cpuCoresNom = mustCurve([]float64{0.60, 2.00, 2.70, 8.30, 12.0, 18.4, 26.0})
	cpuLLCNom   = mustCurve([]float64{0.90, 1.10, 1.20, 1.80, 2.30, 3.10, 4.00})

	gfxEngineNom = mustCurve([]float64{0.58, 1.90, 2.60, 7.90, 11.5, 17.5, 24.5})
	gfxCoresNom  = mustCurve([]float64{0.20, 0.55, 0.70, 1.90, 2.70, 4.00, 5.50})
	gfxLLCNom    = mustCurve([]float64{0.90, 1.15, 1.30, 2.00, 2.60, 3.40, 4.00})

	// Core frequency at each TDP design point (GHz); 0.9 GHz at 4 W matches
	// §7.1's "maximum allowed frequency (0.9 GHz) for a 4 W TDP system".
	cpuFreqGHz = mustCurve([]float64{0.9, 1.5, 1.7, 2.4, 2.9, 3.5, 4.0})
	// GFX frequency at each TDP design point (GHz).
	gfxFreqGHz = mustCurve([]float64{0.35, 0.55, 0.65, 0.85, 1.00, 1.10, 1.20})
	// LLC frequency for graphics workloads exceeds the core clock (§7.1:
	// "the LLC domain operates at a higher frequency and higher voltage
	// than the CPU domain").
	gfxLLCFreqGHz = mustCurve([]float64{1.2, 1.6, 1.8, 2.3, 2.8, 3.4, 4.0})
)

// Leakage fractions per Table 2 / §3.1: 45 % for graphics, 22 % elsewhere.
const (
	flCompute = 0.22
	flGFX     = 0.45
)

// MinAR is the smallest application ratio an active point may carry. The
// models size each domain's worst-case current as PNom/AR, so a vanishing
// AR overflows that term: near 1e-83 for MBVR and near 1e-307 for every
// other PDN. The floor sits at 0.01, below the 0.02 the activity sensor's
// AR estimate clamps to, and keeps every model finite at every modeled TDP.
const MinAR = 0.01

// TDPScenario builds the Fig 4-style evaluation scenario for a workload
// type at the given TDP and application ratio. Nominal powers come from the
// design tables; voltages come from the platform's V–f curves at the TDP's
// design frequency.
func TDPScenario(plat *domain.Platform, tdp units.Watt, t Type, ar float64) (pdn.Scenario, error) {
	if !(tdp >= tdpAxis[0] && tdp <= tdpAxis[len(tdpAxis)-1]) {
		return pdn.Scenario{}, fmt.Errorf("workload: TDP %gW outside modeled range [%g, %g]",
			tdp, tdpAxis[0], tdpAxis[len(tdpAxis)-1])
	}
	if !(ar >= MinAR && ar <= 1) {
		return pdn.Scenario{}, fmt.Errorf("workload: AR %g outside [%g,1]", ar, MinAR)
	}
	s := pdn.NewScenario()
	s.CState = domain.C0

	coreV := plat.Domain(domain.Core0).VoltageAt(units.GigaHertz(cpuFreqGHz.At(tdp)))
	switch t {
	case SingleThread, MultiThread:
		cores := cpuCoresNom.At(tdp)
		if t == SingleThread {
			// One core powered; it captures a bit over half of the
			// two-core budget (shared LLC/ring activity remains).
			s.Loads[domain.Core0] = pdn.Load{PNom: 0.55 * cores, VNom: coreV, FL: flCompute, AR: ar}
		} else {
			s.Loads[domain.Core0] = pdn.Load{PNom: cores / 2, VNom: coreV, FL: flCompute, AR: ar}
			s.Loads[domain.Core1] = pdn.Load{PNom: cores / 2, VNom: coreV, FL: flCompute, AR: ar}
		}
		// LLC voltage matches the core domain for CPU workloads (§7.1).
		s.Loads[domain.LLC] = pdn.Load{PNom: cpuLLCNom.At(tdp), VNom: coreV, FL: flCompute, AR: ar}
	case Graphics:
		gfxV := plat.Domain(domain.GFX).VoltageAt(units.GigaHertz(gfxFreqGHz.At(tdp)))
		llcV := plat.Domain(domain.LLC).VoltageAt(units.GigaHertz(gfxLLCFreqGHz.At(tdp)))
		// Cores run at low frequency/voltage during graphics (§5 Obs 2).
		lowCoreV := plat.Domain(domain.Core0).VoltageAt(units.GigaHertz(1.0))
		s.Loads[domain.Core0] = pdn.Load{PNom: gfxCoresNom.At(tdp) / 2, VNom: lowCoreV, FL: flCompute, AR: ar}
		s.Loads[domain.Core1] = pdn.Load{PNom: gfxCoresNom.At(tdp) / 2, VNom: lowCoreV, FL: flCompute, AR: ar}
		s.Loads[domain.GFX] = pdn.Load{PNom: gfxEngineNom.At(tdp), VNom: gfxV, FL: flGFX, AR: ar}
		s.Loads[domain.LLC] = pdn.Load{PNom: gfxLLCNom.At(tdp), VNom: llcV, FL: flCompute, AR: ar}
	default:
		return pdn.Scenario{}, fmt.Errorf("workload: TDPScenario does not model %v", t)
	}

	s.Loads[domain.SA] = pdn.Load{PNom: plat.UncorePower(domain.SA, domain.C0), VNom: plat.UncoreVoltage(domain.SA), FL: flCompute, AR: 0.8}
	s.Loads[domain.IO] = pdn.Load{PNom: plat.UncorePower(domain.IO, domain.C0), VNom: plat.UncoreVoltage(domain.IO), FL: flCompute, AR: 0.8}
	return s, nil
}

// CStateScenario builds the battery-life evaluation point for a package
// power state (Fig 4(j)): in C0MIN the compute domains run at minimum
// frequency with light activity; in deeper states only SA/IO draw power.
func CStateScenario(plat *domain.Platform, c domain.CState) pdn.Scenario {
	s := pdn.NewScenario()
	s.CState = c
	const tj = 50 // battery-life junction temperature (§7.1)
	if c.ComputeActive() {
		core := plat.Domain(domain.Core0)
		llc := plat.Domain(domain.LLC)
		gfx := plat.Domain(domain.GFX)
		fMinCore := core.Params().FMin
		fMinGfx := gfx.Params().FMin
		const arLight = 0.18
		cv := core.VoltageAt(fMinCore)
		s.Loads[domain.Core0] = pdn.Load{PNom: core.Power(fMinCore, arLight, tj), VNom: cv, FL: core.LeakFraction(fMinCore, arLight, tj), AR: arLight}
		s.Loads[domain.Core1] = pdn.Load{PNom: core.Power(fMinCore, arLight, tj), VNom: cv, FL: core.LeakFraction(fMinCore, arLight, tj), AR: arLight}
		s.Loads[domain.LLC] = pdn.Load{PNom: llc.Power(fMinCore, arLight, tj), VNom: llc.VoltageAt(fMinCore), FL: llc.LeakFraction(fMinCore, arLight, tj), AR: arLight}
		s.Loads[domain.GFX] = pdn.Load{PNom: gfx.Power(fMinGfx, arLight, tj), VNom: gfx.VoltageAt(fMinGfx), FL: gfx.LeakFraction(fMinGfx, arLight, tj), AR: arLight}
	}
	s.Loads[domain.SA] = pdn.Load{PNom: plat.UncorePower(domain.SA, c), VNom: plat.UncoreVoltage(domain.SA), FL: flCompute, AR: 0.8}
	s.Loads[domain.IO] = pdn.Load{PNom: plat.UncorePower(domain.IO, c), VNom: plat.UncoreVoltage(domain.IO), FL: flCompute, AR: 0.8}
	return s
}

// StandardTDPs re-exports the TDP axis as watts.
func StandardTDPs() []units.Watt {
	out := make([]units.Watt, len(tdpAxis))
	copy(out, tdpAxis)
	return out
}

// CPUDesignFreq returns the CPU core design frequency for a TDP.
func CPUDesignFreq(tdp units.Watt) units.Hertz {
	return units.GigaHertz(cpuFreqGHz.At(tdp))
}

// GfxDesignFreq returns the graphics design frequency for a TDP.
func GfxDesignFreq(tdp units.Watt) units.Hertz {
	return units.GigaHertz(gfxFreqGHz.At(tdp))
}

// ClusterMember is one domain of the performance-scaling cluster: when the
// lead domain's clock rises by a ratio r, every member's clock rises by r
// (Table 1: the LLC scales proportionally to the CPU core and graphics
// engine frequencies), and its power follows its V-f curve.
type ClusterMember struct {
	Kind domain.Kind
	// PNom is the member's nominal power at the TDP design point.
	PNom units.Watt
	// FL is the leakage fraction.
	FL float64
	// F0 is the design frequency.
	F0 units.Hertz
	// Curve is the member's voltage-frequency curve.
	Curve domain.VFCurve
	// FMax bounds the member's clock.
	FMax units.Hertz
}

// PerfCluster returns the domains whose power scales when the performance
// domain of a workload type is clocked up: cores+LLC for CPU workloads,
// GFX+LLC for graphics (raising graphics throughput requires proportional
// LLC bandwidth).
func PerfCluster(plat *domain.Platform, tdp units.Watt, t Type) []ClusterMember {
	coreD := plat.Domain(domain.Core0)
	llcD := plat.Domain(domain.LLC)
	gfxD := plat.Domain(domain.GFX)
	switch t {
	case Graphics:
		return []ClusterMember{
			{Kind: domain.GFX, PNom: gfxEngineNom.At(tdp), FL: flGFX,
				F0: GfxDesignFreq(tdp), Curve: gfxD.Params().Curve, FMax: gfxD.Params().FMax},
			{Kind: domain.LLC, PNom: gfxLLCNom.At(tdp), FL: flCompute,
				F0: units.GigaHertz(gfxLLCFreqGHz.At(tdp)), Curve: llcD.Params().Curve, FMax: llcD.Params().FMax},
		}
	default:
		return []ClusterMember{
			{Kind: domain.Core0, PNom: cpuCoresNom.At(tdp), FL: flCompute,
				F0: CPUDesignFreq(tdp), Curve: coreD.Params().Curve, FMax: coreD.Params().FMax},
			{Kind: domain.LLC, PNom: cpuLLCNom.At(tdp), FL: flCompute,
				F0: CPUDesignFreq(tdp), Curve: llcD.Params().Curve, FMax: llcD.Params().FMax},
		}
	}
}
