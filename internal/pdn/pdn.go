// Package pdn implements PDNspot's end-to-end power-conversion-efficiency
// (ETEE) models for the three commonly-used client PDNs — MBVR, IVR and LDO
// (paper §3.1, Fig 1) — plus the Skylake-X style I+MBVR hybrid used as an
// additional baseline in §7.
//
// Every model maps a set of per-domain loads (nominal power, nominal
// voltage, leakage fraction, application ratio) to the power drawn from the
// battery/PSU, accounting for, in order: tolerance-band guardband (Eq. 2),
// power-gate drops, rail-sharing voltage overhead, on-chip VR losses
// (Eq. 6/10/11), load-line compensation (Eq. 3/4/7/8) and off-chip VR losses
// (Eq. 5/9/12). The per-category loss breakdown reproduces Fig 5.
//
// Each model is assembled from the stages in stages.go, built once at
// construction with its regulators compiled at the rail voltages they see
// (the supply voltage Params.PSU for the off-chip VRs). A model evaluates a
// point with one per-point function: Evaluate runs it on one scenario, and
// EvaluateGrid runs it on every point of a Grid with a previous-point Memo,
// so the two return identical results.
package pdn

import (
	"fmt"
	"strings"

	"repro/internal/domain"
	"repro/internal/units"
	"repro/internal/vr"
)

// Kind identifies a PDN architecture.
type Kind int

// The PDN architectures evaluated in the paper.
const (
	IVR Kind = iota
	MBVR
	LDO
	IMBVR
	FlexWatts
)

// Kinds lists the four baseline PDNs implemented by this package (FlexWatts
// itself lives in internal/core, built from the same stages).
func Kinds() []Kind { return []Kind{IVR, MBVR, LDO, IMBVR} }

// AllKinds lists every PDN including FlexWatts, in the paper's plotting
// order.
func AllKinds() []Kind { return []Kind{IVR, MBVR, LDO, IMBVR, FlexWatts} }

// String returns the paper's name for the PDN.
func (k Kind) String() string {
	switch k {
	case IVR:
		return "IVR"
	case MBVR:
		return "MBVR"
	case LDO:
		return "LDO"
	case IMBVR:
		return "I+MBVR"
	case FlexWatts:
		return "FlexWatts"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a PDN name as the paper spells it ("IVR", "MBVR",
// "LDO", "I+MBVR", "FlexWatts"), case-insensitively; "IMBVR" is accepted
// for the hybrid baseline. It is the inverse of Kind.String for the
// flexwattsd request vocabulary.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	if strings.EqualFold(s, "IMBVR") {
		return IMBVR, nil
	}
	return 0, fmt.Errorf("pdn: unknown PDN kind %q (have IVR, MBVR, LDO, I+MBVR, FlexWatts)", s)
}

// Load is one domain's electrical operating point for an evaluation
// interval: the inputs PDNspot's models consume (paper Table 2 and Fig 1).
// The domain a load belongs to is not stored here — it is the load's index
// in Scenario.Loads.
type Load struct {
	// PNom is the domain's nominal power (PNOM in Fig 1); zero means the
	// domain is idle and power-gated.
	PNom units.Watt
	// VNom is the nominal supply voltage the domain requires.
	VNom units.Volt
	// FL is the leakage fraction at the operating point (Table 2: 20–45 %).
	FL float64
	// AR is the domain's application ratio; the worst-case (power-virus)
	// power used for guardbands is PNom/AR (§2.4).
	AR float64
}

// Active reports whether the domain draws power.
func (l Load) Active() bool { return l.PNom > 0 }

// Scenario is a complete evaluation point: the six domain loads plus the
// package power state (which selects VR power states). The supply voltage
// is a model parameter (Params.PSU), not part of the point.
//
// Loads is a fixed-size value array indexed by domain.Kind — the zero Load
// is an idle (power-gated) domain, so "absent" and "idle" are the same
// state by construction. The representation is canonical: two scenarios
// describe the same evaluation point if and only if they compare equal with
// ==, which is what makes Scenario usable directly as a lock-free cache key
// (internal/sweep) and copyable with plain assignment on the refmodel hot
// path, with no per-evaluation heap allocation anywhere.
type Scenario struct {
	Loads  [domain.NumKinds]Load
	CState domain.CState
}

// NewScenario returns an all-idle scenario in package state C0.
func NewScenario() Scenario {
	return Scenario{CState: domain.C0}
}

// TotalNominal returns ΣPNOM across all domains, the numerator of ETEE.
func (s Scenario) TotalNominal() units.Watt {
	var sum units.Watt
	for k := range s.Loads {
		sum += s.Loads[k].PNom
	}
	return sum
}

// LoadFor returns the load for kind k.
func (s Scenario) LoadFor(k domain.Kind) Load { return s.Loads[k] }

// Breakdown splits the total conversion loss into the categories of Fig 5.
type Breakdown struct {
	// Guardband is the power paid for tolerance-band voltage margin and
	// rail-sharing voltage overhead ("Others" in Fig 5, together with
	// PowerGate).
	Guardband units.Watt
	// PowerGate is the power paid for conducting power-gate drops.
	PowerGate units.Watt
	// OnChipVR is the on-chip VR (IVR or LDO) conversion loss.
	OnChipVR units.Watt
	// OffChipVR is the motherboard VR conversion loss.
	OffChipVR units.Watt
	// CondCompute is the I²R load-line loss on the core/GFX/LLC path.
	CondCompute units.Watt
	// CondUncore is the I²R load-line loss on the SA/IO path.
	CondUncore units.Watt
}

// Total returns the sum of all loss categories.
func (b Breakdown) Total() units.Watt {
	return b.Guardband + b.PowerGate + b.OnChipVR + b.OffChipVR + b.CondCompute + b.CondUncore
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Guardband += o.Guardband
	b.PowerGate += o.PowerGate
	b.OnChipVR += o.OnChipVR
	b.OffChipVR += o.OffChipVR
	b.CondCompute += o.CondCompute
	b.CondUncore += o.CondUncore
}

// RailDraw describes the electrical demand seen by one off-chip VR, used by
// the cost model to size parts (Iccmax, §3.2).
type RailDraw struct {
	Name    string
	VOut    units.Volt
	Current units.Amp // average current at the evaluated point
	Peak    units.Amp // worst-case (power-virus) current
}

// MaxRails is the most off-chip rails any modeled PDN drives (MBVR's four:
// V_Cores, V_GFX, V_SA, V_IO).
const MaxRails = 4

// RailSet is a fixed-capacity collection of rail demands with value
// semantics: copying a Result copies its rails, so a memoized Result handed
// out by the evaluation cache cannot alias mutable state between callers —
// the read-only contract is enforced by the type, and building one costs no
// heap allocation.
type RailSet struct {
	n     int
	rails [MaxRails]RailDraw
}

// Append adds a rail demand; it panics if the set is full (no modeled PDN
// exceeds MaxRails).
func (rs *RailSet) Append(r RailDraw) {
	rs.rails[rs.n] = r
	rs.n++
}

// Len returns the number of rails in the set.
func (rs RailSet) Len() int { return rs.n }

// At returns the i-th rail demand.
func (rs RailSet) At(i int) RailDraw {
	if i < 0 || i >= rs.n {
		panic(fmt.Sprintf("pdn: rail index %d out of range [0,%d)", i, rs.n))
	}
	return rs.rails[i]
}

// Result is the outcome of evaluating a PDN model on a scenario.
type Result struct {
	PDN Kind
	// PNomTotal is ΣPNOM (the PDN output power).
	PNomTotal units.Watt
	// PIn is the power drawn from the battery/PSU (PIVR/PMBVR/PLDO).
	PIn units.Watt
	// ETEE = PNomTotal / PIn (§2.4).
	ETEE float64
	// Breakdown categorizes the conversion losses (Fig 5).
	Breakdown Breakdown
	// ChipInputCurrent is the total current entering the package from
	// off-chip VRs (the line plot of Fig 5).
	ChipInputCurrent units.Amp
	// ComputeRailR is the effective load-line impedance of the compute
	// power path (the second line plot of Fig 5).
	ComputeRailR units.Ohm
	// Rails lists per-off-chip-VR demands for the cost model.
	Rails RailSet
}

// Model is a PDN architecture's ETEE model.
type Model interface {
	// Kind identifies the architecture.
	Kind() Kind
	// Evaluate computes the end-to-end power flow for a scenario.
	Evaluate(s Scenario) (Result, error)
}

// VRStateFor maps a package power state to the VR power state the platform's
// power-management firmware would program (§4.2 notes V_IN supports PS0, PS1,
// PS3 and PS4): active states let the VR's light-load controller decide from
// current, shallow package idle runs PS1, deep idle PS3/PS4.
func VRStateFor(c domain.CState, iout units.Amp) vr.PowerState {
	switch c {
	case domain.C0, domain.C0MIN:
		return vr.AutoState(iout)
	case domain.C2, domain.C3:
		return vr.PS1
	case domain.C6, domain.C7:
		return vr.PS3
	default: // C8 and deeper
		return vr.PS4
	}
}
