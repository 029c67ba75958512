package flexwatts

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Watt is a power in watts. It is a defined type (not an alias), so the
// public API owns its vocabulary; arithmetic with untyped constants works
// as usual and conversion to float64 is explicit. JSON encodes a Watt as a
// plain number.
type Watt float64

// String renders the power with an adaptive unit prefix, e.g. "9mW".
func (w Watt) String() string {
	aw := w
	if aw < 0 {
		aw = -aw
	}
	switch {
	case aw >= 1:
		return fmt.Sprintf("%.3gW", float64(w))
	case aw >= 1e-3:
		return fmt.Sprintf("%.3gmW", float64(w)*1e3)
	case aw == 0:
		return "0W"
	default:
		return fmt.Sprintf("%.3guW", float64(w)*1e6)
	}
}

// ParseWatt parses a power value: a plain number of watts ("4", "4.5") or
// a number with a W/mW/uW suffix ("250mW").
func ParseWatt(s string) (Watt, error) {
	t := strings.TrimSpace(s)
	scale := 1.0
	switch {
	case strings.HasSuffix(t, "mW"):
		t, scale = strings.TrimSuffix(t, "mW"), 1e-3
	case strings.HasSuffix(t, "uW"):
		t, scale = strings.TrimSuffix(t, "uW"), 1e-6
	case strings.HasSuffix(t, "W"):
		t = strings.TrimSuffix(t, "W")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("flexwatts: bad power %q", s)
	}
	return Watt(v * scale), nil
}

// WorkloadType classifies a workload the way the FlexWatts mode predictor
// does (§6): by which domains it stresses. The zero value is WorkloadUnset
// so an idle-state Point can leave the field empty.
type WorkloadType int

// The workload classes of the paper's figures.
const (
	// WorkloadUnset marks an unclassified point (valid only together with
	// an idle CState).
	WorkloadUnset WorkloadType = iota
	SingleThread
	MultiThread
	Graphics
	BatteryLife
)

// WorkloadTypes lists the workload classes of Fig 4.
func WorkloadTypes() []WorkloadType { return []WorkloadType{SingleThread, MultiThread, Graphics} }

// String names the type as in the paper's figures; WorkloadUnset renders
// as the empty string.
func (t WorkloadType) String() string {
	switch t {
	case WorkloadUnset:
		return ""
	case SingleThread:
		return "Single-Thread"
	case MultiThread:
		return "Multi-Thread"
	case Graphics:
		return "Graphics"
	case BatteryLife:
		return "Battery-Life"
	default:
		return fmt.Sprintf("WorkloadType(%d)", int(t))
	}
}

// ParseWorkloadType resolves a workload class name as the figures spell it
// ("Single-Thread", "Multi-Thread", "Graphics", "Battery-Life"),
// case-insensitively and with the hyphen optional, plus the CLI shorthands
// "st", "mt" and "gfx". The empty string parses to WorkloadUnset.
func ParseWorkloadType(s string) (WorkloadType, error) {
	// The names as String renders them parse without normalizing.
	switch s {
	case "":
		return WorkloadUnset, nil
	case "Single-Thread":
		return SingleThread, nil
	case "Multi-Thread":
		return MultiThread, nil
	case "Graphics":
		return Graphics, nil
	case "Battery-Life":
		return BatteryLife, nil
	}
	norm := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "-", ""))
	switch norm {
	case "":
		return WorkloadUnset, nil
	case "st", "singlethread":
		return SingleThread, nil
	case "mt", "multithread":
		return MultiThread, nil
	case "gfx", "graphics":
		return Graphics, nil
	case "batterylife":
		return BatteryLife, nil
	}
	return 0, fmt.Errorf("flexwatts: unknown workload type %q (have Single-Thread, Multi-Thread, Graphics, Battery-Life)", s)
}

// MarshalText encodes the type as its canonical name.
func (t WorkloadType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText decodes any spelling ParseWorkloadType accepts.
func (t *WorkloadType) UnmarshalText(b []byte) error {
	v, err := ParseWorkloadType(string(b))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// CState identifies a package power state (§5 Observation 3, Fig 4(j)).
// The zero value is C0, the active state, so an active Point can leave the
// field empty.
type CState int

// Package power states modeled by PDNspot.
const (
	C0 CState = iota
	C0MIN
	C2
	C3
	C6
	C7
	C8
)

// CStates lists all package states in canonical order.
func CStates() []CState { return []CState{C0, C0MIN, C2, C3, C6, C7, C8} }

// IdleCStates lists the package idle states of Fig 4(j).
func IdleCStates() []CState { return []CState{C2, C3, C6, C7, C8} }

// String returns the conventional state name.
func (c CState) String() string {
	switch c {
	case C0:
		return "C0"
	case C0MIN:
		return "C0MIN"
	case C2:
		return "C2"
	case C3:
		return "C3"
	case C6:
		return "C6"
	case C7:
		return "C7"
	case C8:
		return "C8"
	default:
		return fmt.Sprintf("CState(%d)", int(c))
	}
}

// ParseCState resolves a conventional state name ("C0", "C0MIN", "C2", …)
// case-insensitively. The empty string parses to C0 (active).
func ParseCState(s string) (CState, error) {
	if strings.TrimSpace(s) == "" {
		return C0, nil
	}
	for _, c := range CStates() {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("flexwatts: unknown package state %q (have C0, C0MIN, C2, C3, C6, C7, C8)", s)
}

// MarshalText encodes the state as its conventional name.
func (c CState) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a conventional state name.
func (c *CState) UnmarshalText(b []byte) error {
	v, err := ParseCState(string(b))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// Mode is the hybrid PDN's operating mode (§6). The zero value is
// ModeNone, reported for evaluations of static (non-FlexWatts) PDNs.
type Mode int

// The two modes of the hybrid VR, plus the "not a hybrid evaluation"
// marker.
const (
	// ModeNone marks a result that did not involve the hybrid VR.
	ModeNone Mode = iota
	// IVRMode runs the compute domains' hybrid VRs as integrated switching
	// regulators from a 1.8 V input rail — efficient at high power.
	IVRMode
	// LDOMode runs them as LDOs (or bypass switches) from an input rail at
	// the maximum compute voltage — efficient at low power.
	LDOMode
)

// Modes lists both hybrid modes.
func Modes() []Mode { return []Mode{IVRMode, LDOMode} }

// String names the mode as in the paper; ModeNone renders as the empty
// string.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return ""
	case IVRMode:
		return "IVR-Mode"
	case LDOMode:
		return "LDO-Mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a hybrid mode name ("IVR-Mode", "LDO-Mode", or the
// shorthands "ivr"/"ldo"), case-insensitively. The empty string parses to
// ModeNone.
func ParseMode(s string) (Mode, error) {
	// The names as String renders them parse without normalizing.
	switch s {
	case "":
		return ModeNone, nil
	case "IVR-Mode":
		return IVRMode, nil
	case "LDO-Mode":
		return LDOMode, nil
	}
	norm := strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "-", ""))
	switch norm {
	case "":
		return ModeNone, nil
	case "ivr", "ivrmode":
		return IVRMode, nil
	case "ldo", "ldomode":
		return LDOMode, nil
	}
	return 0, fmt.Errorf("flexwatts: unknown mode %q (have IVR-Mode, LDO-Mode)", s)
}

// MarshalText encodes the mode as its paper name.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText decodes a mode name.
func (m *Mode) UnmarshalText(b []byte) error {
	v, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Kind identifies a PDN architecture. The zero value is FlexWatts — the
// package's namesake hybrid — so Point{TDP: 4, …} evaluates the adaptive
// PDN by default.
type Kind int

// The PDN architectures evaluated in the paper.
const (
	FlexWatts Kind = iota
	IVR
	MBVR
	LDO
	IMBVR
)

// Kinds lists the four static baseline PDNs in the paper's order.
func Kinds() []Kind { return []Kind{IVR, MBVR, LDO, IMBVR} }

// AllKinds lists every PDN including FlexWatts, in the paper's plotting
// order.
func AllKinds() []Kind { return []Kind{IVR, MBVR, LDO, IMBVR, FlexWatts} }

// String returns the paper's name for the PDN.
func (k Kind) String() string {
	switch k {
	case FlexWatts:
		return "FlexWatts"
	case IVR:
		return "IVR"
	case MBVR:
		return "MBVR"
	case LDO:
		return "LDO"
	case IMBVR:
		return "I+MBVR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves a PDN name as the paper spells it ("IVR", "MBVR",
// "LDO", "I+MBVR", "FlexWatts"), case-insensitively; "IMBVR" is accepted
// for the hybrid baseline.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	if strings.EqualFold(s, "IMBVR") {
		return IMBVR, nil
	}
	return 0, fmt.Errorf("flexwatts: unknown PDN kind %q (have IVR, MBVR, LDO, I+MBVR, FlexWatts)", s)
}

// MarshalText encodes the kind as its paper name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a PDN name.
func (k *Kind) UnmarshalText(b []byte) error {
	v, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Point is one evaluation point: which PDN to evaluate and where. The zero
// PDN is FlexWatts. An active point (CState zero, i.e. C0) carries a TDP,
// a workload class and an application ratio — the axes of the paper's
// Fig 4. An idle point sets CState to C0MIN or C2…C8 and leaves Workload
// and AR unset; its TDP only steers the FlexWatts predictor and defaults
// to 4 W (battery-life evaluation is TDP-independent, §7.1).
//
// Point marshals to the same JSON vocabulary flexwattsd speaks: enums
// encode as their paper names and unset fields are omitted.
type Point struct {
	PDN      Kind         `json:"pdn,omitempty"`
	TDP      Watt         `json:"tdp,omitempty"`
	Workload WorkloadType `json:"workload,omitempty"`
	AR       float64      `json:"ar,omitempty"`
	CState   CState       `json:"cstate,omitempty"`
}

// Validate checks the point's invariants without evaluating it: the
// C-state and workload must be known values, an idle point must not carry
// active-point parameters (they would be silently ignored), and an active
// point needs a workload class and an AR in [0.01,1] (below 0.01 the
// models' worst-case current term overflows). The TDP must be finite;
// range checks on it happen at evaluation time against the modeled TDP
// axis. Errors wrap ErrInvalidPoint.
func (p Point) Validate() error {
	if p.CState < C0 || p.CState > C8 {
		return fmt.Errorf("%w: unknown cstate %d", ErrInvalidPoint, int(p.CState))
	}
	if p.Workload < WorkloadUnset || p.Workload > BatteryLife {
		return fmt.Errorf("%w: unknown workload %d", ErrInvalidPoint, int(p.Workload))
	}
	if tdp := float64(p.TDP); math.IsNaN(tdp) || math.IsInf(tdp, 0) {
		return fmt.Errorf("%w: TDP %g is not finite", ErrInvalidPoint, tdp)
	}
	if p.CState != C0 {
		if p.Workload != WorkloadUnset || p.AR != 0 {
			return fmt.Errorf("%w: cstate %s is an idle-state evaluation: workload and ar must be unset", ErrInvalidPoint, p.CState)
		}
		return nil
	}
	if p.Workload == WorkloadUnset {
		return fmt.Errorf("%w: an active (C0) point requires tdp, workload and ar; for idle states set cstate to C0MIN or C2…C8", ErrInvalidPoint)
	}
	if !(p.AR >= workload.MinAR && p.AR <= 1) {
		return fmt.Errorf("%w: AR %g outside [%g,1]", ErrInvalidPoint, p.AR, workload.MinAR)
	}
	return nil
}

// Breakdown splits a result's total conversion loss into the categories of
// Fig 5.
type Breakdown struct {
	// Guardband is the power paid for tolerance-band voltage margin and
	// rail-sharing voltage overhead.
	Guardband Watt `json:"guardband"`
	// PowerGate is the power paid for conducting power-gate drops.
	PowerGate Watt `json:"power_gate"`
	// OnChipVR is the on-chip VR (IVR or LDO) conversion loss.
	OnChipVR Watt `json:"on_chip_vr"`
	// OffChipVR is the motherboard VR conversion loss.
	OffChipVR Watt `json:"off_chip_vr"`
	// CondCompute is the I²R load-line loss on the core/GFX/LLC path.
	CondCompute Watt `json:"cond_compute"`
	// CondUncore is the I²R load-line loss on the SA/IO path.
	CondUncore Watt `json:"cond_uncore"`
}

// Total returns the sum of all loss categories.
func (b Breakdown) Total() Watt {
	return b.Guardband + b.PowerGate + b.OnChipVR + b.OffChipVR + b.CondCompute + b.CondUncore
}

// Result is one evaluated point: the headline PDNspot quantities plus the
// hybrid mode when the evaluated PDN is FlexWatts.
type Result struct {
	// PDN is the evaluated architecture.
	PDN Kind `json:"pdn"`
	// Mode is the hybrid mode Algorithm 1 selected (ModeNone for static
	// PDNs).
	Mode Mode `json:"mode,omitempty"`
	// CState is the package state the point evaluated in.
	CState CState `json:"cstate"`
	// PNomTotal is ΣPNOM (the PDN output power).
	PNomTotal Watt `json:"p_nom"`
	// PIn is the power drawn from the battery/PSU.
	PIn Watt `json:"p_in"`
	// ETEE = PNomTotal / PIn (§2.4).
	ETEE float64 `json:"etee"`
	// ChipInputCurrent is the total current (amperes) entering the package
	// from off-chip VRs.
	ChipInputCurrent float64 `json:"chip_input_current"`
	// Breakdown categorizes the conversion losses (Fig 5).
	Breakdown Breakdown `json:"breakdown"`
}

// Loss returns the total conversion loss PIn − PNomTotal.
func (r Result) Loss() Watt { return r.PIn - r.PNomTotal }

// Workload is one benchmark with its modeling inputs: its application
// ratio AR (switching rate relative to the power virus, §2.4) and its
// performance scalability (performance gained per unit frequency increase,
// §3.3).
type Workload struct {
	Name string       `json:"name"`
	Type WorkloadType `json:"type"`
	AR   float64      `json:"ar"`
	// Scalability is the fractional performance improvement per fractional
	// frequency increase (1.0 = perfectly frequency-scalable).
	Scalability float64 `json:"scalability"`
}
