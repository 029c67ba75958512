package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/domain"
	"repro/internal/units"
)

// Phase is one interval of a workload trace: the platform stays at one
// operating condition for Duration. Traces drive both the platform
// simulator (internal/sim) and the PDNspot validation harness, standing in
// for the paper's ~5000 measured benchmark traces (§4.1).
type Phase struct {
	Duration units.Second
	Type     Type
	CState   domain.CState
	// AR is the application ratio during the phase (ignored in idle
	// states).
	AR float64
}

// Trace is a sequence of phases.
type Trace struct {
	Name   string
	Phases []Phase
}

// Duration returns the total trace length.
func (t Trace) Duration() units.Second {
	var d units.Second
	for _, p := range t.Phases {
		d += p.Duration
	}
	return d
}

// Validate checks phase invariants.
func (t Trace) Validate() error {
	if len(t.Phases) == 0 {
		return fmt.Errorf("workload: trace %q has no phases", t.Name)
	}
	for i, p := range t.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("workload: trace %q phase %d has non-positive duration", t.Name, i)
		}
		if p.CState.ComputeActive() && !(p.AR >= MinAR && p.AR <= 1) {
			return fmt.Errorf("workload: trace %q phase %d active with AR %g", t.Name, i, p.AR)
		}
	}
	return nil
}

// SteadyTrace returns a single-phase trace at a fixed operating condition.
func SteadyTrace(name string, t Type, ar float64, dur units.Second) Trace {
	return Trace{Name: name, Phases: []Phase{{Duration: dur, Type: t, CState: domain.C0, AR: ar}}}
}

// BatteryTrace expands a battery-life workload into a per-frame trace: each
// frame cycles through the workload's resident states in a fixed order
// (active burst, memory fetch, panel self-refresh), repeated for the given
// number of frames at the given frame period.
func BatteryTrace(w BatteryWorkload, frames int, period units.Second) Trace {
	order := []domain.CState{domain.C0MIN, domain.C2, domain.C3, domain.C6, domain.C7, domain.C8}
	tr := Trace{Name: w.Name}
	for f := 0; f < frames; f++ {
		for _, c := range order {
			res := w.Residency[c]
			if res == 0 {
				continue
			}
			tr.Phases = append(tr.Phases, Phase{
				Duration: period * res,
				Type:     BatteryLife,
				CState:   c,
				AR:       0.18,
			})
		}
	}
	return tr
}

// Generator produces randomized synthetic traces with a deterministic seed,
// mirroring the variety of the paper's trace corpus: phases alternate
// between active intervals with drifting AR and idle intervals in package
// C-states.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Mixed returns a trace of n phases of the given type whose AR performs a
// bounded random walk in [arLo, arHi], with an idlePct fraction of phases
// spent in package idle states. Phase durations are 5–20 ms, matching the
// paper's 10 ms evaluation interval scale.
func (g *Generator) Mixed(name string, t Type, n int, arLo, arHi, idlePct float64) Trace {
	if arLo <= 0 || arHi > 1 || arHi < arLo {
		panic(fmt.Sprintf("workload: bad AR bounds [%g, %g]", arLo, arHi))
	}
	idleStates := domain.IdleCStates()
	tr := Trace{Name: name}
	ar := arLo + g.rng.Float64()*(arHi-arLo)
	for i := 0; i < n; i++ {
		dur := units.Second(0.005 + 0.015*g.rng.Float64())
		if g.rng.Float64() < idlePct {
			tr.Phases = append(tr.Phases, Phase{
				Duration: dur,
				Type:     t,
				CState:   idleStates[g.rng.Intn(len(idleStates))],
			})
			continue
		}
		ar += (g.rng.Float64() - 0.5) * 0.2 * (arHi - arLo)
		ar = units.Clamp(ar, arLo, arHi)
		tr.Phases = append(tr.Phases, Phase{Duration: dur, Type: t, CState: domain.C0, AR: ar})
	}
	return tr
}

// ValidationCorpus returns the deterministic set of (type, AR) points used
// to validate PDNspot against the reference simulator, covering the AR
// 40–80 % range of Fig 4 for each workload type, count points per type.
func ValidationCorpus(count int) []struct {
	Type Type
	AR   float64
} {
	var out []struct {
		Type Type
		AR   float64
	}
	for _, t := range Types() {
		for i := 0; i < count; i++ {
			ar := 0.40 + 0.40*float64(i)/float64(count-1)
			out = append(out, struct {
				Type Type
				AR   float64
			}{t, ar})
		}
	}
	return out
}
