package pdn

import "fmt"

// Grid is a batch of evaluation scenarios, the unit the models'
// EvaluateGrid methods, the sweep engine and the request arenas work in.
// A grid run evaluates its points in order through the same per-point
// path as Evaluate, with a previous-point Memo (see Memo) carried from
// one point to the next. The zero Grid is empty and ready to Append into.
type Grid struct {
	s []Scenario
}

// NewGrid returns an empty grid with capacity for n points.
func NewGrid(n int) *Grid { return &Grid{s: make([]Scenario, 0, n)} }

// GridOf builds a grid from a copy of a slice of scenarios.
func GridOf(scenarios []Scenario) *Grid {
	g := NewGrid(len(scenarios))
	g.s = append(g.s, scenarios...)
	return g
}

// Len returns the number of points.
func (g *Grid) Len() int { return len(g.s) }

// Append adds a scenario as the next point.
func (g *Grid) Append(s Scenario) { g.s = append(g.s, s) }

// Set overwrites point i.
func (g *Grid) Set(i int, s Scenario) { g.s[i] = s }

// At returns point i.
func (g *Grid) At(i int) Scenario { return g.s[i] }

// Reset truncates the grid to zero points, keeping capacity — the
// building block for reusing one scratch grid across cache-miss blocks.
func (g *Grid) Reset() { g.s = g.s[:0] }

// Gather resets g to the points of src selected by indices, in order.
// Like Append, Gather copies into g's own backing array and never aliases
// src's storage: mutating the gathered grid cannot corrupt src. src must
// be a different grid than g.
func (g *Grid) Gather(src *Grid, indices []int) {
	g.s = g.s[:0]
	for _, i := range indices {
		g.s = append(g.s, src.s[i])
	}
}

// View returns a sub-grid over points [lo, hi) sharing the receiver's
// storage — the chunking primitive for parallel sweep workers. Mutating a
// view's points mutates the parent; appending to a view never does.
func (g *Grid) View(lo, hi int) Grid { return Grid{s: g.s[lo:hi:hi]} }

// Scenarios returns the grid's points, sharing its storage.
func (g *Grid) Scenarios() []Scenario { return g.s }

// CheckGridOut validates a caller-provided result block against a grid;
// model EvaluateGrid implementations (here and in internal/core) call it
// before evaluating.
func CheckGridOut(g *Grid, out []Result) error {
	if len(out) < g.Len() {
		return fmt.Errorf("pdn: result block has %d slots for %d grid points", len(out), g.Len())
	}
	return nil
}

// GridPointError wraps a per-point validation error with its index; the
// wrapped error is exactly what the scalar Evaluate returns for the point,
// so errors.Is/As see through the grid framing.
func GridPointError(i int, err error) error {
	return fmt.Errorf("pdn: grid point %d: %w", i, err)
}
