package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"

	"repro/flexwatts"
)

// Design-space sizes: every seed draws its own scale values, but the TDP
// and the candidate counts are fixed, so seeds are comparable (a search's
// cost depends on its TDP: at 50 W it takes half as long as at 18 W).
const (
	designTDP    = 18 // W, the paper's mid-segment design point
	designSpaces = 4  // distinct seeded spaces, searched round-robin
	designLL     = 10 // load-line scales
	designGB     = 5  // guardband scales
	designVR     = 4  // VR-sizing scales; 5 PDNs × 10 × 5 × 4 = 1000 candidates
	annealBudget = 512
	annealChains = 8
	designWork   = 2 // in-process sweep workers of the client
)

// drawScales draws n distinct scale values in [lo, hi), sorted, rounded to
// three decimals.
func drawScales(rng *rand.Rand, n int, lo, hi float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for len(out) < n {
		v := math.Round((lo+(hi-lo)*rng.Float64())*1000) / 1000
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// designStudy is one seeded space searched both ways.
type designStudy struct{ exhaustive, anneal flexwatts.OptimizeSpec }

// designStudies draws the run's search specs from the seed.
func designStudies(seed int64, tiny bool) []designStudy {
	rng := rand.New(rand.NewSource(seed))
	nLL, nGB, nVR, budget := designLL, designGB, designVR, annealBudget
	if tiny {
		nLL, nGB, nVR, budget = 2, 2, 1, 16
	}
	out := make([]designStudy, designSpaces)
	for i := range out {
		space := flexwatts.OptimizeSpec{
			TDP:             designTDP,
			LoadlineScales:  drawScales(rng, nLL, 0.5, 2),
			GuardbandScales: drawScales(rng, nGB, 0.5, 1.5),
			VRScales:        drawScales(rng, nVR, 0.8, 1.5),
		}
		ex, an := space, space
		ex.Strategy = flexwatts.StrategyExhaustive
		an.Strategy = flexwatts.StrategyAnneal
		an.Seed, an.Budget, an.Chains = rng.Int63(), budget, annealChains
		out[i] = designStudy{exhaustive: ex, anneal: an}
	}
	return out
}

// runDesign is the architect's path: Client.Optimize searches in process,
// each operation one study — an exhaustive search of a seeded space, then
// an annealing search of it. A warm-up pass searches every spec once and
// keeps the result; every later search of the same spec must return the
// same frontier and Evaluated count.
func runDesign(cfg *config, tr *tracer) (*window, error) {
	ctx := context.Background()
	w := &window{}
	var client *flexwatts.Client
	if err := timeInProcSetups(w, func() (err error) {
		client, err = flexwatts.NewClient(flexwatts.WithWorkers(designWork))
		return err
	}); err != nil {
		return nil, err
	}
	studies := designStudies(cfg.seed, cfg.tiny)
	want := make([][2]flexwatts.OptimizeResult, len(studies))
	for i, s := range studies {
		for j, spec := range []flexwatts.OptimizeSpec{s.exhaustive, s.anneal} {
			r, err := client.Optimize(ctx, spec)
			if err != nil {
				return nil, fmt.Errorf("design warm-up: %w", err)
			}
			want[i][j] = r
		}
	}
	before := readRuntime()
	err := timeWindow(cfg.seconds, cfg.minOps, w, func(i int) (float64, error) {
		k := i % len(studies)
		root := tr.start("design.study", tr.op())
		evaluated := 0
		for j, sp := range []struct {
			name string
			spec flexwatts.OptimizeSpec
		}{{"optimize.exhaustive", studies[k].exhaustive}, {"optimize.anneal", studies[k].anneal}} {
			s := root.child(sp.name)
			got, err := client.Optimize(ctx, sp.spec)
			s.end()
			w.attempted++
			if err != nil || got.Evaluated != want[k][j].Evaluated || !reflect.DeepEqual(got.Frontier, want[k][j].Frontier) {
				w.failed++
			}
			evaluated += got.Evaluated
		}
		root.end()
		return float64(evaluated), nil
	})
	if err != nil {
		return nil, err
	}
	w.addRuntimeSince(before, 2*len(w.lat))
	var rerr error
	if w.rssMB, rerr = peakRSSMB(0); rerr != nil {
		return nil, rerr
	}
	return w, nil
}
