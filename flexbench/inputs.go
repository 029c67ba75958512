package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/flexwatts"
	"repro/flexwatts/api"
)

// Input properties of the workloads. They are the benchmark's definition:
// spec.json records them, and a test keeps the two in step.
const (
	// bulkBatch is serve-bulk's points per request, the daemon's cap.
	bulkBatch = 4096
	// bulkPointsPerSecond sizes serve-bulk's fixed work: a window of s
	// seconds sends s × this many distinct points, about s seconds of work
	// for the daemon this benchmark was first measured on.
	bulkPointsPerSecond = 120_000
	// bulkSession is how many bodies one daemon serves before the next
	// fresh daemon takes over (75 × 4096 ≈ 307k points).
	bulkSession = 75
	// hotBatch is serve-hot's points per request.
	hotBatch = 64
	// hotSetSize distinct points make up serve-hot's working set, of which
	// hotIdle are idle package states (C0MIN and C2…C8).
	hotSetSize = 512
	hotIdle    = 48
	// hotBodies distinct 64-point bodies are drawn from the hot set and
	// sent round-robin, so each repeats many times in a window.
	hotBodies = 1024
	// callers is the closed loop's concurrency, one connection each.
	callers = 2
)

// activePoint draws an active operating point: a uniform PDN kind, one of
// the paper's TDPs, a uniform workload class and a continuous AR in
// [0.05, 1).
func activePoint(rng *rand.Rand) flexwatts.Point {
	kinds := flexwatts.AllKinds()
	tdps := flexwatts.StandardTDPs()
	wts := flexwatts.WorkloadTypes()
	return flexwatts.Point{
		PDN:      kinds[rng.Intn(len(kinds))],
		TDP:      tdps[rng.Intn(len(tdps))],
		Workload: wts[rng.Intn(len(wts))],
		AR:       0.05 + 0.95*rng.Float64(),
	}
}

// idleStates are the package states an idle point may name.
func idleStates() []flexwatts.CState {
	return append([]flexwatts.CState{flexwatts.C0MIN}, flexwatts.IdleCStates()...)
}

// bulkPoints draws serve-bulk's n active points. The AR is continuous, so
// no point repeats and the daemon's evaluation cache never hits.
func bulkPoints(rng *rand.Rand, n int) []flexwatts.Point {
	pts := make([]flexwatts.Point, n)
	for i := range pts {
		pts[i] = activePoint(rng)
	}
	return pts
}

// hotSet draws serve-hot's working set: hotSetSize distinct points, hotIdle
// of them idle package states (every PDN kind × state × TDP is a distinct
// point; the TDP only steers FlexWatts' predictor there).
func hotSet(rng *rand.Rand) []flexwatts.Point {
	seen := map[flexwatts.Point]bool{}
	set := make([]flexwatts.Point, 0, hotSetSize)
	add := func(p flexwatts.Point) {
		if !seen[p] {
			seen[p] = true
			set = append(set, p)
		}
	}
	kinds, states, tdps := flexwatts.AllKinds(), idleStates(), flexwatts.StandardTDPs()
	for len(set) < hotIdle {
		add(flexwatts.Point{PDN: kinds[rng.Intn(len(kinds))], TDP: tdps[rng.Intn(len(tdps))],
			CState: states[rng.Intn(len(states))]})
	}
	for len(set) < hotSetSize {
		add(activePoint(rng))
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

// hotBatches draws n batches of hotBatch points from the hot set, with
// replacement.
func hotBatches(rng *rand.Rand, set []flexwatts.Point, n int) [][]flexwatts.Point {
	out := make([][]flexwatts.Point, n)
	for i := range out {
		b := make([]flexwatts.Point, hotBatch)
		for j := range b {
			b[j] = set[rng.Intn(len(set))]
		}
		out[i] = b
	}
	return out
}

// body encodes one POST /v1/evaluate request.
func body(pts []flexwatts.Point) ([]byte, error) {
	req := api.EvalRequest{Points: make([]api.EvalPoint, len(pts))}
	for i, p := range pts {
		req.Points[i] = api.EvalPointFromPoint(p)
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	return b, nil
}

// bodies encodes consecutive batches of batch points each.
func bodies(pts []flexwatts.Point, batch int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(pts); lo += batch {
		b, err := body(pts[lo:min(lo+batch, len(pts))])
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// requestPoints decodes a request body back into typed points.
func requestPoints(b []byte) ([]flexwatts.Point, error) {
	var req api.EvalRequest
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	pts := make([]flexwatts.Point, len(req.Points))
	for i, ep := range req.Points {
		p, err := ep.Point()
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}
