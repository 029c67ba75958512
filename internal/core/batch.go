package core

import (
	"context"

	"repro/internal/pdn"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Job is one point of a mixed batch: the PDN to evaluate, its scenario,
// and the TDP Algorithm 1 reads when the PDN is FlexWatts.
type Job struct {
	Kind     pdn.Kind
	Scenario pdn.Scenario
	TDP      units.Watt
}

// modeModel is the hybrid PDN pinned to one mode: its scalar and grid
// paths are EvaluateMode and EvaluateGridMode, and it never records the
// mode on the shared Model (SetMode), so concurrent batches can share one.
type modeModel struct {
	m    *Model
	mode Mode
}

func (f *modeModel) Kind() pdn.Kind { return pdn.FlexWatts }

func (f *modeModel) Evaluate(s pdn.Scenario) (pdn.Result, error) {
	return f.m.EvaluateMode(s, f.mode)
}

func (f *modeModel) EvaluateGrid(g *pdn.Grid, out []pdn.Result) error {
	return f.m.EvaluateGridMode(g, out, f.mode)
}

// Batch buckets: the four baselines by pdn.Kind value, then FlexWatts
// split by the mode Algorithm 1 predicts.
const (
	bucketIVRMode = int(pdn.FlexWatts) + iota
	bucketLDOMode
	numBuckets
)

// Batch evaluates mixed-kind batches in one grouped pass: every point goes
// to one of six buckets — the four baselines, and FlexWatts split by its
// predicted mode — and each bucket is one EvaluateGrid/EvaluateGridMode
// run spread over the worker pool. A grid run takes Evaluate's and
// EvaluateMode's own per-point path, so a point's result does not depend
// on the batch it rides in. A Batch is safe for concurrent use.
type Batch struct {
	models [numBuckets]pdn.Model
	pred   *Predictor
	arena  *pdn.GridArena
}

// NewBatch builds a batch evaluator over the baselines (one model per kind
// in pdn.Kinds() that jobs may name), the hybrid model and its predictor.
// The bucket grids are leased from arena.
func NewBatch(baselines map[pdn.Kind]pdn.Model, flex *Model, pred *Predictor, arena *pdn.GridArena) *Batch {
	b := &Batch{pred: pred, arena: arena}
	for _, k := range pdn.Kinds() {
		b.models[k] = baselines[k]
	}
	b.models[bucketIVRMode] = &modeModel{m: flex, mode: IVRMode}
	b.models[bucketLDOMode] = &modeModel{m: flex, mode: LDOMode}
	return b
}

// bucket returns the bucket of a job.
func (b *Batch) bucket(j *Job) int {
	if j.Kind != pdn.FlexWatts {
		return int(j.Kind)
	}
	if b.pred.Predict(InputsFromScenario(j.Scenario, j.TDP)) == LDOMode {
		return bucketLDOMode
	}
	return bucketIVRMode
}

// Evaluate evaluates every job and hands each outcome to emit exactly
// once: the result, or that point's error. mode is the predicted hybrid
// mode for FlexWatts points and IVRMode for the baselines; res is only
// valid during the call. emit runs on the caller's goroutine, grouped by
// bucket rather than in index order, so callers scatter by i.
//
// A bucket whose kernel fails is re-evaluated point by point, so every
// point gets exactly its scalar result or error at its own index. The
// returned error is non-nil only when ctx ends the pass; emit is then not
// called for the remaining points.
func (b *Batch) Evaluate(ctx context.Context, workers int, jobs []Job, emit func(i int, mode Mode, res *pdn.Result, err error)) error {
	bk := make([]int8, len(jobs))
	var count [numBuckets]int
	for i := range jobs {
		t := b.bucket(&jobs[i])
		bk[i] = int8(t)
		count[t]++
	}
	lease := b.arena.Get()
	defer lease.Release()
	for t, m := range b.models {
		if count[t] == 0 {
			continue
		}
		g := lease.Grid()
		g.Reset()
		for i, jt := range bk {
			if int(jt) == t {
				g.Append(jobs[i].Scenario)
			}
		}
		out := lease.Results(g.Len())
		err := sweep.GridMapCtx(ctx, workers, nil, m, g, out, 0)
		if err != nil && ctx.Err() != nil {
			return context.Cause(ctx)
		}
		mode := IVRMode
		if t == bucketLDOMode {
			mode = LDOMode
		}
		k := 0
		for i, jt := range bk {
			if int(jt) != t {
				continue
			}
			if err != nil {
				res, perr := m.Evaluate(jobs[i].Scenario)
				emit(i, mode, &res, perr)
			} else {
				emit(i, mode, &out[k], nil)
			}
			k++
		}
	}
	return nil
}
