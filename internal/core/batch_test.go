package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/domain"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// batchJobs returns a shuffled mixed batch: every PDN kind at 4, 18 and
// 50 W for every workload type, plus every idle state, with two invalid
// scenarios (negative IO power) among them.
func batchJobs(t *testing.T, plat *domain.Platform) (jobs []Job, invalid []int) {
	t.Helper()
	kinds := append(pdn.Kinds(), pdn.FlexWatts)
	for _, k := range kinds {
		for _, tdp := range []float64{4, 18, 50} {
			for i, wt := range workload.Types() {
				s, err := workload.TDPScenario(plat, tdp, wt, 0.35+0.2*float64(i))
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, Job{Kind: k, Scenario: s, TDP: tdp})
			}
		}
		for _, cs := range []domain.CState{domain.C0MIN, domain.C2, domain.C6, domain.C8} {
			jobs = append(jobs, Job{Kind: k, Scenario: workload.CStateScenario(plat, cs), TDP: 4})
		}
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	invalid = []int{len(jobs) / 3, len(jobs) - 1}
	for _, i := range invalid {
		jobs[i].Scenario.Loads[domain.IO].PNom = -1
	}
	return jobs, invalid
}

// testBaselines builds the four baseline models with the default
// parameters.
func testBaselines(t *testing.T) map[pdn.Kind]pdn.Model {
	t.Helper()
	baselines := map[pdn.Kind]pdn.Model{}
	for _, k := range pdn.Kinds() {
		bm, err := pdn.New(k, pdn.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		baselines[k] = bm
	}
	return baselines
}

// TestBatchMatchesScalar pins the grouped pass to the scalar models: every
// job is emitted exactly once, with the result (and, for FlexWatts, the
// predicted mode) that per-point Evaluate/EvaluateMode gives it, and an
// invalid job gets exactly its scalar error at its own index while the
// rest of its bucket still evaluates.
func TestBatchMatchesScalar(t *testing.T) {
	plat, m, pred := testSetup(t)
	baselines := testBaselines(t)
	var arena pdn.GridArena
	b := NewBatch(baselines, m, pred, &arena)
	jobs, invalid := batchJobs(t, plat)
	before := m.Mode()
	for _, workers := range []int{1, 2} {
		seen := make([]int, len(jobs))
		failed := map[int]bool{}
		modes := map[Mode]int{}
		err := b.Evaluate(context.Background(), workers, jobs, func(i int, mode Mode, res *pdn.Result, err error) {
			seen[i]++
			if err != nil {
				failed[i] = true
			}
			j := jobs[i]
			var want pdn.Result
			var wantErr error
			if j.Kind == pdn.FlexWatts {
				wm := pred.Predict(InputsFromScenario(j.Scenario, j.TDP))
				if mode != wm {
					t.Errorf("job %d: mode %v, predicted %v", i, mode, wm)
				}
				modes[mode]++
				want, wantErr = m.EvaluateMode(j.Scenario, wm)
			} else {
				want, wantErr = baselines[j.Kind].Evaluate(j.Scenario)
			}
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("job %d: err %v, scalar err %v", i, err, wantErr)
				}
			case err != nil:
				t.Errorf("job %d: unexpected error %v", i, err)
			case *res != want:
				t.Errorf("job %d (%v): batch %+v, scalar %+v", i, j.Kind, *res, want)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("workers %d: job %d emitted %d times", workers, i, n)
			}
		}
		if modes[IVRMode] == 0 || modes[LDOMode] == 0 {
			t.Errorf("workers %d: FlexWatts jobs did not cover both modes: %v", workers, modes)
		}
		if len(failed) != len(invalid) || !failed[invalid[0]] || !failed[invalid[1]] {
			t.Errorf("workers %d: failed jobs %v, want exactly %v", workers, failed, invalid)
		}
	}
	if m.Mode() != before {
		t.Errorf("the batch pass changed the shared model's mode from %v to %v", before, m.Mode())
	}
}

// TestBatchCancelled pins cancellation: a cancelled context ends the pass
// with context.Canceled before any point is emitted.
func TestBatchCancelled(t *testing.T) {
	plat, m, pred := testSetup(t)
	baselines := map[pdn.Kind]pdn.Model{pdn.IVR: pdn.NewIVRModel(pdn.DefaultParams())}
	var arena pdn.GridArena
	b := NewBatch(baselines, m, pred, &arena)
	s, err := workload.TDPScenario(plat, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 1024)
	for i := range jobs {
		jobs[i] = Job{Kind: pdn.IVR, Scenario: s, TDP: 18}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emitted := 0
	err = b.Evaluate(ctx, 2, jobs, func(int, Mode, *pdn.Result, error) { emitted++ })
	if !errors.Is(err, context.Canceled) || emitted != 0 {
		t.Errorf("err %v after %d emits, want context.Canceled and none", err, emitted)
	}
}

// TestBatchConcurrent shares one Batch — its models, predictor and grid
// arena — between concurrent passes (as concurrent requests do); every
// pass must return the results of a lone serial pass.
func TestBatchConcurrent(t *testing.T) {
	plat, m, pred := testSetup(t)
	var arena pdn.GridArena
	b := NewBatch(testBaselines(t), m, pred, &arena)
	jobs, _ := batchJobs(t, plat)
	run := func(workers int) []pdn.Result {
		out := make([]pdn.Result, len(jobs))
		err := b.Evaluate(context.Background(), workers, jobs, func(i int, _ Mode, res *pdn.Result, err error) {
			if err == nil {
				out[i] = *res
			}
		})
		if err != nil {
			t.Error(err)
		}
		return out
	}
	want := run(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				got := run(2)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("job %d: concurrent pass %+v, serial %+v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
