package flexwatts_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/flexwatts"
)

// mixedBatch returns a shuffled batch over all five PDN kinds: active
// points of every workload type at 4, 18 and 50 W (FlexWatts at 4 W and
// 50 W lands in both predicted modes), and every idle state.
func mixedBatch() []flexwatts.Point {
	kinds := append([]flexwatts.Kind{flexwatts.FlexWatts}, flexwatts.Kinds()...)
	var pts []flexwatts.Point
	for _, k := range kinds {
		for _, tdp := range []flexwatts.Watt{4, 18, 50} {
			for i, wt := range flexwatts.WorkloadTypes() {
				pts = append(pts, flexwatts.Point{PDN: k, TDP: tdp, Workload: wt, AR: 0.35 + 0.2*float64(i)})
			}
		}
		for _, cs := range flexwatts.CStates()[1:] {
			pts = append(pts, flexwatts.Point{PDN: k, CState: cs})
		}
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// sameBits reports whether two values are equal field by field, with
// every float64 compared by its bit pattern.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	}
	panic("sameBits: unsupported kind " + a.Kind().String())
}

// TestEvaluateBatchMixedMatchesEvaluate pins the grouped batch pass to the
// per-point path: a shuffled batch of all five kinds, both predicted
// FlexWatts modes and every idle state must return, at each index, exactly
// the bits Client.Evaluate returns for that point — with the cache on or
// off and on one worker or two.
func TestEvaluateBatchMixedMatchesEvaluate(t *testing.T) {
	pts := mixedBatch()
	for _, opts := range [][]flexwatts.Option{
		nil,
		{flexwatts.WithWorkers(1), flexwatts.WithCache(false)},
		{flexwatts.WithWorkers(2)},
	} {
		c, err := flexwatts.NewClient(opts...)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := c.EvaluateBatch(ctx, pts)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(pts) {
			t.Fatalf("%d results for %d points", len(batch), len(pts))
		}
		modes := map[flexwatts.Mode]int{}
		for i, pt := range pts {
			want, err := c.Evaluate(ctx, pt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(reflect.ValueOf(batch[i]), reflect.ValueOf(want)) {
				t.Errorf("point %d %+v: batch %+v, Evaluate %+v", i, pt, batch[i], want)
			}
			if pt.PDN == flexwatts.FlexWatts && pt.CState == flexwatts.C0 {
				modes[batch[i].Mode]++
			}
		}
		if modes[flexwatts.IVRMode] == 0 || modes[flexwatts.LDOMode] == 0 {
			t.Errorf("FlexWatts points did not cover both modes: %v", modes)
		}
	}
}

// TestEvaluateBatchLowestInvalidIndex pins the error of a batch with
// invalid points at the first, a middle and the last index: the lowest
// failing index is reported, as a serial loop would stop on it.
func TestEvaluateBatchLowestInvalidIndex(t *testing.T) {
	c := newClient(t)
	bad := flexwatts.Point{PDN: flexwatts.IVR, TDP: 18, Workload: flexwatts.MultiThread, AR: 7}
	n := len(mixedBatch())
	mid, last := n/2, n-1
	for _, tc := range []struct {
		invalid []int
		want    int
	}{
		{[]int{0, mid, last}, 0},
		{[]int{mid, last}, mid},
		{[]int{last}, last},
	} {
		pts := mixedBatch()
		for _, i := range tc.invalid {
			pts[i] = bad
		}
		_, err := c.EvaluateBatch(ctx, pts)
		if !errors.Is(err, flexwatts.ErrInvalidPoint) {
			t.Fatalf("invalid at %v: err = %v, want ErrInvalidPoint", tc.invalid, err)
		}
		if want := fmt.Sprintf("point %d: ", tc.want); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("invalid at %v: err = %q, want prefix %q", tc.invalid, err, want)
		}
	}
}
