package client_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/flexwatts/client"
	"repro/internal/experiments"
	"repro/internal/server"
)

// mixedPoints returns a shuffled batch over all five PDN kinds, both
// predicted FlexWatts modes (4 W and 50 W) and every idle state.
func mixedPoints() []flexwatts.Point {
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
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// sameWire reports whether a served result carries exactly the library
// result's vocabulary and float64 bits.
func sameWire(g api.EvalResult, w flexwatts.Result) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return g.PDN == w.PDN.String() && g.CState == w.CState.String() &&
		same(g.ETEE, w.ETEE) && same(g.PNom, float64(w.PNomTotal)) &&
		same(g.PIn, float64(w.PIn)) && same(g.Loss, float64(w.Loss()))
}

// TestCompactWireRoundTrip pins the compact response encoding on both
// evaluate routes: the raw buffered body is one line plus its newline,
// and every result — read by the SDK or decoded from the raw bodies —
// carries the same float64 bits as the library's Client.EvaluateBatch.
func TestCompactWireRoundTrip(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(server.New(envVal, server.Options{StreamWindow: 7}).Handler())
	t.Cleanup(ts.Close)
	sdk, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	lib, err := flexwatts.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	pts := mixedPoints()
	want, err := lib.EvaluateBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(src string, got []api.EvalResult) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d results for %d points", src, len(got), len(want))
		}
		for i, g := range got {
			if !sameWire(g, want[i]) {
				t.Errorf("%s point %d: served %+v, library %+v", src, i, g, want[i])
			}
		}
	}

	got, err := sdk.EvaluateBatch(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	check("sdk buffered", got)
	got = got[:0]
	if err := sdk.EvaluateStream(ctx, pts, func(r api.EvalStreamResult) error {
		if r.Err() != nil {
			t.Fatalf("stream line %d: %v", r.Index, r.Err())
		}
		got = append(got, *r.Result)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("sdk stream", got)

	req := api.EvalRequest{Points: make([]api.EvalPoint, len(pts))}
	for i, p := range pts {
		req.Points[i] = api.EvalPointFromPoint(p)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", path, resp.StatusCode, err, b)
		}
		return b
	}

	b := raw(api.PathEvaluate)
	if bytes.IndexByte(b, '\n') != len(b)-1 {
		t.Errorf("buffered body is not one line plus its newline: %.200q", b)
	}
	var resp api.EvalResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	check("raw buffered", resp.Results)

	got = got[:0]
	sc := bufio.NewScanner(bytes.NewReader(raw(api.PathEvaluateStream)))
	for i := 0; sc.Scan(); i++ {
		var line api.EvalStreamResult
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Index != i || line.Result == nil {
			t.Fatalf("stream line %d: %v: %q", i, err, sc.Text())
		}
		got = append(got, *line.Result)
	}
	check("raw stream", got)
}
