package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/internal/experiments"
)

const optimizeBody = `{"tdp":15,"pdns":["IVR","MBVR"],"loadline_scales":[0.9,1],"guardband_scales":[1,1.25]}`

func postOptimize(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestOptimizeServedDeterminism is the served half of the optimizer's
// reproducibility contract: the same spec posted twice — including a
// seeded annealing run, whose chains draw from per-chain RNGs — must
// produce byte-identical response bodies (run under -race in CI).
func TestOptimizeServedDeterminism(t *testing.T) {
	ts := testServer(t)
	bodies := []string{
		optimizeBody,
		`{"tdp":15,"loadline_scales":[0.8,0.9,1,1.1],"guardband_scales":[0.8,0.9,1,1.25],
		  "vr_scales":[0.8,1,1.2],"strategy":"anneal","seed":42,"budget":64,"chains":4}`,
	}
	for _, body := range bodies {
		code1, b1 := postOptimize(t, ts, "/v1/optimize", body)
		code2, b2 := postOptimize(t, ts, "/v1/optimize", body)
		if code1 != http.StatusOK || code2 != http.StatusOK {
			t.Fatalf("statuses %d, %d: %s", code1, code2, b1)
		}
		if b1 != b2 {
			t.Errorf("same spec served different bodies:\n%s\n%s", b1, b2)
		}
	}
}

func TestOptimizeResponseShape(t *testing.T) {
	ts := testServer(t)
	code, body := postOptimize(t, ts, "/v1/optimize", optimizeBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp api.OptimizeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SpaceSize != 8 || resp.Evaluated != 8 {
		t.Errorf("space %d evaluated %d, want 8/8", resp.SpaceSize, resp.Evaluated)
	}
	if resp.Strategy != "exhaustive" {
		t.Errorf("strategy %q", resp.Strategy)
	}
	if resp.Workers <= 0 {
		t.Errorf("workers %d", resp.Workers)
	}
	if len(resp.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range resp.Frontier {
		if p.Config.PDN != "IVR" && p.Config.PDN != "MBVR" {
			t.Errorf("frontier pdn %q outside the spec", p.Config.PDN)
		}
		if !(p.Scores.Cost > 0) || !(p.Scores.BatteryPower > 0) || !(p.Scores.Performance > 0) {
			t.Errorf("implausible scores %+v", p.Scores)
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body, wantCode string
		wantStatus           int
	}{
		{"malformed", `{`, "invalid_spec", http.StatusBadRequest},
		{"unknown field", `{"tdp":15,"pdnz":["IVR"]}`, "invalid_spec", http.StatusBadRequest},
		{"bad pdn", `{"tdp":15,"pdns":["XVR"]}`, "invalid_spec", http.StatusBadRequest},
		{"bad objective", `{"tdp":15,"objectives":["speed"]}`, "invalid_spec", http.StatusBadRequest},
		{"bad strategy", `{"tdp":15,"strategy":"genetic"}`, "invalid_spec", http.StatusBadRequest},
		{"bad tdp", `{"tdp":900}`, "invalid_spec", http.StatusBadRequest},
		{"bad scale", `{"tdp":15,"vr_scales":[99]}`, "invalid_spec", http.StatusBadRequest},
		{"trailing garbage", `{"tdp":15}garbage`, "invalid_spec", http.StatusBadRequest},
		{"second value", `{"tdp":15} {"tdp":25}`, "invalid_spec", http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/optimize", "/v1/optimize/stream"} {
		for _, tc := range cases {
			code, body := postOptimize(t, ts, path, tc.body)
			if code != tc.wantStatus {
				t.Errorf("%s %s: status %d (want %d): %s", path, tc.name, code, tc.wantStatus, body)
				continue
			}
			var e api.Error
			if err := json.Unmarshal([]byte(body), &e); err != nil || e.Code != tc.wantCode {
				t.Errorf("%s %s: envelope %s, want code %q", path, tc.name, body, tc.wantCode)
			}
		}
	}
}

func TestOptimizeMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/v1/optimize", "/v1/optimize/stream"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != "POST" {
			t.Errorf("GET %s: Allow %q", path, got)
		}
	}
}

// TestOptimizeShedWhenSlotsBusy pins the optimizer's dedicated admission
// budget: with every search slot occupied, a new request is shed with 503
// "overloaded" and a Retry-After header instead of queueing behind a
// seconds-long search.
func TestOptimizeShedWhenSlotsBusy(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	srv := New(envVal, Options{MaxInflightOptimize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if !srv.optBudget.tryAcquire(1) {
		t.Fatal("could not occupy the only search slot")
	}
	defer srv.optBudget.release(1)
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(optimizeBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Code != "overloaded" {
		t.Errorf("envelope %s, want code overloaded", body)
	}
}

// TestOptimizeStreamEvents drains one full stream and pins the protocol:
// NDJSON content type, progress and frontier lines while the search runs,
// exactly one terminal "result" line whose payload matches the buffered
// endpoint's answer for the same spec.
func TestOptimizeStreamEvents(t *testing.T) {
	ts := testServer(t)
	resp, err := ts.Client().Post(ts.URL+"/v1/optimize/stream", "application/json", strings.NewReader(optimizeBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("content type %q", ct)
	}
	var events []api.OptimizeEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ev api.OptimizeEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d events", len(events))
	}
	last := events[len(events)-1]
	if last.Event != api.OptimizeEventResult || last.Result == nil {
		t.Fatalf("terminal event %+v, want result", last)
	}
	frontiers, progress := 0, 0
	for _, ev := range events[:len(events)-1] {
		switch ev.Event {
		case api.OptimizeEventFrontier:
			frontiers++
			if ev.Point == nil {
				t.Error("frontier event without point")
			}
		case api.OptimizeEventProgress:
			progress++
		default:
			t.Errorf("unexpected mid-stream event %q", ev.Event)
		}
	}
	if frontiers == 0 || progress == 0 {
		t.Errorf("%d frontier and %d progress events, want both > 0", frontiers, progress)
	}
	// The stream's terminal result and the buffered endpoint must agree.
	code, body := postOptimize(t, ts, "/v1/optimize", optimizeBody)
	if code != http.StatusOK {
		t.Fatalf("buffered status %d: %s", code, body)
	}
	streamed, err := json.Marshal(last.Result)
	if err != nil {
		t.Fatal(err)
	}
	var buffered api.OptimizeResponse
	if err := json.Unmarshal([]byte(body), &buffered); err != nil {
		t.Fatal(err)
	}
	rebuffered, err := json.Marshal(&buffered)
	if err != nil {
		t.Fatal(err)
	}
	if string(streamed) != string(rebuffered) {
		t.Errorf("stream result differs from buffered:\n%s\n%s", streamed, rebuffered)
	}
}

// TestOptimizeCancelledRequest pins mid-search cancellation: a request
// whose context is already done must abort promptly and write nothing.
func TestOptimizeCancelledRequest(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	srv := New(envVal, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := `{"tdp":15,"loadline_scales":[0.8,0.85,0.9,0.95,1,1.05],"guardband_scales":[0.8,0.9,1,1.1,1.2],
	  "vr_scales":[0.8,0.9,1,1.1,1.2]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled optimize took %v, want prompt abort", d)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled optimize wrote a body: %.120s", rec.Body.String())
	}
}

// TestOptimizeReleasesSlot verifies the inflight budget drains back to
// zero after searches complete, so a burst of sequential searches is not
// starved by leaked slots.
func TestOptimizeReleasesSlot(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postOptimize(t, ts, "/v1/optimize", optimizeBody)
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Errorf("status %d: %s", code, body)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if code, body := postOptimize(t, ts, "/v1/optimize", optimizeBody); code != http.StatusOK {
			t.Fatalf("post-burst search %d: status %d: %s", i, code, body)
		}
	}
}
