package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/flexwatts/report"
	"repro/internal/experiments"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// testEnv builds one shared evaluation environment; predictor
// characterization dominates its cost.
var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(New(envVal, Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var h api.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Experiments == 0 || h.Workers == 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestListExperiments(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var listing struct {
		Experiments []api.ExperimentInfo `json:"experiments"`
		Formats     []report.Format      `json:"formats"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) != len(experiments.IDs()) {
		t.Errorf("%d experiments listed, want %d", len(listing.Experiments), len(experiments.IDs()))
	}
	if len(listing.Formats) != 3 {
		t.Errorf("formats = %v", listing.Formats)
	}
}

// TestExperimentASCIIMatchesGolden pins the served ASCII body to the same
// golden files the CLI is pinned to: the HTTP surface and `flexwatts -exp
// {id}` must be byte-identical.
func TestExperimentASCIIMatchesGolden(t *testing.T) {
	ts := testServer(t)
	for _, id := range []string{"tab1", "fig4j", "fig5"} {
		code, body, hdr := get(t, ts, "/v1/experiments/"+id+"?format=ascii")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", id, code, body)
		}
		if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: content type %q", id, ct)
		}
		golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(body), golden) {
			t.Errorf("%s: served ASCII differs from golden", id)
		}
	}
}

func TestExperimentJSONAndCSV(t *testing.T) {
	ts := testServer(t)
	code, body, hdr := get(t, ts, "/v1/experiments/tab2?format=json")
	if code != http.StatusOK {
		t.Fatalf("json status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json content type %q", ct)
	}
	var d report.Dataset
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("body is not a dataset: %v", err)
	}
	if d.ID != "tab2" {
		t.Errorf("dataset id %q", d.ID)
	}

	code, body, hdr = get(t, ts, "/v1/experiments/tab2?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("csv content type %q", ct)
	}
	if !strings.Contains(body, "Parameter,IVR,MBVR,LDO\n") {
		t.Errorf("csv body missing header: %q", body)
	}
}

func TestExperimentErrors(t *testing.T) {
	ts := testServer(t)
	if code, body, _ := get(t, ts, "/v1/experiments/fig99"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d: %s", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/experiments/tab1?format=xml"); code != http.StatusBadRequest {
		t.Errorf("bad format: status %d: %s", code, body)
	}
	if code, body, _ := get(t, ts, "/v1/experiments/tab1/extra"); code != http.StatusNotFound {
		t.Errorf("nested path: status %d: %s", code, body)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments/tab1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST to experiment: status %d", resp.StatusCode)
	}
}

// TestConcurrentClientsIdenticalBodies is the serving determinism contract:
// parallel clients requesting the same experiment must receive byte-identical
// bodies in every format (run under -race in CI, doubling as the server's
// data-race gate over the shared env and dataset memo).
func TestConcurrentClientsIdenticalBodies(t *testing.T) {
	ts := testServer(t)
	const clients = 8
	for _, format := range []string{"ascii", "json", "csv"} {
		format := format
		t.Run(format, func(t *testing.T) {
			bodies := make([]string, clients)
			var wg sync.WaitGroup
			wg.Add(clients)
			for i := 0; i < clients; i++ {
				i := i
				go func() {
					defer wg.Done()
					resp, err := ts.Client().Get(ts.URL + "/v1/experiments/fig5?format=" + format)
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					b, err := io.ReadAll(resp.Body)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("status %d: %s", resp.StatusCode, b)
						return
					}
					bodies[i] = string(b)
				}()
			}
			wg.Wait()
			for i := 1; i < clients; i++ {
				if bodies[i] != bodies[0] {
					t.Fatalf("client %d body differs from client 0", i)
				}
			}
		})
	}
}

func postEvaluate(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
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

// TestEvaluateBatch posts a mixed batch — baselines, FlexWatts, an idle
// state — and cross-checks the served numbers against direct evaluation.
func TestEvaluateBatch(t *testing.T) {
	ts := testServer(t)
	code, body := postEvaluate(t, ts, `{"points":[
		{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6},
		{"pdn":"MBVR","tdp":18,"workload":"multi-thread","ar":0.6},
		{"pdn":"FlexWatts","tdp":4,"workload":"single-thread","ar":0.5},
		{"pdn":"LDO","cstate":"C6"}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp api.EvalResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	// Cross-check the first point against a direct evaluation.
	s, err := workload.TDPScenario(envVal.Platform, 18, workload.MultiThread, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := envVal.Eval(pdn.IVR, s)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0]
	if got.PDN != "IVR" || got.ETEE != want.ETEE || got.PIn != want.PIn {
		t.Errorf("served result %+v, want ETEE %g PIn %g", got, want.ETEE, want.PIn)
	}
	if resp.Results[3].CState != "C6" {
		t.Errorf("idle point cstate %q", resp.Results[3].CState)
	}
	for i, r := range resp.Results {
		if !(r.ETEE > 0 && r.ETEE < 1) || r.Loss <= 0 {
			t.Errorf("result %d implausible: %+v", i, r)
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"empty", `{"points":[]}`, http.StatusBadRequest},
		{"malformed", `{`, http.StatusBadRequest},
		{"unknown field", `{"pts":[]}`, http.StatusBadRequest},
		{"bad pdn", `{"points":[{"pdn":"XVR","tdp":4,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest},
		{"bad workload", `{"points":[{"pdn":"IVR","tdp":4,"workload":"mining","ar":0.5}]}`, http.StatusBadRequest},
		{"bad cstate", `{"points":[{"pdn":"IVR","cstate":"C99"}]}`, http.StatusBadRequest},
		{"bad tdp", `{"points":[{"pdn":"IVR","tdp":900,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest},
		{"contradictory idle+active", `{"points":[{"pdn":"IVR","cstate":"C6","workload":"multi-thread","ar":0.6}]}`, http.StatusBadRequest},
		// ARs below workload.MinAR overflowed the peak-current term: a
		// handler panic (500) for MBVR, p_in ≈ 1e298 W (200) for FlexWatts.
		{"vanishing ar", `{"points":[{"pdn":"MBVR","tdp":50,"workload":"multi-thread","ar":5e-324}]}`, http.StatusBadRequest},
		{"tiny ar", `{"points":[{"pdn":"FlexWatts","tdp":50,"workload":"multi-thread","ar":1e-300}]}`, http.StatusBadRequest},
		// Bytes after the request value used to be ignored (200).
		{"trailing garbage", `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}garbage`, http.StatusBadRequest},
		{"second value", `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]} {"points":[]}`, http.StatusBadRequest},
		{"trailing whitespace", "{\"points\":[{\"pdn\":\"IVR\",\"tdp\":18,\"workload\":\"multi-thread\",\"ar\":0.6}]}\n\t \r\n", http.StatusOK},
	}
	for _, tc := range cases {
		code, body := postEvaluate(t, ts, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: status %d (want %d): %s", tc.name, code, tc.wantCode, body)
		}
	}
}

func TestEvaluateBatchCap(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(New(envVal, Options{MaxBatch: 2}).Handler())
	defer ts.Close()
	var pts []string
	for i := 0; i < 3; i++ {
		pts = append(pts, `{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}`)
	}
	body := fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ","))
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", resp.StatusCode)
	}
}

// TestRepeatedEvaluateBypassesCache pins the evaluate routes' cache
// bypass: a repeated batch answers byte-identical bodies on both routes
// and leaves the shared evaluation cache untouched — no keys, hits or
// misses added.
func TestRepeatedEvaluateBypassesCache(t *testing.T) {
	ts := testServer(t)
	body := `{"points":[{"pdn":"I+MBVR","tdp":25,"workload":"graphics","ar":0.45},` +
		`{"pdn":"FlexWatts","tdp":4,"workload":"single-thread","ar":0.5},{"pdn":"LDO","cstate":"C6"}]}`
	hits, misses := envVal.Cache.Stats()
	keys := envVal.Cache.Len()
	for _, path := range []string{"/v1/evaluate", "/v1/evaluate/stream"} {
		code, first := postRaw(t, ts, path, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, first)
		}
		if code, again := postRaw(t, ts, path, body); code != http.StatusOK || again != first {
			t.Errorf("%s: repeated request answered %d with different bytes:\n%s\n%s", path, code, first, again)
		}
	}
	if h, m := envVal.Cache.Stats(); h != hits || m != misses || envVal.Cache.Len() != keys {
		t.Errorf("evaluate touched the cache: hits %d->%d, misses %d->%d, keys %d->%d",
			hits, h, misses, m, keys, envVal.Cache.Len())
	}
}

// TestEvaluateInvalidPointMessage pins the 400 envelope of an invalid
// point on both evaluate routes: the lowest failing index, the
// invalid_point code, and the sentinel's text exactly once.
func TestEvaluateInvalidPointMessage(t *testing.T) {
	ts := testServer(t)
	body := `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6},` +
		`{"pdn":"IVR","tdp":4,"workload":"mining","ar":0.5},{"pdn":"XVR","tdp":4,"workload":"graphics","ar":0.5}]}`
	for _, path := range []string{"/v1/evaluate", "/v1/evaluate/stream"} {
		code, b := postRaw(t, ts, path, body)
		var e api.Error
		if err := json.Unmarshal([]byte(b), &e); err != nil || code != http.StatusBadRequest || e.Code != "invalid_point" {
			t.Fatalf("%s: status %d, body %s", path, code, b)
		}
		if !strings.HasPrefix(e.Message, "point 1: invalid point: ") || strings.Count(e.Message, "invalid point") != 1 {
			t.Errorf("%s: message %q, want one %q after the index", path, e.Message, "invalid point")
		}
	}
}

// TestEvaluateC0WithoutWorkloadExplains pins the error ergonomics: a bare
// cstate "C0" point must say what an active point requires, not complain
// about an unknown empty workload type.
func TestEvaluateC0WithoutWorkloadExplains(t *testing.T) {
	ts := testServer(t)
	code, body := postEvaluate(t, ts, `{"points":[{"pdn":"IVR","cstate":"C0"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, "requires tdp, workload and ar") {
		t.Errorf("error does not explain the active-point fields: %s", body)
	}
}

// TestMethodNotAllowed is the wrong-method table: every endpoint must
// answer 405 with an Allow header naming its permitted methods (RFC 9110
// §15.5.6) and the uniform JSON error envelope — not fall through to a
// handler or a bare 404.
func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodDelete, "/healthz", "GET"},
		{http.MethodPost, "/v1/experiments", "GET"},
		{http.MethodPut, "/v1/experiments", "GET"},
		{http.MethodPost, "/v1/experiments/tab1", "GET"},
		{http.MethodDelete, "/v1/experiments/tab1", "GET"},
		{http.MethodGet, "/v1/evaluate", "POST"},
		{http.MethodPut, "/v1/evaluate", "POST"},
		{http.MethodDelete, "/v1/evaluate", "POST"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow header %q, want %q", got, tc.allow)
			}
			var e api.Error
			if err := json.Unmarshal(body, &e); err != nil || e.Message == "" {
				t.Errorf("body is not the error envelope: %s", body)
			}
		})
	}
}

// TestEvaluateCancelledRequest pins the cancellation contract of the
// serving layer: a /v1/evaluate whose request context is already done must
// abort the sweep promptly and write nothing (there is no client left to
// answer), instead of evaluating the full batch.
func TestEvaluateCancelledRequest(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	srv := New(envVal, Options{})
	var pts []string
	for i := 0; i < DefaultMaxBatch; i++ {
		// Spread the batch over the AR axis so a runaway evaluation could
		// not be served from a single cached cell.
		pts = append(pts, fmt.Sprintf(`{"pdn":"MBVR","tdp":18,"workload":"multi-thread","ar":%.6f}`, 0.40+0.5*float64(i)/DefaultMaxBatch))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate",
		strings.NewReader(fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ",")))).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled evaluate took %v, want prompt abort", d)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled evaluate wrote a body: %.120s", rec.Body.String())
	}
}
