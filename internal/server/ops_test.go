package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/flexwatts/api"
	"repro/internal/experiments"
)

// optServer stands up a server with explicit options over the shared env.
func optServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	ts := httptest.NewServer(New(envVal, opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// arBatch renders a JSON evaluate body of n MBVR points spread over the
// AR axis, so no two points share a cache cell.
func arBatch(n int) string {
	var pts []string
	for i := 0; i < n; i++ {
		pts = append(pts, fmt.Sprintf(`{"pdn":"MBVR","tdp":18,"workload":"multi-thread","ar":%.8f}`,
			0.40+0.5*float64(i)/float64(n)))
	}
	return fmt.Sprintf(`{"points":[%s]}`, strings.Join(pts, ","))
}

// streamLines posts body to /v1/evaluate/stream and parses every NDJSON
// line.
func streamLines(t *testing.T, ts *httptest.Server, body string) (int, []api.EvalStreamResult, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []api.EvalStreamResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r api.EvalStreamResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines, resp.Header
}

// TestEvaluateStreamMatchesBuffered is the endpoint-parity contract: the
// same batch through /v1/evaluate and /v1/evaluate/stream must produce the
// same results, with stream lines index-tagged in order.
func TestEvaluateStreamMatchesBuffered(t *testing.T) {
	ts := testServer(t)
	body := arBatch(100)

	code, buffered := postEvaluate(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("buffered status %d: %s", code, buffered)
	}
	var resp api.EvalResponse
	if err := json.Unmarshal([]byte(buffered), &resp); err != nil {
		t.Fatal(err)
	}

	scode, lines, hdr := streamLines(t, ts, body)
	if scode != http.StatusOK {
		t.Fatalf("stream status %d", scode)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("stream content type %q", ct)
	}
	if len(lines) != len(resp.Results) {
		t.Fatalf("stream delivered %d lines, buffered %d results", len(lines), len(resp.Results))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d carries index %d (out of order?)", i, line.Index)
		}
		if line.Err() != nil {
			t.Fatalf("line %d: unexpected error %v", i, line.Err())
		}
		if *line.Result != resp.Results[i] {
			t.Errorf("line %d: stream %+v != buffered %+v", i, *line.Result, resp.Results[i])
		}
	}
}

// TestEvaluateStreamDeterministic pins byte-order determinism: two
// identical stream requests answer with byte-identical NDJSON bodies.
func TestEvaluateStreamDeterministic(t *testing.T) {
	ts := testServer(t)
	body := arBatch(257) // not a multiple of the flush interval
	read := func() string {
		resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	if a, b := read(), read(); a != b {
		t.Error("identical stream requests produced different bytes")
	}
}

// TestEvaluateStreamRejectsBeforeStreaming pins the validation contract:
// everything detectable before the first byte — malformed body, unknown
// vocabulary, batch cap — still answers a clean 4xx with the uniform
// envelope, not a half-started stream.
func TestEvaluateStreamRejectsBeforeStreaming(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"empty", `{"points":[]}`, http.StatusBadRequest},
		{"bad pdn", `{"points":[{"pdn":"XVR","tdp":4,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest},
		{"trailing garbage", `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}garbage`, http.StatusBadRequest},
		{"second value", `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]} {"points":[]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.wantCode, body)
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Message == "" || e.Code == "" {
			t.Errorf("%s: body is not the coded error envelope: %s", tc.name, body)
		}
	}
}

// TestEvaluateStreamClientCancel is the mid-stream cancellation contract:
// a client that walks away mid-stream must abort the server's sweep — the
// handler finishes without evaluating the whole grid, and no goroutine is
// left behind (the suite runs under -race in CI).
func TestEvaluateStreamClientCancel(t *testing.T) {
	const n = 100_000
	ts := optServer(t, Options{MaxBatch: n, MaxBodyBytes: 32 << 20})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/evaluate/stream", strings.NewReader(arBatch(n)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line, then hang up: the unread remainder overflows the
	// socket buffers, the server's write blocks, and cancellation must
	// reach the sweep.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler must wind down: in-flight sweeps return to zero and the
	// goroutine count recovers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("handler did not wind down: %d goroutines (was %d)", runtime.NumGoroutine(), before)
		}
		// Allow the httptest server's per-connection goroutines a moment.
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShedRateLimited pins the 429 contract: a client past its token
// bucket is shed with Retry-After and the coded envelope, and an
// errors.Is-able sentinel on the wire.
func TestShedRateLimited(t *testing.T) {
	ts := optServer(t, Options{RatePerClient: 0.5, BurstPerClient: 1})
	body := `{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}`

	code, _ := postRaw(t, ts, "/v1/evaluate", body)
	if code != http.StatusOK {
		t.Fatalf("first request status %d", code)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429: %s", resp.StatusCode, b)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var e api.Error
	if err := json.Unmarshal(b, &e); err != nil || e.Code != "rate_limited" {
		t.Errorf("429 body %s, want code rate_limited", b)
	}
}

// TestShedOverloaded pins the 503 contract: when the inflight-points
// budget is held by other work, a new batch is shed with Retry-After
// instead of queueing.
func TestShedOverloaded(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	srv := New(envVal, Options{MaxInflightPoints: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the budget as a concurrent batch would.
	if !srv.budget.tryAcquire(8) {
		t.Fatal("could not occupy the budget")
	}
	defer srv.budget.release(8)

	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json",
		strings.NewReader(arBatch(5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, b)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var e api.Error
	if err := json.Unmarshal(b, &e); err != nil || e.Code != "overloaded" {
		t.Errorf("503 body %s, want code overloaded", b)
	}
}

// TestBudgetAdmitsOversizeBatchWhenIdle pins the no-deadlock rule: a
// single batch larger than the whole budget is admitted when nothing else
// is in flight (it could otherwise never run).
func TestBudgetAdmitsOversizeBatchWhenIdle(t *testing.T) {
	b := &pointBudget{max: 10}
	if !b.tryAcquire(100) {
		t.Error("idle budget refused an oversize batch")
	}
	if b.tryAcquire(1) {
		t.Error("saturated budget admitted more work")
	}
	b.release(100)
	if !b.tryAcquire(1) {
		t.Error("released budget refused a small batch")
	}
}

// TestMetricsEndpoint drives a known request sequence and asserts the
// exposition moves: request counters by route, latency histogram counts,
// evaluated points, cache statistics, and zero in-flight sweeps at rest.
func TestMetricsEndpoint(t *testing.T) {
	ts := optServer(t, Options{})
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if code, b := postRaw(t, ts, "/v1/evaluate", arBatch(3)); code != http.StatusOK {
		t.Fatalf("evaluate failed: %d %s", code, b)
	}
	if scode, lines, _ := streamLines(t, ts, arBatch(2)); scode != http.StatusOK || len(lines) != 2 {
		t.Fatalf("stream failed: %d with %d lines", scode, len(lines))
	}
	if code, _, _ := get(t, ts, "/v1/experiments/fig99"); code != http.StatusNotFound {
		t.Fatal("expected 404 for unknown experiment")
	}

	code, body, hdr := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`flexwattsd_requests_total{route="healthz",status="2xx"} 1`,
		`flexwattsd_requests_total{route="evaluate",status="2xx"} 1`,
		`flexwattsd_requests_total{route="evaluate_stream",status="2xx"} 1`,
		`flexwattsd_requests_total{route="experiment",status="4xx"} 1`,
		`flexwattsd_points_evaluated_total 5`,
		`flexwattsd_points_streamed_total 2`,
		`flexwattsd_inflight_sweeps 0`,
		`flexwattsd_inflight_points 0`,
		"# TYPE flexwattsd_request_seconds histogram",
		`flexwattsd_request_seconds_count{route="evaluate"} 1`,
		"# TYPE flexwattsd_cache_hits_total counter",
		"flexwattsd_cache_keys ",
		"flexwattsd_cache_hit_ratio ",
		"flexwattsd_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestErrorEnvelopePerStatus is the writeErr unification table: every
// failure path — malformed JSON, body overflow, batch cap, unknown id,
// wrong method, bad vocabulary — answers with the api.Error envelope
// carrying the wire code that round-trips to the status's sentinel.
func TestErrorEnvelopePerStatus(t *testing.T) {
	ts := optServer(t, Options{MaxBatch: 4, MaxBodyBytes: 256})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed JSON", http.MethodPost, "/v1/evaluate", `{`, http.StatusBadRequest, "invalid_point"},
		{"unknown field", http.MethodPost, "/v1/evaluate", `{"pts":[]}`, http.StatusBadRequest, "invalid_point"},
		{"no points", http.MethodPost, "/v1/evaluate", `{"points":[]}`, http.StatusBadRequest, "invalid_point"},
		{"bad vocabulary", http.MethodPost, "/v1/evaluate",
			`{"points":[{"pdn":"XVR","tdp":4,"workload":"graphics","ar":0.5}]}`, http.StatusBadRequest, "invalid_point"},
		{"batch cap", http.MethodPost, "/v1/evaluate", arBatch(5), http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"body overflow", http.MethodPost, "/v1/evaluate", arBatch(4), http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"stream body overflow", http.MethodPost, "/v1/evaluate/stream", arBatch(4), http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"unknown experiment", http.MethodGet, "/v1/experiments/fig99", "", http.StatusNotFound, "unknown_experiment"},
		{"wrong method", http.MethodDelete, "/v1/evaluate", "", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, b)
			}
			var e api.Error
			if err := json.Unmarshal(b, &e); err != nil || e.Message == "" {
				t.Fatalf("body is not the error envelope: %s", b)
			}
			if e.Code != tc.wantCode {
				t.Errorf("code %q, want %q", e.Code, tc.wantCode)
			}
		})
	}
}

// TestAccessLog pins the structured logging contract: one JSON line per
// request with method, route, status, and duration.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	ts := optServer(t, Options{AccessLog: logger})
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if code, _, _ := get(t, ts, "/v1/experiments/fig99"); code != http.StatusNotFound {
		t.Fatal("expected 404")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2: %q", len(lines), buf.String())
	}
	var rec struct {
		Method   string  `json:"method"`
		Path     string  `json:"path"`
		Route    string  `json:"route"`
		Status   int     `json:"status"`
		Duration float64 `json:"duration_s"`
		Remote   string  `json:"remote"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("access line is not JSON: %q", lines[1])
	}
	if rec.Method != "GET" || rec.Route != "experiment" || rec.Status != http.StatusNotFound ||
		rec.Path != "/v1/experiments/fig99" || rec.Remote == "" {
		t.Errorf("access record %+v", rec)
	}
}

// TestPprofMounted: the profiling surface must answer.
func TestPprofMounted(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index status %d", code)
	}
}

// postRaw posts body to path and returns status and body.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
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

// TestRateLimiterRefill pins the token-bucket math with an injected
// clock: a dry bucket refills at the configured rate and the retry hint
// covers the gap.
func TestRateLimiterRefill(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(2, 2) // 2 rps, burst 2
	l.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, retry := l.allow("a")
	if ok {
		t.Fatal("dry bucket allowed a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retry hint %v, want (0, 500ms] at 2 rps", retry)
	}
	// A different client has its own bucket.
	if ok, _ := l.allow("b"); !ok {
		t.Error("second client shares the first client's bucket")
	}
	// Half a second refills one token at 2 rps.
	now = now.Add(500 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Error("refilled bucket refused a request")
	}
	// Disabled limiter always allows.
	var off *rateLimiter
	if ok, _ := off.allow("x"); !ok {
		t.Error("nil limiter refused")
	}
}

// TestReadyz pins the readiness probe: 200 {"status":"ready"} whenever
// the handler serves.
func TestReadyz(t *testing.T) {
	ts := testServer(t)
	code, body, _ := get(t, ts, "/readyz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r api.Ready
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Status != "ready" {
		t.Errorf("ready = %+v, want status ready", r)
	}
}

// TestPanicRecoveryEnvelope pins the middleware contract for a panic
// before the response starts: the client gets the uniform internal-error
// envelope and the daemon keeps serving.
func TestPanicRecoveryEnvelope(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", s.instrument(routeEvaluate, func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	mux.HandleFunc(api.PathHealthz, s.instrument(routeHealthz, s.handleHealthz))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	before := s.metrics.panics.Value()
	code, body, _ := get(t, ts, "/boom")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d: %s", code, body)
	}
	var e api.Error
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("panic response is not the error envelope: %s", body)
	}
	if e.Code != "internal" {
		t.Errorf("code %q, want internal", e.Code)
	}
	if got := s.metrics.panics.Value(); got != before+1 {
		t.Errorf("panics counter = %v, want %v", got, before+1)
	}
	// The daemon survived.
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after panic: %d", code)
	}
}

// TestPanicMidStreamAbortsCleanly pins the other half: once an NDJSON
// stream has started, a panic must abort the connection — never inject an
// error envelope between lines, which would corrupt the framing for every
// line after it.
func TestPanicMidStreamAbortsCleanly(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stream-boom", s.instrument(routeEvaluateStream, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		for i := 0; i < 3; i++ {
			io.WriteString(w, `{"index":`+string(rune('0'+i))+"}\n") //nolint:errcheck
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic("mid-stream bug")
	}))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/stream-boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before the panic point", resp.StatusCode)
	}
	var lines []string
	var readErr error
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	readErr = sc.Err()
	if readErr == nil {
		t.Error("stream ended cleanly; a mid-stream panic must abort the connection")
	}
	for _, line := range lines {
		if strings.Contains(line, `"internal"`) {
			t.Errorf("error envelope leaked into the NDJSON stream: %s", line)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("corrupt NDJSON line %q: %v", line, err)
		}
	}
}

// TestStreamSurvivesGlobalWriteTimeout proves the stream route's rolling
// write deadline overrides a server-wide WriteTimeout far shorter than the
// stream's duration.
func TestStreamSurvivesGlobalWriteTimeout(t *testing.T) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	s := New(envVal, Options{StreamWriteTimeout: 10 * time.Second})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = 250 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	// A batch big enough to stream past the 250ms write deadline, with the
	// client reading slowly to stretch delivery time.
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i := 0; i < 600; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}`)
	}
	sb.WriteString(`]}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate/stream", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if lines%100 == 0 {
			time.Sleep(60 * time.Millisecond) // stretch past WriteTimeout
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream died after %d lines: %v (global WriteTimeout leaked in?)", lines, err)
	}
	if lines != 600 {
		t.Errorf("received %d lines, want 600", lines)
	}
}
