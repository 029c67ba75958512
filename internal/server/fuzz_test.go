package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/flexwatts/api"
	"repro/internal/experiments"
)

// FuzzEvaluateRequest throws arbitrary bytes at the evaluate request
// decoder — the daemon's main untrusted input surface — and pins that it
// always terminates in one of two states: validated jobs, or a written
// 4xx error envelope. No input may panic, and no failure may leave the
// response unwritten (a hung client). A body the decoder accepts is then
// served end to end through the handler, which must answer a 4xx error
// envelope (never a 5xx) or a 200 whose every result is physically sane.
func FuzzEvaluateRequest(f *testing.F) {
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		f.Fatal(envErr)
	}
	s := New(envVal, Options{})
	h := s.Handler()

	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}`))
	f.Add([]byte(`{"points":[{"pdn":"FlexWatts","tdp":4,"workload":"single-thread","ar":0.5}]}`))
	f.Add([]byte(`{"points":[{"pdn":"LDO","cstate":"C6"}]}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":-1e308,"workload":"multi-thread","ar":2}]}`))
	f.Add([]byte(`{"pts":"nope"}`))
	// Vanishing ARs that overflowed the peak-current term before the
	// workload.MinAR floor: a 500 for MBVR, an absurd 200 for FlexWatts.
	f.Add([]byte(`{"points":[{"pdn":"MBVR","tdp":50,"workload":"multi-thread","ar":5e-324}]}`))
	f.Add([]byte(`{"points":[{"pdn":"FlexWatts","tdp":50,"workload":"multi-thread","ar":1e-300}]}`))
	f.Add([]byte(`{"points":[{"pdn":"MBVR","tdp":50,"workload":"multi-thread","ar":1e-83}]}`))
	// Bytes after the request value, once silently ignored.
	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}garbage`))
	f.Add([]byte(`{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]} {"points":[]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, api.PathEvaluate, bytes.NewReader(body))
		jobs, ok := s.decodeEvalRequest(w, r)
		if !ok {
			if w.Body.Len() == 0 {
				t.Fatal("rejected without writing an error envelope")
			}
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("rejection status %d, want 4xx", w.Code)
			}
			return
		}
		if len(jobs) == 0 {
			t.Fatal("ok with zero jobs")
		}
		if w.Body.Len() != 0 {
			t.Fatalf("ok but response written: %s", w.Body.String())
		}

		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, api.PathEvaluate, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("status %d, want 200 or 4xx: %s", w.Code, w.Body.String())
			}
			var e api.Error
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Code == "" {
				t.Fatalf("status %d without an error envelope: %s", w.Code, w.Body.String())
			}
			return
		}
		var resp api.EvalResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body does not decode: %v: %s", err, w.Body.String())
		}
		if len(resp.Results) != len(jobs) {
			t.Fatalf("%d results for %d points", len(resp.Results), len(jobs))
		}
		for i, res := range resp.Results {
			if err := checkResult(res.ETEE, res.PNom, res.PIn, res.Loss); err != "" {
				t.Errorf("result %d %+v: %s", i, res, err)
			}
		}
	})
}

// checkResult reports the first physical invariant an evaluation result
// breaks, or "" when it has none: every value finite, 0 < ETEE ≤ 1,
// Loss = PIn − PNom within rounding, and Loss and PNom non-negative.
func checkResult(etee, pnom, pin, loss float64) string {
	for _, v := range []float64{etee, pnom, pin, loss} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "non-finite value"
		}
	}
	switch {
	case !(etee > 0 && etee <= 1):
		return "ETEE outside (0,1]"
	case math.Abs(loss-(pin-pnom)) > 1e-9*math.Max(1, math.Abs(pin)):
		return "Loss != PIn - PNom"
	case loss < 0:
		return "negative Loss"
	case pnom < 0:
		return "negative PNom"
	}
	return ""
}
