package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/flexwatts"
	"repro/flexwatts/api"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/experiments"
	"repro/internal/pdn"
	"repro/internal/workload"
)

// refDecodeEvalRequest is the frozen reference for the evaluate codec: the
// encoding/json decode and per-point job building the evaluate routes ran
// before the codec replaced them. The differential tests hold the codec to
// its statuses, wire codes, messages and jobs.
func refDecodeEvalRequest(s *Server, w http.ResponseWriter, r *http.Request) (jobs []core.Job, ok bool) {
	var req api.EvalRequest
	if !s.decodeBody(w, r, &req, api.ErrInvalidPoint) {
		return nil, false
	}
	if len(req.Points) == 0 {
		writeErr(w, fmt.Errorf("%w: request has no points", api.ErrInvalidPoint))
		return nil, false
	}
	if len(req.Points) > s.opts.MaxBatch {
		writeErr(w, fmt.Errorf("%w: %d points exceeds the %d-point batch cap",
			api.ErrBatchTooLarge, len(req.Points), s.opts.MaxBatch))
		return nil, false
	}
	jobs = make([]core.Job, len(req.Points))
	for i, p := range req.Points {
		job, err := refBuildJob(s, p)
		if err != nil {
			if !errors.Is(err, api.ErrInvalidPoint) {
				err = fmt.Errorf("%w: %v", api.ErrInvalidPoint, err)
			}
			writeErr(w, fmt.Errorf("point %d: %w", i, err))
			return nil, false
		}
		jobs[i] = job
	}
	return jobs, true
}

// refBuildJob is the frozen per-point half of the reference.
func refBuildJob(s *Server, p api.EvalPoint) (core.Job, error) {
	pt, err := p.Point()
	if err != nil {
		return core.Job{}, err
	}
	if err := pt.Validate(); err != nil {
		return core.Job{}, err
	}
	kind, err := pdn.ParseKind(pt.PDN.String())
	if err != nil {
		return core.Job{}, err
	}
	tdp := float64(pt.TDP)
	if pt.CState != flexwatts.C0 {
		cstate, err := domain.ParseCState(pt.CState.String())
		if err != nil {
			return core.Job{}, err
		}
		if tdp == 0 {
			tdp = 4
		}
		return core.Job{Kind: kind, Scenario: workload.CStateScenario(s.env.Platform, cstate), TDP: tdp}, nil
	}
	wt, err := workload.ParseType(pt.Workload.String())
	if err != nil {
		return core.Job{}, err
	}
	sc, err := workload.TDPScenario(s.env.Platform, tdp, wt, pt.AR)
	if err != nil {
		return core.Job{}, err
	}
	return core.Job{Kind: kind, Scenario: sc, TDP: tdp}, nil
}

// codecServers returns a default server and a tightly capped one, so the
// differential checks also cover the body-size and batch caps.
func codecServers(tb testing.TB) []*Server {
	tb.Helper()
	envOnce.Do(func() { envVal, envErr = experiments.NewEnv() })
	if envErr != nil {
		tb.Fatal(envErr)
	}
	return []*Server{
		New(envVal, Options{}),
		New(envVal, Options{MaxBatch: 3, MaxBodyBytes: 96}),
	}
}

// compareDecode runs body through the codec and the reference on s and
// reports the first difference: acceptance, status, wire code, the message
// (except for the wording of a malformed-body error), or the jobs.
func compareDecode(s *Server, body []byte) error {
	req := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, api.PathEvaluate, bytes.NewReader(body))
	}
	gw, rw := httptest.NewRecorder(), httptest.NewRecorder()
	got, gok := s.decodeEvalRequest(gw, req())
	want, wok := refDecodeEvalRequest(s, rw, req())
	if gok != wok || gw.Code != rw.Code {
		return fmt.Errorf("accepted %v status %d (%s), reference accepted %v status %d (%s)",
			gok, gw.Code, gw.Body, wok, rw.Code, rw.Body)
	}
	if !gok {
		var ge, re api.Error
		if err := json.Unmarshal(gw.Body.Bytes(), &ge); err != nil {
			return fmt.Errorf("error body %q: %v", gw.Body, err)
		}
		if err := json.Unmarshal(rw.Body.Bytes(), &re); err != nil {
			return fmt.Errorf("reference error body %q: %v", rw.Body, err)
		}
		if ge.Code != re.Code {
			return fmt.Errorf("code %q, reference %q", ge.Code, re.Code)
		}
		const malformed = "bad request body: "
		if strings.Contains(re.Message, malformed) != strings.Contains(ge.Message, malformed) ||
			!strings.Contains(re.Message, malformed) && ge.Message != re.Message {
			return fmt.Errorf("message %q, reference %q", ge.Message, re.Message)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("jobs differ from the reference's")
	}
	return nil
}

// codecBodies are request bodies that probe the wire contract's corners.
var codecBodies = []string{
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"multi-thread","ar":0.6}]}`,
	`{"points":[{"pdn":"FlexWatts","tdp":4,"workload":"Single-Thread","ar":0.5},{"pdn":"LDO","cstate":"C6"}]}`,
	`{"points":[{"pdn":"I+MBVR","tdp":50,"workload":"Graphics","ar":1},{"pdn":"imbvr","cstate":"c0min","tdp":8}]}`,
	` {"points" : [ {"pdn" : "MBVR" , "cstate" : "C8" } ] } ` + "\n\t\r",
	// Case-insensitive and Unicode-folded keys (ſ folds to s, K to k).
	`{"POINTS":[{"PDN":"IVR","Tdp":18,"WorkLoad":"mt","aR":0.6}]}`,
	`{"points":[{"pdn":"IVR","cſtate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"worKload":"mt","ar":0.6}]}`,
	// Escaped and non-ASCII strings.
	`{"p\u006fints":[{"pdn":"\u0049VR","tdp":18,"workload":"multi\u002Dthread","ar":0.6}]}`,
	`{"points":[{"pdn":"IVRé","cstate":"C6"}]}`,
	`{"points":[{"pdn":"é𐀀\ud800x\"\\\/\b\f\n\r\t","cstate":"C6"}]}`,
	"{\"points\":[{\"pdn\":\"\xff\xfe\",\"cstate\":\"C6\"}]}",
	// Nulls: values and elements leave their target unchanged.
	`{"points":[{"pdn":"IVR","tdp":null,"workload":null,"ar":null,"cstate":"C6"}]}`,
	`{"points":[null]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"},null]}`,
	`{"points":null}`,
	`null`,
	`{}`,
	`{"points":[]}`,
	// Duplicate keys: the later value wins; later points arrays merge.
	`{"points":[{"pdn":"IVR","pdn":"LDO","cstate":"C6","cstate":null}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6}],"points":[{"pdn":"LDO"}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6},{"pdn":"MBVR","cstate":"C2"}],"points":[{"ar":0.7},{"pdn":"LDO"}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6},{"pdn":"MBVR","cstate":"C2"}],"points":[null],"points":[{"ar":0.9},null]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6}],"points":null,"points":[{"pdn":"LDO","cstate":"C3"}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6}],"points":[],"points":[{"ar":0.5}]}`,
	`{"points":[{"pdn":"bogus"}],"points":[{"pdn":"IVR","cstate":"C6"}]}`,
	// Numbers.
	`{"points":[{"pdn":"IVR","tdp":1.8e1,"workload":"mt","ar":6E-1}]}`,
	`{"points":[{"pdn":"IVR","tdp":-0,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":1e400,"workload":"mt","ar":0.6}]}`,
	`{"points":[{"pdn":"IVR","tdp":1e-400,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":01,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":1.,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":.5,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":+1,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":1e,"cstate":"C6"}]}`,
	`{"points":[{"pdn":"IVR","tdp":-,"cstate":"C6"}]}`,
	// Wrong types and unknown fields.
	`{"points":[{"pdn":"IVR","tdp":"18","workload":"mt","ar":0.6}]}`,
	`{"points":[{"pdn":5}]}`,
	`{"points":[{"pdn":true}]}`,
	`{"points":[{"pdn":{"a":[1,2]}}]}`,
	`{"points":[5]}`,
	`{"points":["IVR"]}`,
	`{"points":[[]]}`,
	`{"points":{}}`,
	`{"points":"x"}`,
	`{"points":[{"pdn":"IVR","cstate":"C6","extra":1}]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}],"extra":{"deep":[null,true,false,"s",-1.5e3]}}`,
	`[]`,
	`"points"`,
	`123`,
	`true`,
	// Invalid points, the batch cap and their precedence.
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0.6},{"pdn":"XVR"}]}`,
	`{"points":[{"pdn":"IVR","tdp":900,"workload":"mt","ar":0.6}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"Battery-Life","ar":0.6}]}`,
	`{"points":[{"pdn":"IVR","tdp":18}]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6","ar":0.5}]}`,
	`{"points":[{"pdn":"IVR","cstate":"C9"}]}`,
	`{"points":[{"pdn":"IVR","tdp":18,"workload":"mt","ar":0}]}`,
	`{"points":[{},{},{},{}]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"},{"pdn":"IVR","cstate":"C6"},{"pdn":"IVR","cstate":"C6"},{"pdn":"IVR","cstate":"C6"}]}`,
	`{"points":[{},{},{},{}],"x":1}`,
	// Syntax errors, truncation and trailing data.
	``,
	`   `,
	`{`,
	`{"points":[`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}],}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"},]}`,
	`{,"points":[]}`,
	`{"points" [] }`,
	`{'points':[]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]}garbage`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} {"points":[]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} "tail"`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} 12`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} ]`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} nul`,
	"{\"points\":[{\"pdn\":\"I\tVR\"}]}",
	`{"points":[{"pdn":"\x"}]}`,
	`{"points":[{"pdn":"\u12G4"}]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]}` + strings.Repeat(" ", 100),
	`{"points":[{"pdn":"IVR","cstate":"C6"}],"x":"` + strings.Repeat("a", 100) + `"}`,
	`{"x":[` + strings.Repeat("[", 10001) + `]}`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]} "` + strings.Repeat("a", 100) + `"`,
	`{"points":[{"pdn":"IVR","cstate":"C6"}]}` + strings.Repeat(" ", 48) + `"a"`,
	strings.Repeat(" ", 95) + `1`,
	strings.Repeat(" ", 94) + `"a"`,
	strings.Repeat(" ", 92) + `null`,
}

// TestDecodeEvalRequestMatchesReference pins the codec to the reference on
// the wire contract's corners, on a default and a tightly capped server.
func TestDecodeEvalRequestMatchesReference(t *testing.T) {
	for _, s := range codecServers(t) {
		for _, body := range codecBodies {
			if err := compareDecode(s, []byte(body)); err != nil {
				t.Errorf("MaxBodyBytes %d, body %.120q: %v", s.opts.MaxBodyBytes, body, err)
			}
		}
	}
}

// FuzzDecodeEvalRequest holds the codec to the frozen encoding/json
// reference on arbitrary bodies: the same status, wire code and message on
// every rejection (the wording of a malformed-body error aside), and
// reflect.DeepEqual jobs on every accepted body.
func FuzzDecodeEvalRequest(f *testing.F) {
	servers := codecServers(f)
	for _, body := range codecBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, s := range servers {
			if err := compareDecode(s, body); err != nil {
				t.Fatalf("MaxBodyBytes %d: %v", s.opts.MaxBodyBytes, err)
			}
		}
	})
}

// edgeFloats exercise every branch of encoding/json's float formatting.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-10,
	1e20, 1e21, -1e21, 123456789e20, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 0.8412345678901234, 12.5, -3.25e-5, 1e-100,
}

// TestEvalEncodingByteIdentical pins both evaluate routes' encoders to
// json.Encoder's bytes for edge floats and for strings that need escaping.
func TestEvalEncodingByteIdentical(t *testing.T) {
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	results := make([]api.EvalResult, len(edgeFloats))
	for i, f := range edgeFloats {
		g := edgeFloats[(i+7)%len(edgeFloats)]
		results[i] = api.EvalResult{PDN: "I+MBVR", CState: "C0MIN", ETEE: f, PNom: -f, PIn: g, Loss: f / 3}
	}
	for _, rs := range [][]api.EvalResult{results, results[:1], {}, nil} {
		resp := api.EvalResponse{Results: rs, Workers: 3}
		got, err := appendEvalResponse(nil, resp.Results, resp.Workers)
		if want := encode(resp); err != nil || !bytes.Equal(got, want) {
			t.Errorf("response:\n got %s (%v)\nwant %s", got, err, want)
		}
	}
	lines := []api.EvalStreamResult{
		{Index: 0, Result: &results[0]},
		{Index: 41, Result: &results[9]},
		{Index: 7, Code: "evaluation_failed", Error: `point <3> & "x"` + "\n\t  \x01\xff é"},
		{Index: 2, Code: "evaluation_failed"},
		{Index: 3},
	}
	for i := range results {
		lines = append(lines, api.EvalStreamResult{Index: i, Result: &results[i]})
	}
	for _, line := range lines {
		got, err := appendStreamLine(nil, &line)
		if want := encode(line); err != nil || !bytes.Equal(got, want) {
			t.Errorf("stream line:\n got %s (%v)\nwant %s", got, err, want)
		}
	}
}

// TestAppendStringMatchesJSON pins the string escaper to json.Marshal on
// every single byte and on multi-byte and invalid sequences.
func TestAppendStringMatchesJSON(t *testing.T) {
	inputs := []string{"", "IVR", "I+MBVR", "é", "  ", "\xff", "a\xe2\x80", "<&>", "日本\x00\x1f\x7f"}
	for c := 0; c < 256; c++ {
		inputs = append(inputs, string([]byte{'a', byte(c), 'z'}))
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestEncodeNonFiniteIsError pins NaN and ±Inf as encoding errors with
// encoding/json's message, on both routes' encoders.
func TestEncodeNonFiniteIsError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := api.EvalResult{PDN: "IVR", CState: "C0", PIn: f}
		_, want := json.Marshal(r)
		if _, err := appendEvalResponse(nil, []api.EvalResult{r}, 1); err == nil || err.Error() != want.Error() {
			t.Errorf("response with %v: err %v, want %v", f, err, want)
		}
		if _, err := appendStreamLine(nil, &api.EvalStreamResult{Result: &r}); err == nil || err.Error() != want.Error() {
			t.Errorf("stream line with %v: err %v, want %v", f, err, want)
		}
	}
}

// TestEvaluateRoutesByteIdentical serves a mixed batch on both routes and
// pins every body to json.Encoder's rendering of the value it decodes to.
func TestEvaluateRoutesByteIdentical(t *testing.T) {
	h := codecServers(t)[0].Handler()
	var pts []string
	for i, k := range []string{"FlexWatts", "IVR", "MBVR", "LDO", "I+MBVR"} {
		for j, wl := range []string{"Single-Thread", "Multi-Thread", "Graphics"} {
			pts = append(pts, fmt.Sprintf(`{"pdn":%q,"tdp":%g,"workload":%q,"ar":%g}`,
				k, []float64{4, 8, 10, 18, 25, 36, 50}[(i+j)%7], wl, 0.05+0.25*float64(j)+0.1*float64(i)))
		}
		pts = append(pts, fmt.Sprintf(`{"pdn":%q,"cstate":"C%d"}`, k, []int{2, 3, 6, 7, 8}[i]))
	}
	body := `{"points":[` + strings.Join(pts, ",") + `]}`
	serve := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	reencode := func(b []byte, v any) []byte {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := json.NewEncoder(&out).Encode(v); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	got := serve(api.PathEvaluate)
	if want := reencode(got, new(api.EvalResponse)); !bytes.Equal(got, want) {
		t.Errorf("buffered body:\n got %s\nwant %s", got, want)
	}
	lines := bytes.SplitAfter(serve(api.PathEvaluateStream), []byte("\n"))
	if n := len(lines) - 1; n != len(pts) || len(lines[n]) != 0 {
		t.Fatalf("%d stream lines for %d points", n, len(pts))
	}
	for _, line := range lines[:len(pts)] {
		if want := reencode(line, new(api.EvalStreamResult)); !bytes.Equal(line, want) {
			t.Errorf("stream line:\n got %s\nwant %s", line, want)
		}
	}
}
