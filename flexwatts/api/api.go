// Package api defines the wire vocabulary of the flexwattsd HTTP/JSON
// service: request and response bodies, endpoint paths, and the typed
// sentinel errors both sides of the wire agree on. The daemon
// (internal/server) and the SDK (flexwatts/client) consume these same
// definitions, so the two can never drift.
//
// Wire enums are plain strings spelled the way the paper spells them
// ("IVR", "Multi-Thread", "C0MIN", …) and parsed case-insensitively;
// the typed counterparts live in the flexwatts package, with conversions
// in EvalPointFromPoint and EvalPoint.Point.
package api

import (
	"errors"
	"fmt"
	"net/http"

	"repro/flexwatts"
	"repro/flexwatts/report"
)

// Endpoint paths served by flexwattsd.
const (
	// PathHealthz is the liveness endpoint (GET): it answers 200 as long
	// as the process serves requests at all.
	PathHealthz = "/healthz"
	// PathReadyz is the readiness endpoint (GET): it answers 200 with
	// Ready once the listener serves; the daemon has no start-up work
	// to wait for.
	PathReadyz = "/readyz"
	// PathMetrics exposes operational metrics in Prometheus text format
	// (GET).
	PathMetrics = "/metrics"
	// PathExperiments lists experiment ids (GET); one experiment is
	// PathExperiments + "/{id}".
	PathExperiments = "/v1/experiments"
	// PathEvaluate evaluates a batch of points (POST).
	PathEvaluate = "/v1/evaluate"
	// PathEvaluateStream evaluates a batch of points and streams the
	// results back incrementally as NDJSON, one EvalStreamResult per line
	// in point order (POST).
	PathEvaluateStream = "/v1/evaluate/stream"
)

// Sentinel errors of the HTTP API. The server maps them to statuses with
// StatusFor; the client SDK maps statuses back with FromStatus, so
// errors.Is works identically on both sides of the wire.
var (
	// ErrUnknownExperiment: the experiment id is not registered (404).
	ErrUnknownExperiment = errors.New("unknown experiment")
	// ErrInvalidPoint: a request body or evaluation point failed
	// validation (400).
	ErrInvalidPoint = errors.New("invalid point")
	// ErrBatchTooLarge: the batch exceeds the server's point cap (413).
	ErrBatchTooLarge = errors.New("batch too large")
	// ErrMethodNotAllowed: the endpoint exists but not for this HTTP
	// method (405).
	ErrMethodNotAllowed = errors.New("method not allowed")
	// ErrEvaluation: a well-formed point failed to evaluate (422).
	ErrEvaluation = errors.New("evaluation failed")
	// ErrRateLimited: this client exceeded its request rate and should
	// retry after the Retry-After delay (429).
	ErrRateLimited = errors.New("rate limited")
	// ErrOverloaded: the server's inflight-points budget is exhausted and
	// the request was shed; retry after the Retry-After delay (503).
	ErrOverloaded = errors.New("server overloaded")
	// ErrInvalidSpec: an optimizer search spec failed validation (400).
	ErrInvalidSpec = errors.New("invalid spec")
)

// mapping is the single errors ↔ status ↔ wire-code table. Every view of
// the error contract — StatusFor, FromStatus, CodeFor, FromCode — derives
// from this one slice, so the mappings cannot drift apart (the round-trip
// test walks the table).
var mapping = []struct {
	err    error
	status int
	code   string
}{
	{ErrUnknownExperiment, http.StatusNotFound, "unknown_experiment"},
	{ErrInvalidPoint, http.StatusBadRequest, "invalid_point"},
	{ErrBatchTooLarge, http.StatusRequestEntityTooLarge, "batch_too_large"},
	{ErrMethodNotAllowed, http.StatusMethodNotAllowed, "method_not_allowed"},
	{ErrEvaluation, http.StatusUnprocessableEntity, "evaluation_failed"},
	{ErrRateLimited, http.StatusTooManyRequests, "rate_limited"},
	{ErrOverloaded, http.StatusServiceUnavailable, "overloaded"},
	// ErrInvalidSpec sits after ErrInvalidPoint on purpose: both map to
	// 400, and FromStatus returns the table's first match, so the
	// historical FromStatus(400) → ErrInvalidPoint contract holds. Clients
	// distinguish the two by wire code (FromCode "invalid_spec").
	{ErrInvalidSpec, http.StatusBadRequest, "invalid_spec"},
}

// StatusFor returns the HTTP status the API maps err to: the sentinel
// statuses above, 500 for anything unrecognized, and 0 for nil. This is
// the single place where errors become statuses.
func StatusFor(err error) int {
	if err == nil {
		return 0
	}
	for _, m := range mapping {
		if errors.Is(err, m.err) {
			return m.status
		}
	}
	return http.StatusInternalServerError
}

// CodeFor returns the stable machine-readable wire code for err — the
// Error.Code value the server emits — "internal" for an unmapped error,
// and "" for nil.
func CodeFor(err error) string {
	if err == nil {
		return ""
	}
	for _, m := range mapping {
		if errors.Is(err, m.err) {
			return m.code
		}
	}
	return "internal"
}

// FromStatus returns the sentinel a response status maps to, or nil for a
// status the API assigns no sentinel (the caller falls back to a generic
// error). It is StatusFor's inverse, used by the client SDK.
func FromStatus(status int) error {
	for _, m := range mapping {
		if m.status == status {
			return m.err
		}
	}
	return nil
}

// FromCode returns the sentinel a wire code maps to, or nil for an
// unrecognized code. It is CodeFor's inverse.
func FromCode(code string) error {
	for _, m := range mapping {
		if m.code == code {
			return m.err
		}
	}
	return nil
}

// Retryable reports whether err is a shed-load condition (ErrRateLimited
// or ErrOverloaded) that a client may transparently retry after the
// server's Retry-After delay. Everything else is either a caller bug or a
// server bug; retrying would repeat it.
func Retryable(err error) bool {
	return errors.Is(err, ErrRateLimited) || errors.Is(err, ErrOverloaded)
}

// Error is the uniform error response body. Code is the stable
// machine-readable identifier from the sentinel table (CodeFor); Message
// is human-readable detail.
type Error struct {
	Code    string `json:"code,omitempty"`
	Message string `json:"error"`
}

// Health is the GET /healthz response: liveness plus cache statistics of
// the shared evaluation environment.
type Health struct {
	Status      string `json:"status"`
	UptimeS     int64  `json:"uptime_s"`
	Experiments int    `json:"experiments"`
	Workers     int    `json:"workers"`
	CacheKeys   int    `json:"cache_keys"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
}

// Ready is the GET /readyz response; Status is always "ready".
type Ready struct {
	Status string `json:"status"`
}

// ExperimentInfo is one entry of the GET /v1/experiments listing.
type ExperimentInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// ExperimentList is the GET /v1/experiments response.
type ExperimentList struct {
	Experiments []ExperimentInfo `json:"experiments"`
	Formats     []report.Format  `json:"formats"`
}

// EvalPoint is one POST /v1/evaluate request entry: a PDN kind plus either
// an active operating point (tdp, workload, ar) or a package idle state
// (cstate C0MIN or C2 and deeper). For FlexWatts points, Algorithm 1
// predicts the hybrid mode from the point itself; a zero TDP on an
// idle-state point defaults to 4 W (battery-life evaluation is
// TDP-independent, §7.1).
type EvalPoint struct {
	PDN      string  `json:"pdn"`
	TDP      float64 `json:"tdp,omitempty"`
	Workload string  `json:"workload,omitempty"`
	AR       float64 `json:"ar,omitempty"`
	CState   string  `json:"cstate,omitempty"`
}

// EvalPointFromPoint converts a typed evaluation point to its wire form.
func EvalPointFromPoint(p flexwatts.Point) EvalPoint {
	return EvalPoint{
		PDN:      p.PDN.String(),
		TDP:      float64(p.TDP),
		Workload: p.Workload.String(),
		AR:       p.AR,
		CState:   cstateWire(p.CState),
	}
}

// cstateWire renders a package state for the wire, leaving the active
// state implicit (the wire treats a missing cstate as C0).
func cstateWire(c flexwatts.CState) string {
	if c == flexwatts.C0 {
		return ""
	}
	return c.String()
}

// Point parses the wire point back into the typed vocabulary.
func (p EvalPoint) Point() (flexwatts.Point, error) {
	kind, err := flexwatts.ParseKind(p.PDN)
	if err != nil {
		return flexwatts.Point{}, fmt.Errorf("%w: %v", ErrInvalidPoint, err)
	}
	wt, err := flexwatts.ParseWorkloadType(p.Workload)
	if err != nil {
		return flexwatts.Point{}, fmt.Errorf("%w: %v", ErrInvalidPoint, err)
	}
	cs, err := flexwatts.ParseCState(p.CState)
	if err != nil {
		return flexwatts.Point{}, fmt.Errorf("%w: %v", ErrInvalidPoint, err)
	}
	return flexwatts.Point{
		PDN:      kind,
		TDP:      flexwatts.Watt(p.TDP),
		Workload: wt,
		AR:       p.AR,
		CState:   cs,
	}, nil
}

// EvalRequest is the POST /v1/evaluate request body.
type EvalRequest struct {
	Points []EvalPoint `json:"points"`
}

// EvalResult is one evaluated point: the headline PDNspot quantities.
type EvalResult struct {
	PDN    string  `json:"pdn"`
	CState string  `json:"cstate"`
	ETEE   float64 `json:"etee"`
	PNom   float64 `json:"p_nom"`
	PIn    float64 `json:"p_in"`
	Loss   float64 `json:"loss"`
}

// EvalResponse is the POST /v1/evaluate response body.
type EvalResponse struct {
	Results []EvalResult `json:"results"`
	Workers int          `json:"workers"`
}

// EvalStreamResult is one NDJSON line of the POST /v1/evaluate/stream
// response: the result of exactly one request point, tagged with its index
// in the request, carrying either the evaluated result or that point's
// error (never both). Lines arrive in index order; a per-point failure
// does not end the stream — later points still arrive — so a consumer
// keeps every result that made it even when some points fail.
type EvalStreamResult struct {
	Index  int         `json:"index"`
	Result *EvalResult `json:"result,omitempty"`
	// Error is the point's failure, rendered with CodeFor's vocabulary in
	// Code for machine handling.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
}

// Err returns the stream line's error as a typed error — the sentinel for
// its wire code wrapping the message — or nil for a successful line.
func (r EvalStreamResult) Err() error {
	if r.Error == "" && r.Code == "" {
		return nil
	}
	if sentinel := FromCode(r.Code); sentinel != nil {
		return fmt.Errorf("point %d: %w: %s", r.Index, sentinel, r.Error)
	}
	return fmt.Errorf("point %d: %s", r.Index, r.Error)
}
