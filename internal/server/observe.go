package server

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"time"

	"repro/flexwatts/api"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Route labels of the instrumented surface. Label sets are pre-registered
// (internal/metrics keeps cardinality static), so every handler must map
// to one of these.
const (
	routeHealthz        = "healthz"
	routeReadyz         = "readyz"
	routeMetrics        = "metrics"
	routeExperiments    = "experiments"
	routeExperiment     = "experiment"
	routeEvaluate       = "evaluate"
	routeEvaluateStream = "evaluate_stream"
	routeOptimize       = "optimize"
	routeOptimizeStream = "optimize_stream"
	routePprof          = "pprof"
)

var routes = []string{
	routeHealthz, routeReadyz, routeMetrics,
	routeExperiments, routeExperiment,
	routeEvaluate, routeEvaluateStream,
	routeOptimize, routeOptimizeStream, routePprof,
}

// statusClasses the counters distinguish; an exotic status lands in its
// class, so no request escapes the books.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// Shed reasons for the load-shedding counter.
const (
	shedRateLimited = "rate_limited"
	shedOverloaded  = "overloaded"
)

// serverMetrics wires every instrument the daemon exports on /metrics.
// Construction pre-registers the full (route × status class) matrix.
type serverMetrics struct {
	reg      *metrics.Registry
	requests map[string]map[string]*metrics.Counter // route -> class -> count
	latency  map[string]*metrics.Histogram          // route -> seconds
	shed     map[string]*metrics.Counter            // reason -> count

	inflightSweeps *metrics.Gauge
	inflightPoints *metrics.Gauge
	pointsTotal    *metrics.Counter
	streamedTotal  *metrics.Counter
	panics         *metrics.Counter

	optimizeInflight   *metrics.Gauge
	optimizeCandidates *metrics.Counter
	optimizeFrontier   *metrics.Gauge
	optimizeSeconds    *metrics.Histogram
}

// newServerMetrics builds the registry over the shared evaluation cache
// and the server's start time.
func newServerMetrics(cache *sweep.Cache, start time.Time) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: map[string]map[string]*metrics.Counter{},
		latency:  map[string]*metrics.Histogram{},
		shed:     map[string]*metrics.Counter{},
	}
	for _, route := range routes {
		byClass := map[string]*metrics.Counter{}
		for _, class := range statusClasses {
			byClass[class] = reg.Counter("flexwattsd_requests_total",
				"Requests served, by route and status class.",
				"route", route, "status", class)
		}
		m.requests[route] = byClass
		m.latency[route] = reg.Histogram("flexwattsd_request_seconds",
			"Request latency in seconds, by route.",
			metrics.LatencyBuckets(), "route", route)
	}
	for _, reason := range []string{shedRateLimited, shedOverloaded} {
		m.shed[reason] = reg.Counter("flexwattsd_shed_total",
			"Requests shed by admission control, by reason.",
			"reason", reason)
	}
	m.inflightSweeps = reg.Gauge("flexwattsd_inflight_sweeps",
		"Evaluate sweeps currently running.")
	m.inflightPoints = reg.Gauge("flexwattsd_inflight_points",
		"Evaluation points currently admitted against the inflight budget.")
	m.pointsTotal = reg.Counter("flexwattsd_points_evaluated_total",
		"Evaluation points completed, buffered and streamed.")
	m.streamedTotal = reg.Counter("flexwattsd_points_streamed_total",
		"Evaluation points delivered over /v1/evaluate/stream.")
	m.panics = reg.Counter("flexwattsd_panics_total",
		"Handler panics recovered by the serving middleware.")
	m.optimizeInflight = reg.Gauge("flexwattsd_optimize_inflight",
		"Design-space searches currently running.")
	m.optimizeCandidates = reg.Counter("flexwattsd_optimize_candidates_total",
		"Design-space candidates evaluated by the optimizer endpoints.")
	m.optimizeFrontier = reg.Gauge("flexwattsd_optimize_frontier_size",
		"Pareto frontier size last reported by a running search.")
	m.optimizeSeconds = reg.Histogram("flexwattsd_optimize_seconds",
		"Design-space search wall time in seconds.",
		metrics.LatencyBuckets())

	reg.CounterFunc("flexwattsd_cache_hits_total",
		"Evaluation cache hits of the shared sweep cache.",
		func() float64 { h, _ := cache.Stats(); return float64(h) })
	reg.CounterFunc("flexwattsd_cache_misses_total",
		"Evaluation cache misses of the shared sweep cache.",
		func() float64 { _, mi := cache.Stats(); return float64(mi) })
	reg.GaugeFunc("flexwattsd_cache_keys",
		"Distinct (kind, scenario) keys in the shared sweep cache.",
		func() float64 { return float64(cache.Len()) })
	reg.GaugeFunc("flexwattsd_cache_hit_ratio",
		"Cache hits / (hits + misses); 0 before any evaluation.",
		func() float64 {
			h, mi := cache.Stats()
			if h+mi == 0 {
				return 0
			}
			return float64(h) / float64(h+mi)
		})
	reg.GaugeFunc("flexwattsd_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(start).Seconds() })
	return m
}

// observe books one finished request.
func (m *serverMetrics) observe(route string, status int, d time.Duration) {
	if byClass, ok := m.requests[route]; ok {
		byClass[statusClass(status)].Inc()
	}
	if h, ok := m.latency[route]; ok {
		h.Observe(d.Seconds())
	}
}

// statusWriter captures the response status and byte count while
// forwarding Flush, so streaming handlers keep their incremental writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer when it supports flushing —
// the streaming endpoint depends on this passthrough.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.NewResponseController can
// reach the connection's extended controls (per-request write deadlines).
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

// accessRecord is one structured access-log line.
type accessRecord struct {
	Time     string  `json:"time"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Route    string  `json:"route"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	Duration float64 `json:"duration_s"`
	Remote   string  `json:"remote"`
}

// instrument wraps a handler with the serving tier's bookkeeping: latency
// histogram and request counter under the route label, plus one JSON
// access-log line per request when access logging is configured.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		// Book the request whatever happens below — deferred first so it
		// still runs when the panic guard re-panics to abort a stream.
		defer func() {
			if sw.status == 0 {
				// Handler wrote nothing (e.g. aborted by client disconnect).
				sw.status = http.StatusOK
			}
			d := time.Since(start)
			s.metrics.observe(route, sw.status, d)
			if s.opts.AccessLog != nil {
				line, err := json.Marshal(accessRecord{
					Time:     start.UTC().Format(time.RFC3339Nano),
					Method:   r.Method,
					Path:     r.URL.Path,
					Route:    route,
					Status:   sw.status,
					Bytes:    sw.bytes,
					Duration: d.Seconds(),
					Remote:   clientKey(r),
				})
				if err == nil {
					s.opts.AccessLog.Println(string(line))
				}
			}
		}()
		// Contain handler panics: one broken request must not take the
		// daemon down. If the response has not started, the client gets
		// the uniform internal-error envelope; mid-response (a committed
		// stream) the connection is aborted instead — injecting an error
		// envelope into half-sent NDJSON would corrupt every line after
		// it, and an aborted connection is unambiguous to the client.
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel identity per net/http contract
				panic(rec)
			}
			s.metrics.panics.Inc()
			s.logf("flexwattsd: panic serving %s %s: %v\n%s",
				r.Method, r.URL.Path, rec, debug.Stack())
			if sw.status == 0 {
				writeJSON(sw, http.StatusInternalServerError,
					api.Error{Code: "internal", Message: "internal server error"})
				return
			}
			panic(http.ErrAbortHandler)
		}()
		h(sw, r)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w) //nolint:errcheck // client gone, nothing to do
}
