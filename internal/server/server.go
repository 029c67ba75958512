// Package server implements flexwattsd's HTTP/JSON API: a long-lived
// serving layer over the experiments registry and the zero-alloc PDN
// evaluation core. Every request shares one experiments.Env: experiment
// datasets are computed at most once per process and re-rendered per
// request, and evaluate batches run as one grouped grid-kernel pass per
// request (core.Batch), bypassing the evaluation cache, whose one-off keys
// would cost more to store than to recompute.
//
// The wire vocabulary — request/response bodies, endpoint paths, typed
// sentinel errors and their status mapping — lives in repro/flexwatts/api,
// shared with the flexwatts/client SDK so the two can never drift. Errors
// become statuses in exactly one place (writeErr via api.StatusFor), and
// /v1/evaluate batches run on the request's context, so a disconnected or
// cancelled client aborts the in-flight pass instead of burning the pool.
// JSON responses are compact: one line plus a trailing newline.
//
// The two evaluate routes speak through a hand-written wire codec
// (codec.go) instead of encoding/json: the size-capped body is read once
// and scanned byte by byte, each point's job is built as its object
// closes (enum names resolve through the flexwatts parsers, canonical
// spellings without allocating), and results are appended with
// strconv.AppendFloat into a pooled buffer. It keeps encoding/json's
// contract exactly — the same statuses and wire codes for every body and
// byte-identical 200 bodies, held to a frozen encoding/json reference by
// FuzzDecodeEvalRequest — at a few dozen allocations per request instead
// of nine per point. The other routes keep encoding/json.
//
// Endpoints:
//
//	GET  /healthz                          liveness + cache statistics
//	GET  /readyz                           readiness (200 once the listener serves)
//	GET  /metrics                          Prometheus text exposition
//	GET  /v1/experiments                   registered experiment ids
//	GET  /v1/experiments/{id}?format=F     one experiment (ascii|json|csv)
//	POST /v1/evaluate                      batch of arbitrary evaluation points
//	POST /v1/evaluate/stream               same batch, streamed back as NDJSON
//	POST /v1/optimize                      design-space Pareto search
//	POST /v1/optimize/stream               same search, progress + frontier events as NDJSON
//	GET  /debug/pprof/...                  runtime profiling
//
// The serving tier is observable and self-protecting: every route is
// instrumented (latency histograms, request counters, structured access
// logs), and admission control — a per-client token bucket plus a
// server-wide inflight-points budget — sheds load with 429/503 and a
// Retry-After header instead of queueing unboundedly.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/flexwatts/api"
	"repro/flexwatts/report"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/pdn"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds each request's sweep pool (experiment grids and
	// evaluate batches); <= 0 sizes it by runtime.GOMAXPROCS(0), the
	// sweep.Map contract.
	Workers int
	// MaxBatch caps the points accepted by one /v1/evaluate request;
	// <= 0 means the default of 4096.
	MaxBatch int
	// MaxBodyBytes caps an evaluate request body; <= 0 means the default
	// of 8 MiB. Overflow is shed as api.ErrBatchTooLarge (413).
	MaxBodyBytes int64
	// MaxInflightPoints is the server-wide admission budget: the summed
	// batch sizes inside the evaluate handlers may not exceed it; excess
	// requests are shed with 503 + Retry-After. <= 0 means the default
	// of 16× MaxBatch.
	MaxInflightPoints int
	// RatePerClient grants each client (remote host) this many evaluate
	// requests per second through a token bucket; excess is shed with
	// 429 + Retry-After. <= 0 disables per-client rate limiting.
	RatePerClient float64
	// BurstPerClient is the token bucket's capacity; <= 0 means
	// max(1, RatePerClient).
	BurstPerClient float64
	// RetryAfter is the hint written on 503 shed responses; <= 0 means
	// 1s. (429 responses compute their hint from the bucket's refill.)
	RetryAfter time.Duration
	// StreamWindow is how many points /v1/evaluate/stream evaluates (and
	// holds for in-order delivery) per chunk; <= 0 means
	// DefaultStreamWindow. Memory per stream is O(window), never
	// O(points).
	StreamWindow int
	// StreamWriteTimeout bounds how long one streamed chunk may take to
	// reach the client: the stream handler re-arms a rolling write
	// deadline before every flush, which both exempts the route from the
	// server-wide WriteTimeout (a healthy stream outlives it by design)
	// and unsticks a stalled reader. <= 0 means DefaultStreamWriteTimeout.
	StreamWriteTimeout time.Duration
	// MaxInflightOptimize caps concurrent /v1/optimize searches. A search
	// pins worker-pool capacity for seconds, so the slot count is small;
	// excess searches are shed with 503 + Retry-After. <= 0 means
	// DefaultMaxInflightOptimize.
	MaxInflightOptimize int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request.
	AccessLog *log.Logger
	// ErrorLog, when non-nil, receives operational errors (recovered
	// handler panics with stacks); nil uses the process-default logger.
	ErrorLog *log.Logger
}

// Defaults for the zero Options values.
const (
	// DefaultMaxBatch is the /v1/evaluate batch cap when Options.MaxBatch
	// is unset.
	DefaultMaxBatch = 4096
	// DefaultMaxBodyBytes caps evaluate request bodies (8 MiB).
	DefaultMaxBodyBytes = 8 << 20
	// DefaultRetryAfter is the 503 Retry-After hint.
	DefaultRetryAfter = time.Second
	// DefaultStreamWindow is the /v1/evaluate/stream chunk size when
	// Options.StreamWindow is unset: large enough that each chunk's
	// grid-kernel calls amortize their per-call setup.
	DefaultStreamWindow = 256
	// DefaultStreamWriteTimeout is the per-chunk write deadline on
	// /v1/evaluate/stream.
	DefaultStreamWriteTimeout = 30 * time.Second
	// DefaultMaxInflightOptimize is the concurrent design-space search cap
	// when Options.MaxInflightOptimize is unset.
	DefaultMaxInflightOptimize = 2
)

// Server is the flexwattsd request handler: one shared evaluation
// environment, a per-experiment dataset memo, admission control state,
// the metrics registry, and the HTTP surface.
type Server struct {
	env     *experiments.Env
	opts    Options
	start   time.Time
	memos   sync.Map // experiment id -> *datasetMemo
	metrics *serverMetrics
	limiter *rateLimiter
	budget  *pointBudget
	// optBudget is the optimizer's dedicated inflight-searches slot count;
	// opt is the design-space search engine behind /v1/optimize, sharing
	// the environment's platform, parameters and evaluation cache.
	optBudget *pointBudget
	opt       optimize.Engine
	// batch is the evaluate routes' grouped pass; arena recycles its
	// bucket grid + result blocks across requests, so steady load costs
	// no grid allocation per request.
	batch *core.Batch
	arena pdn.GridArena
}

// datasetMemo computes an experiment's dataset exactly once; concurrent
// requests for the same id block on the first computation and then share
// the immutable result (rendering is per-request).
type datasetMemo struct {
	once sync.Once
	ds   *report.Dataset
	err  error
}

// New creates a server over the given environment.
func New(env *experiments.Env, opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.MaxInflightPoints <= 0 {
		opts.MaxInflightPoints = 16 * opts.MaxBatch
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.StreamWindow <= 0 {
		opts.StreamWindow = DefaultStreamWindow
	}
	if opts.StreamWriteTimeout <= 0 {
		opts.StreamWriteTimeout = DefaultStreamWriteTimeout
	}
	if opts.MaxInflightOptimize <= 0 {
		opts.MaxInflightOptimize = DefaultMaxInflightOptimize
	}
	start := time.Now()
	m := newServerMetrics(env.Cache, start)
	s := &Server{
		env:     env,
		opts:    opts,
		start:   start,
		metrics: m,
		limiter: newRateLimiter(opts.RatePerClient, opts.BurstPerClient),
		budget:  &pointBudget{max: int64(opts.MaxInflightPoints), gauge: m.inflightPoints},
		// The optimizer's slot budget reuses the pointBudget mechanics with
		// n=1 acquisitions; its gauge is the inflight-searches metric.
		optBudget: &pointBudget{max: int64(opts.MaxInflightOptimize), gauge: m.optimizeInflight},
		opt: optimize.Engine{
			Platform: env.Platform,
			Base:     env.Params,
			Cache:    env.Cache,
			Workers:  opts.Workers,
		},
	}
	s.batch = core.NewBatch(env.Baselines, env.Flex, env.Predictor, &s.arena)
	m.reg.CounterFunc("flexwattsd_grid_arena_gets_total",
		"Grid arena lease checkouts by the evaluate handlers' batch pass.",
		func() float64 { gets, _ := s.arena.Stats(); return float64(gets) })
	m.reg.CounterFunc("flexwattsd_grid_arena_reuses_total",
		"Grid arena checkouts satisfied by a recycled lease.",
		func() float64 { _, reuses := s.arena.Stats(); return float64(reuses) })
	m.reg.GaugeFunc("flexwattsd_grid_arena_reuse_ratio",
		"Recycled fraction of grid arena checkouts; near 1 under steady load.",
		func() float64 {
			gets, reuses := s.arena.Stats()
			if gets == 0 {
				return 0
			}
			return float64(reuses) / float64(gets)
		})
	return s
}

// logf writes one operational log line to ErrorLog (or the default logger).
func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.ErrorLog != nil {
		s.opts.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Handler returns the routed HTTP handler. Routing is manual (prefix
// matching) so it works identically on every supported Go version; every
// route passes through instrument for metrics and access logging.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathHealthz, s.instrument(routeHealthz, s.handleHealthz))
	mux.HandleFunc(api.PathReadyz, s.instrument(routeReadyz, s.handleReadyz))
	mux.HandleFunc(api.PathMetrics, s.instrument(routeMetrics, s.handleMetrics))
	mux.HandleFunc(api.PathExperiments, s.instrument(routeExperiments, s.handleList))
	mux.HandleFunc(api.PathExperiments+"/", s.instrument(routeExperiment, s.handleExperiment))
	mux.HandleFunc(api.PathEvaluate, s.instrument(routeEvaluate, s.handleEvaluate))
	mux.HandleFunc(api.PathEvaluateStream, s.instrument(routeEvaluateStream, s.handleEvaluateStream))
	mux.HandleFunc(api.PathOptimize, s.instrument(routeOptimize, s.handleOptimize))
	mux.HandleFunc(api.PathOptimizeStream, s.instrument(routeOptimizeStream, s.handleOptimizeStream))
	mux.HandleFunc("/debug/pprof/", s.instrument(routePprof, pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", s.instrument(routePprof, pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", s.instrument(routePprof, pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", s.instrument(routePprof, pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", s.instrument(routePprof, pprof.Trace))
	return mux
}

// workers resolves the per-request sweep pool bound.
func (s *Server) workers() int {
	if s.opts.Workers > 0 {
		return s.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// dataset returns the memoized dataset for id, computing it on first use
// with the request-scoped worker bound.
func (s *Server) dataset(id string) (*report.Dataset, error) {
	v, _ := s.memos.LoadOrStore(id, &datasetMemo{})
	m := v.(*datasetMemo)
	m.once.Do(func() {
		env := *s.env
		env.Workers = s.workers()
		m.ds, m.err = experiments.Dataset(id, &env)
	})
	return m.ds, m.err
}

// jsonCodec pools the response-encoding state of the /v1/optimize
// answer: the JSON encoder and its backing buffer survive across requests,
// so a steady load reuses one grown buffer per concurrent request instead
// of allocating encoder state and response bytes each time. The bytes
// produced are identical to writeJSON's (compact JSON, one trailing
// newline from Encode); only the allocation profile changes.
type jsonCodec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonCodecPool = sync.Pool{New: func() any {
	c := &jsonCodec{}
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

// pooledBufMaxBytes bounds the response buffers that return to a pool, so
// one rare huge response does not pin its buffer for the process lifetime.
const pooledBufMaxBytes = 1 << 20

// writeJSONPooled renders v exactly as writeJSON does, through a pooled
// buffer. Unlike writeJSON it encodes before committing the status line,
// so an unencodable value surfaces as a proper error response instead of
// a truncated 200.
func writeJSONPooled(w http.ResponseWriter, status int, v interface{}) {
	c := jsonCodecPool.Get().(*jsonCodec)
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		c.buf.Reset()
		jsonCodecPool.Put(c)
		writeErr(w, fmt.Errorf("encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(c.buf.Bytes()) //nolint:errcheck // response already committed
	if c.buf.Cap() <= pooledBufMaxBytes {
		jsonCodecPool.Put(c)
	}
}

// writeJSON renders v as the response body: compact JSON and a trailing
// newline.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

// writeErr is the single place where errors become HTTP responses: the api
// sentinels map to their contract statuses and wire codes, anything else is
// a 500 — and every failure path, including body-size overflow and
// malformed JSON, emits the same api.Error envelope.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, api.StatusFor(err), api.Error{Code: api.CodeFor(err), Message: err.Error()})
}

// allow enforces an endpoint's method set. On a mismatch it answers 405
// with an Allow header naming the permitted methods (RFC 9110 §15.5.6)
// and reports false.
func allow(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allowed := strings.Join(methods, ", ")
	w.Header().Set("Allow", allowed)
	writeErr(w, fmt.Errorf("%w: %s %s (use %s)", api.ErrMethodNotAllowed, r.Method, r.URL.Path, allowed))
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	hits, misses := s.env.Cache.Stats()
	writeJSON(w, http.StatusOK, api.Health{
		Status:      "ok",
		UptimeS:     int64(time.Since(s.start).Seconds()),
		Experiments: len(experiments.IDs()),
		Workers:     s.workers(),
		CacheKeys:   s.env.Cache.Len(),
		CacheHits:   hits,
		CacheMisses: misses,
	})
}

// handleReadyz is GET /readyz — the readiness probe, distinct from the
// /healthz liveness probe. The daemon has no start-up work to finish, so
// it answers 200 whenever the handler serves.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, api.Ready{Status: "ready"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	ids := experiments.IDs()
	infos := make([]api.ExperimentInfo, len(ids))
	for i, id := range ids {
		infos[i] = api.ExperimentInfo{ID: id, URL: api.PathExperiments + "/" + id}
	}
	writeJSON(w, http.StatusOK, api.ExperimentList{Experiments: infos, Formats: report.Formats()})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodGet) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, api.PathExperiments+"/")
	if id == "" || strings.Contains(id, "/") {
		writeErr(w, fmt.Errorf("%w: experiment path must be %s/{id}", api.ErrUnknownExperiment, api.PathExperiments))
		return
	}
	if !experiments.Known(id) {
		writeErr(w, fmt.Errorf("%w %q (try GET %s)", api.ErrUnknownExperiment, id, api.PathExperiments))
		return
	}
	format, err := report.ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", api.ErrInvalidPoint, err))
		return
	}
	ds, err := s.dataset(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Render to a buffer first so a renderer error can still become a 500
	// instead of a half-written 200 body.
	var b bytes.Buffer
	var renderErr error
	if format == report.FormatASCII {
		// WriteASCIIGolden matches `flexwatts -exp {id}` byte for byte.
		renderErr = ds.WriteASCIIGolden(&b)
	} else {
		renderErr = ds.Write(&b, format)
	}
	if renderErr != nil {
		writeErr(w, renderErr)
		return
	}
	w.Header().Set("Content-Type", format.ContentType())
	b.WriteTo(w) //nolint:errcheck // client gone, nothing to do
}

// decodeBody decodes exactly one JSON value from a size-capped request
// body into v: unknown fields and anything but whitespace after the value
// are rejected. On failure it writes the error response — 413 for an
// overflowing body, 400 wrapping invalid otherwise — and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, invalid error) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == nil {
			err = errors.New("unexpected data after the JSON value")
		} else if err == io.EOF {
			return true
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, fmt.Errorf("%w: request body exceeds %d bytes", api.ErrBatchTooLarge, tooBig.Limit))
	} else {
		writeErr(w, fmt.Errorf("%w: bad request body: %v", invalid, err))
	}
	return false
}

// decodeEvalRequest reads and validates an evaluate request body into
// jobs through the wire codec (codec.go) — shared by the buffered and
// streaming endpoints, so the two accept exactly the same points. On
// failure the error response (uniform api.Error envelope) has been written
// and ok is false. Errors rank as they always have: a malformed body, then
// an empty batch, then the batch cap (413), then the lowest invalid point
// index; a body exceeding MaxBodyBytes is shed as api.ErrBatchTooLarge
// (413), matching the point-count cap it approximates.
func (s *Server) decodeEvalRequest(w http.ResponseWriter, r *http.Request) (jobs []core.Job, ok bool) {
	jobs, err := s.decodeEval(readBody(w, r, s.opts.MaxBodyBytes))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return jobs, true
}

// evaluate runs jobs through the server's grouped batch pass and hands
// each point's wire result, or its error, to emit. Only a cancelled
// request returns an error.
func (s *Server) evaluate(r *http.Request, workers int, jobs []core.Job, emit func(i int, res api.EvalResult, err error)) error {
	evaluated := 0
	err := s.batch.Evaluate(r.Context(), workers, jobs, func(i int, _ core.Mode, res *pdn.Result, err error) {
		if err != nil {
			emit(i, api.EvalResult{}, err)
			return
		}
		evaluated++
		emit(i, wireResult(&jobs[i], res), nil)
	})
	s.metrics.pointsTotal.Add(int64(evaluated))
	return err
}

// wireResult renders an evaluation into its wire form.
func wireResult(job *core.Job, res *pdn.Result) api.EvalResult {
	return api.EvalResult{
		PDN:    job.Kind.String(),
		CState: job.Scenario.CState.String(),
		ETEE:   res.ETEE,
		PNom:   res.PNomTotal,
		PIn:    res.PIn,
		Loss:   res.PIn - res.PNomTotal,
	}
}

// handleEvaluate is POST /v1/evaluate: the batch runs as one grouped
// pass (core.Batch) on the request's context with the request-scoped
// worker bound, bypassing the evaluation cache — every point of a batch
// costs one grid-kernel evaluation. A cancelled request (client
// disconnect, deadline) stops the pass between chunks and writes nothing.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	jobs, ok := s.decodeEvalRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, r, len(jobs))
	if !ok {
		return
	}
	defer release()

	workers := min(s.workers(), len(jobs))
	s.metrics.inflightSweeps.Add(1)
	defer s.metrics.inflightSweeps.Add(-1)
	results := make([]api.EvalResult, len(jobs))
	failed, failedAt := error(nil), len(jobs)
	err := s.evaluate(r, workers, jobs, func(i int, res api.EvalResult, err error) {
		if err != nil {
			if i < failedAt {
				failed, failedAt = err, i
			}
			return
		}
		results[i] = res
	})
	if err != nil {
		// The client is gone (disconnect or deadline): there is no one
		// to answer. The aborted pass already freed the pool.
		return
	}
	if failed != nil {
		writeErr(w, fmt.Errorf("%w: point %d: %v", api.ErrEvaluation, failedAt, failed))
		return
	}
	writeEvalResponse(w, results, workers)
}
