package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/flexwatts/api"
	"repro/internal/optimize"
	"repro/internal/pdn"
)

// buildOptimizeSpec parses a wire optimizer request into the engine's
// spec. Enum parsing is string-for-string the optimizer's own (the wire
// and internal vocabularies share spellings), and range validation is the
// engine's Validate — one set of rules, whichever door a spec comes in by.
func (s *Server) buildOptimizeSpec(req api.OptimizeRequest) (optimize.Spec, error) {
	spec := optimize.Spec{
		TDP:             req.TDP,
		LoadlineScales:  req.LoadlineScales,
		GuardbandScales: req.GuardbandScales,
		VRScales:        req.VRScales,
		Seed:            req.Seed,
		Budget:          req.Budget,
		Chains:          req.Chains,
		MaxCost:         req.MaxCost,
		MaxArea:         req.MaxArea,
		MaxBatteryPower: req.MaxBatteryPower,
		MinPerformance:  req.MinPerformance,
	}
	if req.PDNs != nil {
		spec.Kinds = make([]pdn.Kind, len(req.PDNs))
		for i, name := range req.PDNs {
			k, err := pdn.ParseKind(name)
			if err != nil {
				return optimize.Spec{}, fmt.Errorf("%w: %v", api.ErrInvalidSpec, err)
			}
			spec.Kinds[i] = k
		}
	}
	if req.Objectives != nil {
		spec.Objectives = make([]optimize.Objective, len(req.Objectives))
		for i, name := range req.Objectives {
			o, err := optimize.ParseObjective(name)
			if err != nil {
				return optimize.Spec{}, fmt.Errorf("%w: %v", api.ErrInvalidSpec, err)
			}
			spec.Objectives[i] = o
		}
	}
	st, err := optimize.ParseStrategy(req.Strategy)
	if err != nil {
		return optimize.Spec{}, fmt.Errorf("%w: %v", api.ErrInvalidSpec, err)
	}
	spec.Strategy = st
	if err := spec.Validate(); err != nil {
		return optimize.Spec{}, fmt.Errorf("%w: %v", api.ErrInvalidSpec, err)
	}
	return spec, nil
}

// decodeOptimizeRequest reads and validates an optimize request body —
// shared by the buffered and streaming endpoints. On failure the error
// response (uniform api.Error envelope) has been written and ok is false.
func (s *Server) decodeOptimizeRequest(w http.ResponseWriter, r *http.Request) (optimize.Spec, bool) {
	var req api.OptimizeRequest
	if !s.decodeBody(w, r, &req, api.ErrInvalidSpec) {
		return optimize.Spec{}, false
	}
	spec, err := s.buildOptimizeSpec(req)
	if err != nil {
		writeErr(w, err)
		return optimize.Spec{}, false
	}
	return spec, true
}

// admitOptimize runs admission control for one search: the per-client
// token bucket (shared with evaluate — a chatty client exhausts its own
// bucket), then the optimizer's dedicated inflight-searches budget. A
// search pins worker-pool capacity for seconds, not milliseconds, so it
// gets its own small slot count instead of riding the points budget.
func (s *Server) admitOptimize(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if ok, retry := s.limiter.allow(clientKey(r)); !ok {
		s.shed(w, shedRateLimited, retry,
			fmt.Errorf("%w: client %s exceeded %g requests/s (retry after %s)",
				api.ErrRateLimited, clientKey(r), s.opts.RatePerClient, retry.Round(time.Millisecond)))
		return nil, false
	}
	if !s.optBudget.tryAcquire(1) {
		retry := s.opts.RetryAfter
		s.shed(w, shedOverloaded, retry,
			fmt.Errorf("%w: %d searches already in flight (retry after %s)",
				api.ErrOverloaded, s.opts.MaxInflightOptimize, retry))
		return nil, false
	}
	return func() { s.optBudget.release(1) }, true
}

// bookOptimize folds one search event into the optimizer metrics:
// candidates count up by the evaluation delta, the frontier gauge tracks
// the latest reported size.
func (s *Server) bookOptimize(last *int, ev optimize.Event) {
	if d := ev.Evaluated - *last; d > 0 {
		s.metrics.optimizeCandidates.Add(int64(d))
		*last = ev.Evaluated
	}
	s.metrics.optimizeFrontier.Set(int64(ev.FrontierSize))
}

// wrapOptimizeErr maps engine errors onto the wire sentinel table.
func wrapOptimizeErr(err error) error {
	if errors.Is(err, optimize.ErrInvalidSpec) {
		return fmt.Errorf("%w: %v", api.ErrInvalidSpec, err)
	}
	return err
}

// wireParetoPoint renders one frontier member.
func wireParetoPoint(p optimize.Point) api.ParetoPoint {
	return api.ParetoPoint{
		Key: p.Key,
		Config: api.OptimizeConfig{
			PDN:            p.Config.Kind.String(),
			LoadlineScale:  p.Config.LoadlineScale,
			GuardbandScale: p.Config.GuardbandScale,
			VRScale:        p.Config.VRScale,
		},
		Scores: api.OptimizeScores{
			Cost:         p.Scores.Cost,
			Area:         p.Scores.Area,
			BatteryPower: p.Scores.BatteryPower,
			Performance:  p.Scores.Performance,
		},
	}
}

// wireOptimizeResult renders a finished search into its wire form.
func wireOptimizeResult(res optimize.Result, workers int) api.OptimizeResponse {
	out := api.OptimizeResponse{
		Frontier:  make([]api.ParetoPoint, len(res.Frontier)),
		Evaluated: res.Evaluated,
		SpaceSize: res.SpaceSize,
		Strategy:  res.Strategy.String(),
		Workers:   workers,
	}
	for i, p := range res.Frontier {
		out.Frontier[i] = wireParetoPoint(p)
	}
	return out
}

// wireOptimizeEvent renders an incremental search event as a stream line.
func wireOptimizeEvent(ev optimize.Event) api.OptimizeEvent {
	line := api.OptimizeEvent{
		Event:        api.OptimizeEventProgress,
		Evaluated:    ev.Evaluated,
		SpaceSize:    ev.SpaceSize,
		FrontierSize: ev.FrontierSize,
	}
	if ev.Kind == optimize.EventFrontier {
		line.Event = api.OptimizeEventFrontier
		p := wireParetoPoint(ev.Point)
		line.Point = &p
	}
	return line
}

// handleOptimize is POST /v1/optimize: run the design-space search to
// completion on the request's context and answer its Pareto frontier. A
// cancelled request (client disconnect, deadline) aborts the search
// mid-batch — the engine's workers stop pulling candidates.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	spec, ok := s.decodeOptimizeRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admitOptimize(w, r)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	last := 0
	res, err := s.opt.Run(r.Context(), spec, func(ev optimize.Event) error {
		s.bookOptimize(&last, ev)
		return nil
	})
	s.metrics.optimizeSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone: no one to answer, the search already
			// stopped.
			return
		}
		writeErr(w, wrapOptimizeErr(err))
		return
	}
	writeJSONPooled(w, http.StatusOK, wireOptimizeResult(res, s.workers()))
}

// handleOptimizeStream is POST /v1/optimize/stream: the same request body
// as /v1/optimize, answered as NDJSON — progress and frontier-update lines
// while the search runs, then exactly one terminal line ("result" or
// "error"). Events are low-rate (one per batch or frontier entrant), so
// every line flushes immediately under the rolling per-chunk write
// deadline; a stalled reader kills the connection, which cancels the
// search through the request context.
func (s *Server) handleOptimizeStream(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	spec, ok := s.decodeOptimizeRequest(w, r)
	if !ok {
		return
	}
	release, ok := s.admitOptimize(w, r)
	if !ok {
		return
	}
	defer release()

	rc := http.NewResponseController(w)
	extend := func() {
		rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout)) //nolint:errcheck // unsupported transport = no deadline
	}
	extend()
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sc := streamCodecPool.Get().(*streamCodec)
	sc.bw.Reset(w)
	defer func() {
		sc.bw.Reset(nil)
		streamCodecPool.Put(sc)
	}()

	start := time.Now()
	last := 0
	res, err := s.opt.Run(r.Context(), spec, func(ev optimize.Event) error {
		s.bookOptimize(&last, ev)
		line := wireOptimizeEvent(ev)
		if err := sc.enc.Encode(&line); err != nil {
			return err
		}
		extend()
		if err := sc.bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	s.metrics.optimizeSeconds.Observe(time.Since(start).Seconds())
	final := api.OptimizeEvent{Event: api.OptimizeEventResult}
	if err != nil {
		if r.Context().Err() != nil {
			// Disconnected mid-stream: the status line is committed and the
			// reader is gone — nothing left to say.
			return
		}
		werr := wrapOptimizeErr(err)
		final = api.OptimizeEvent{
			Event: api.OptimizeEventError,
			Code:  api.CodeFor(werr),
			Error: werr.Error(),
		}
	} else {
		resp := wireOptimizeResult(res, s.workers())
		final.Result = &resp
	}
	if err := sc.enc.Encode(&final); err != nil {
		return
	}
	extend()
	if err := sc.bw.Flush(); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// streamBufBytes sizes the /v1/optimize/stream write buffer.
const streamBufBytes = 32 << 10

// streamCodec pools the per-stream write stack — the 32 KiB bufio.Writer
// and the JSON encoder bound to it — so each stream request rebinds a
// recycled buffer to its connection instead of allocating both. Before a
// codec returns to the pool its writer is reset onto nil, dropping the
// connection reference so a pooled codec never pins a finished request's
// transport.
type streamCodec struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

var streamCodecPool = sync.Pool{New: func() any {
	c := &streamCodec{bw: bufio.NewWriterSize(nil, streamBufBytes)}
	c.enc = json.NewEncoder(c.bw)
	return c
}}
