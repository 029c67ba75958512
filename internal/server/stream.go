package server

import (
	"errors"
	"net/http"
	"time"

	"repro/flexwatts/api"
)

// flushEvery is how many result lines /v1/evaluate/stream writes per
// flush: a 100k-point stream costs hundreds of writes and flushes, not
// 100k, while a client still sees results arrive while the batch runs.
const flushEvery = 64

// handleEvaluateStream is POST /v1/evaluate/stream: the same request body
// as /v1/evaluate, answered as NDJSON — one api.EvalStreamResult per line,
// in point order, written incrementally as the batch is evaluated.
//
// The memory contract is the point of the endpoint: the points run through
// the buffered route's grouped pass one StreamWindow-sized chunk at a
// time, and each chunk's lines go straight onto the wire before the next
// chunk starts, so the server holds O(window) results for a batch of any
// size instead of buffering the full response. Per-point evaluation
// failures become error lines (index-tagged, with the api wire code) and
// do not end the stream; a mid-stream client disconnect cancels the pass
// via the request context.
//
// Validation failures (malformed body, unknown vocabulary, batch cap) are
// still whole-request errors: they are detected before the first byte is
// written, while a status line can still say 4xx.
func (s *Server) handleEvaluateStream(w http.ResponseWriter, r *http.Request) {
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
	window := min(s.opts.StreamWindow, len(jobs))
	// A long stream legitimately outlives any server-wide WriteTimeout, so
	// this route manages its own: a rolling deadline re-armed before every
	// flush. Each chunk gets StreamWriteTimeout to reach the client; only a
	// reader stalled for that long — not a long computation — kills the
	// connection. SetWriteDeadline reaches the net.Conn through the
	// statusWriter's Unwrap; on transports without deadlines (tests using
	// httptest.ResponseRecorder) it reports ErrNotSupported and the stream
	// simply runs unbounded, without asking again.
	rc := http.NewResponseController(w)
	deadlines := true
	extend := func() {
		if deadlines && errors.Is(rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout)), http.ErrNotSupported) {
			deadlines = false
		}
	}
	extend()
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Lines accumulate in a pooled buffer and go out every flushEvery lines.
	bp := getEvalBuf()
	buf := *bp
	defer func() { putEvalBuf(bp, buf) }()
	flush := func() bool {
		extend()
		if _, err := w.Write(buf); err != nil {
			return false
		}
		buf = buf[:0]
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	s.metrics.inflightSweeps.Add(1)
	defer s.metrics.inflightSweeps.Add(-1)
	lines := make([]api.EvalStreamResult, window)
	results := make([]api.EvalResult, window)
	written := 0
	for lo := 0; lo < len(jobs); lo += window {
		hi := min(lo+window, len(jobs))
		err := s.evaluate(r, workers, jobs[lo:hi], func(i int, res api.EvalResult, err error) {
			line := api.EvalStreamResult{Index: lo + i}
			if err != nil {
				line.Code = api.CodeFor(api.ErrEvaluation)
				line.Error = err.Error()
			} else {
				results[i] = res
				line.Result = &results[i]
			}
			lines[i] = line
		})
		if err != nil {
			// The request was cancelled; the status line is long since
			// committed and there is no one left to tell.
			return
		}
		// An encode or write failure ends the stream: an unencodable
		// line drops the lines buffered since the last flush, and a
		// failed write means the client is gone.
		for i := range hi - lo {
			if buf, err = appendStreamLine(buf, &lines[i]); err != nil {
				return
			}
			s.metrics.streamedTotal.Inc()
			written++
			if written%flushEvery == 0 && !flush() {
				return
			}
		}
	}
	flush()
}
