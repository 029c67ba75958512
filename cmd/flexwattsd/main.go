// Command flexwattsd serves the paper's evaluations over HTTP/JSON as a
// long-lived service: all requests share one evaluation environment, whose
// experiment datasets are computed once per process. Evaluate batches run
// one grid-kernel pass per PDN bucket and bypass the evaluation cache; the
// cache lives in memory only and serves the experiments and the optimizer.
//
// Usage:
//
//	flexwattsd                        # listen on :8080
//	flexwattsd -addr 127.0.0.1:9090   # explicit listen address
//	flexwattsd -parallel 4            # bound each request's sweep pool
//
// Endpoints:
//
//	GET  /healthz                     liveness + cache statistics
//	GET  /readyz                      readiness (200 once the listener serves)
//	GET  /metrics                     Prometheus text exposition
//	GET  /debug/pprof/                profiling surface
//	GET  /v1/experiments              experiment ids
//	GET  /v1/experiments/{id}         one experiment; ?format=ascii|json|csv
//	POST /v1/evaluate                 batch of evaluation points
//	POST /v1/evaluate/stream          same batch, streamed back as NDJSON
//	POST /v1/optimize                 design-space Pareto search
//	POST /v1/optimize/stream          same search, progress + frontier events as NDJSON
//
// Admission control is tuned with -rate/-burst (per-client token bucket,
// shed with 429) and -max-inflight-points (server-wide budget, shed with
// 503); optimizer searches pin worker capacity for much longer than a
// sweep, so they draw on their own -max-inflight-optimize slot count
// instead. All shed paths set Retry-After. -access-log turns on one JSON
// line per request on stderr.
//
// The -read-timeout/-write-timeout/-idle-timeout flags harden the listener
// against slow or stalled clients; /v1/evaluate/stream is exempt from the
// write timeout, managing its own rolling -stream-write-timeout per chunk.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get -grace (default 10s) to complete before the listener closes hard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// run is the testable entry point: it builds the environment, listens on
// -addr (printing the resolved address, so tests and scripts can use port
// 0), and serves until ctx is canceled or a signal arrives.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexwattsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	parallel := fs.Int("parallel", 0,
		"per-request sweep worker bound (0 = GOMAXPROCS, matching the engine default)")
	maxBatch := fs.Int("max-batch", server.DefaultMaxBatch,
		"maximum points accepted by one /v1/evaluate request")
	grace := fs.Duration("grace", 10*time.Second,
		"graceful shutdown window for in-flight requests")
	maxInflight := fs.Int("max-inflight-points", 0,
		"server-wide inflight-points budget; excess batches shed with 503 (0 = 16×max-batch)")
	maxInflightOptimize := fs.Int("max-inflight-optimize", 0,
		fmt.Sprintf("concurrent /v1/optimize searches; excess shed with 503 (0 = %d)",
			server.DefaultMaxInflightOptimize))
	rate := fs.Float64("rate", 0,
		"per-client request rate limit in requests/second; excess shed with 429 (0 = unlimited)")
	burst := fs.Float64("burst", 0,
		"per-client burst allowance for -rate (0 = max(1, rate))")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes,
		"maximum request body size in bytes")
	streamWindow := fs.Int("stream-window", server.DefaultStreamWindow,
		"points /v1/evaluate/stream evaluates and buffers per chunk")
	retryAfter := fs.Duration("retry-after", server.DefaultRetryAfter,
		"Retry-After hint sent with 503 shed responses")
	accessLog := fs.Bool("access-log", false,
		"log one JSON line per request to stderr")
	readTimeout := fs.Duration("read-timeout", 30*time.Second,
		"maximum duration for reading an entire request, body included (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second,
		"maximum duration for writing a response; /v1/evaluate/stream is exempt (0 = unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second,
		"how long a keep-alive connection may sit idle (0 = read-timeout)")
	streamWriteTimeout := fs.Duration("stream-write-timeout", server.DefaultStreamWriteTimeout,
		"rolling per-chunk write deadline on /v1/evaluate/stream")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	env, err := experiments.NewEnv()
	if err != nil {
		fmt.Fprintln(stderr, "flexwattsd:", err)
		return 1
	}
	opts := server.Options{
		Workers:             *parallel,
		MaxBatch:            *maxBatch,
		MaxBodyBytes:        *maxBody,
		MaxInflightPoints:   *maxInflight,
		MaxInflightOptimize: *maxInflightOptimize,
		RatePerClient:       *rate,
		BurstPerClient:      *burst,
		RetryAfter:          *retryAfter,
		StreamWindow:        *streamWindow,
		StreamWriteTimeout:  *streamWriteTimeout,
		ErrorLog:            log.New(stderr, "", log.LstdFlags),
	}
	if *accessLog {
		opts.AccessLog = log.New(stderr, "", 0)
	}
	srv := server.New(env, opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "flexwattsd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "flexwattsd listening on %s\n", ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds slow-body uploads; WriteTimeout bounds stalled
		// response writes — the streaming route overrides it with its own
		// rolling per-chunk deadline, so long sweeps stream to completion
		// while a dead reader still gets disconnected.
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		ErrorLog:     log.New(stderr, "", log.LstdFlags),
	}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "flexwattsd:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "flexwattsd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "flexwattsd: shutdown:", err)
		httpSrv.Close()
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}
