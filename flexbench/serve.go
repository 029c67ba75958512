package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/flexwatts"
	"repro/flexwatts/api"
)

// daemon is one flexwattsd process started by the benchmark.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed once stdout is drained
}

// startDaemon execs flexwattsd on a free loopback port and returns once
// /readyz answers 200, with the time that took.
func startDaemon(bin string) (*daemon, float64, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-parallel", strconv.Itoa(procs))
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, fmt.Errorf("start flexwattsd: %w", err)
	}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start flexwattsd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "flexwattsd listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	fail := func(err error) (*daemon, float64, error) {
		d.stop()
		return nil, 0, fmt.Errorf("flexwattsd: %w (stderr: %s)", err, strings.TrimSpace(d.stderr.String()))
	}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return fail(errors.New("exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("no listen address after 30s"))
	}
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(d.base + api.PathReadyz)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("/readyz not 200 after 30s"))
		}
		time.Sleep(200 * time.Microsecond)
	}
	client.CloseIdleConnections()
	return d, time.Since(t0).Seconds(), nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	exited := make(chan struct{})
	go func() {
		<-d.done
		d.cmd.Wait() //nolint:errcheck // the exit status of a terminated daemon says nothing
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // best effort after the grace period
		<-exited
	}
}

// cacheStats are the daemon's evaluation-cache counters.
type cacheStats struct{ hits, misses, keys float64 }

func (c cacheStats) ratio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return c.hits / (c.hits + c.misses)
}

// cache scrapes the cache series from the daemon's /metrics.
func (d *daemon) cache() (cacheStats, error) {
	resp, err := http.Get(d.base + api.PathMetrics)
	if err != nil {
		return cacheStats{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	var c cacheStats
	series := map[string]*float64{
		"flexwattsd_cache_hits_total":   &c.hits,
		"flexwattsd_cache_misses_total": &c.misses,
		"flexwattsd_cache_keys":         &c.keys,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && series[f[0]] != nil {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return cacheStats{}, fmt.Errorf("scrape /metrics: %s: %w", f[0], err)
			}
			*series[f[0]] = v
		}
	}
	return c, sc.Err()
}

// serveRun is one serve window's inputs: the bodies, the order they are
// sent in, and how work is counted.
type serveRun struct {
	bodies [][]byte
	// sessions is how many fresh daemons serve the window, one after the
	// other; next maps a session's i-th request to a body index, and ok
	// false ends the session.
	sessions  int
	next      func(session, i int) (body int, ok bool)
	workUnits func(body int) float64
	warm      [][]byte // sent to each daemon before its session, unmeasured
	minOps    int
	// limit ends a session once the run has minOps requests.
	limit time.Duration
	// keep receives every completed request, in completion order, for
	// the check after the window.
	keep func(s served)
}

// served is one completed request.
type served struct {
	body   int
	status int
	resp   []byte
}

// runServe times daemonSetups daemon start-ups, then drives each session's
// fresh daemon from closed-loop callers, one connection each. Sessions
// never reuse a daemon: the evaluation cache is unbounded, so a reused
// daemon carries the previous session's memory and slows down.
func runServe(cfg *config, tr *tracer, sr serveRun) (*window, error) {
	w := &window{bodies: sr.bodies}
	for i := 0; i < daemonSetups; i++ {
		d, s, err := startDaemon(cfg.daemon)
		if err != nil {
			return nil, err
		}
		d.stop()
		w.setup = append(w.setup, s)
	}
	for s := 0; s < sr.sessions; s++ {
		if err := serveSession(cfg, tr, sr, s, w); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// serveSession runs one daemon's share of the window and adds it to w.
func serveSession(cfg *config, tr *tracer, sr serveRun, session int, w *window) error {
	d, _, err := startDaemon(cfg.daemon)
	if err != nil {
		return err
	}
	defer d.stop()
	tp := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp, Timeout: 2 * time.Minute}
	url := d.base + api.PathEvaluate
	for _, b := range sr.warm {
		if st, _, err := post(client, url, b); err != nil || st != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %v", st, err)
		}
	}

	var (
		mu      sync.Mutex
		nextReq atomic.Int64
		wg      sync.WaitGroup
		errc    = make(chan error, callers)
	)
	start := time.Now()
	deadline := start.Add(sr.limit)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				enough := len(w.lat) >= sr.minOps
				mu.Unlock()
				if enough && time.Now().After(deadline) {
					return
				}
				bi, ok := sr.next(session, int(nextReq.Add(1)-1))
				if !ok {
					return
				}
				sp := tr.start("loopback.evaluate", tr.op())
				st, resp, err := post(client, url, sr.bodies[bi])
				l := sp.end().Seconds()
				if err != nil {
					errc <- err
					return
				}
				s := served{body: bi, status: st, resp: corrupt(cfg, resp)}
				mu.Lock()
				w.lat = append(w.lat, l)
				w.sent = append(w.sent, bi)
				if st == http.StatusOK {
					w.work += sr.workUnits(bi)
				}
				sr.keep(s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed += time.Since(start).Seconds()
	select {
	case err := <-errc:
		return fmt.Errorf("request: %w", err)
	default:
	}
	c, err := d.cache()
	if err != nil {
		return err
	}
	w.cache.hits += c.hits
	w.cache.misses += c.misses
	w.cache.keys += c.keys
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	w.rssMB = max(w.rssMB, rss)
	return nil
}

// post sends one evaluate request and reads the whole response.
func post(client *http.Client, url string, b []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// newReference returns the library client served results are checked
// against. Its cache stays off: serve-bulk's points are all distinct, and
// the uncached path returns the same bits.
func newReference() (*flexwatts.Client, error) {
	return flexwatts.NewClient(flexwatts.WithWorkers(procs), flexwatts.WithCache(false))
}

// checkResponse decodes one response and compares every result bit for
// bit with Client.EvaluateBatch on the same points, and checks it is
// physically valid. It returns nil only for a fully correct response.
func checkResponse(ref *flexwatts.Client, reqBody, resp []byte) error {
	pts, err := requestPoints(reqBody)
	if err != nil {
		return err
	}
	var got api.EvalResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if len(got.Results) != len(pts) {
		return fmt.Errorf("%d results for %d points", len(got.Results), len(pts))
	}
	want, err := ref.EvaluateBatch(context.Background(), pts)
	if err != nil {
		return fmt.Errorf("reference evaluation: %w", err)
	}
	for i, g := range got.Results {
		if err := checkResult(g, want[i]); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	return nil
}

// checkResult compares one served result with the library's.
func checkResult(g api.EvalResult, w flexwatts.Result) error {
	if g.PDN != w.PDN.String() || g.CState != w.CState.String() {
		return fmt.Errorf("served %s/%s, want %s/%s", g.PDN, g.CState, w.PDN, w.CState)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(g.ETEE, w.ETEE) || !same(g.PNom, float64(w.PNomTotal)) ||
		!same(g.PIn, float64(w.PIn)) || !same(g.Loss, float64(w.Loss())) {
		return fmt.Errorf("served %+v differs from the library's %+v", g, w)
	}
	for _, v := range []float64{g.ETEE, g.PNom, g.PIn, g.Loss} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite value in %+v", g)
		}
	}
	if !(g.ETEE > 0 && g.ETEE <= 1) || g.Loss < 0 || !same(g.Loss, g.PIn-g.PNom) {
		return fmt.Errorf("physically invalid result %+v", g)
	}
	return nil
}

// runServeBulk sends every pre-built 4096-point body once: all points are
// distinct, so the daemon's cache only ever misses. The window is a fixed
// amount of work — about -seconds of today's daemon — because the cache
// grows with every point: a fixed duration would tie the daemon's memory
// and garbage-collection cost to its own speed. Each fresh daemon serves
// bulkSession bodies, which bounds its cache (and the run's memory) and
// makes every session's collector work on the same heap sizes.
func runServeBulk(cfg *config, tr *tracer) (*window, error) {
	n := int(cfg.seconds * bulkPointsPerSecond)
	batch := bulkBatch
	if cfg.tiny {
		n, batch = 256, 64
	}
	bs, err := bodies(bulkPoints(rand.New(rand.NewSource(cfg.seed)), n), batch)
	if err != nil {
		return nil, err
	}
	var done []served
	w, err := runServe(cfg, tr, serveRun{
		bodies:   bs,
		sessions: (len(bs) + bulkSession - 1) / bulkSession,
		next: func(s, i int) (int, bool) {
			b := s*bulkSession + i
			return b, i < bulkSession && b < len(bs)
		},
		workUnits: func(b int) float64 { return float64(min(batch, n-b*batch)) },
		minOps:    cfg.minOps,
		limit:     time.Duration(3 * cfg.seconds * float64(time.Second)),
		keep:      func(s served) { done = append(done, s) },
	})
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	for i, s := range done {
		w.attempted++
		if s.status != http.StatusOK || checkResponse(ref, bs[s.body], s.resp) != nil {
			w.failed++
		}
		done[i].resp = nil
	}
	return w, nil
}

// runServeHot sends 64-point bodies drawn from a 512-point hot set; a
// warm-up pass sends the whole hot set first, so baseline points hit the
// daemon's cache from the first timed request on.
func runServeHot(cfg *config, tr *tracer) (*window, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	set := hotSet(rng)
	nb := hotBodies
	if cfg.tiny {
		nb = 8
	}
	bs := make([][]byte, nb)
	for i, b := range hotBatches(rng, set, nb) {
		var err error
		if bs[i], err = body(b); err != nil {
			return nil, err
		}
	}
	warm, err := bodies(set, hotBatch)
	if err != nil {
		return nil, err
	}
	// A body's response is deterministic, so only the first response to
	// each body is kept; a later one that equals it byte for byte shares
	// its verdict, and one that differs is kept and checked on its own.
	var (
		first   = make([][]byte, nb)
		repeats = make([]int, nb)
		odd     []served
		bad     int
	)
	w, err := runServe(cfg, tr, serveRun{
		bodies:    bs,
		sessions:  1,
		next:      func(_, i int) (int, bool) { return i % nb, true },
		workUnits: func(int) float64 { return 1 },
		warm:      warm,
		minOps:    cfg.minOps,
		limit:     time.Duration(cfg.seconds * float64(time.Second)),
		keep: func(s served) {
			switch {
			case s.status != http.StatusOK:
				bad++
			case first[s.body] == nil:
				first[s.body] = s.resp
			case bytes.Equal(s.resp, first[s.body]):
				repeats[s.body]++
			default:
				odd = append(odd, s)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	w.attempted, w.failed = len(w.lat), bad
	for b, resp := range first {
		if resp != nil && checkResponse(ref, bs[b], resp) != nil {
			w.failed += 1 + repeats[b]
		}
	}
	for _, s := range odd {
		if checkResponse(ref, bs[s.body], s.resp) != nil {
			w.failed++
		}
	}
	return w, nil
}

// corrupt applies the test hook, if any.
func corrupt(cfg *config, resp []byte) []byte {
	if cfg.corrupt == nil {
		return resp
	}
	return cfg.corrupt(resp)
}
