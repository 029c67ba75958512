package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by this program around the
// layer's public function. Spans of one operation share Op; Parent is the
// ID of the enclosing span, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only for the clock reads it needs for
// its own latencies.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it and returns its duration.
type active struct {
	t      *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// op allocates the identifier shared by the spans of one operation.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// start opens a root span of operation op.
func (t *tracer) start(name string, op int64) active {
	a := active{t: t, op: op, name: name, start: time.Now()}
	if t != nil {
		a.id = t.nextID.Add(1)
	}
	return a
}

// child opens a span inside a.
func (a active) child(name string) active {
	c := a.t.start(name, a.op)
	c.parent = a.id
	return c
}

func (a active) end() time.Duration {
	now := time.Now()
	if a.t != nil {
		a.t.mu.Lock()
		a.t.spans = append(a.t.spans, span{ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
			Start: int64(a.start.Sub(a.t.t0)), End: int64(now.Sub(a.t.t0))})
		a.t.mu.Unlock()
	}
	return now.Sub(a.start)
}

// nameTotals is the summed duration and self time of every span of a name.
type nameTotals struct {
	count      int
	total, own time.Duration
}

// totals sums each span name's duration and self time: a span's duration
// minus the part of it its children cover.
func (t *tracer) totals() map[string]*nameTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*nameTotals{}
	for _, s := range t.spans {
		nt := out[s.Name]
		if nt == nil {
			nt = &nameTotals{}
			out[s.Name] = nt
		}
		d := time.Duration(s.End - s.Start)
		nt.count++
		nt.total += d
		nt.own += d - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// summary renders the span names with the largest total time.
func (t *tracer) summary(top int) string {
	tot := t.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].total > tot[names[j]].total })
	var b []byte
	b = fmt.Appendf(b, "# spans by total time (name, count, total s, self s)\n")
	for i, n := range names {
		if i == top {
			break
		}
		nt := tot[n]
		b = fmt.Appendf(b, "  %-40s %8d %10.4f %10.4f\n", n, nt.count, nt.total.Seconds(), nt.own.Seconds())
	}
	return string(b)
}

// write stores the spans as JSON lines under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
