package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pdn"
)

// GridEvaluator is a pdn.Model with a batch evaluation path. Every model
// runs one per-point path behind both Evaluate and EvaluateGrid (a grid
// run only adds previous-point memos, see pdn.Memo), so the two return
// identical bits, which is what makes it safe to mix grid- and
// per-point-computed results in one Cache: whichever path resolves a key
// first stores the same float64 bits the other would have.
type GridEvaluator interface {
	pdn.Model
	EvaluateGrid(g *pdn.Grid, out []pdn.Result) error
}

// gridBlock is the cache-consultation granularity of EvaluateGrid: keys
// are looked up (and claimed) a block at a time, then one EvaluateGrid
// call resolves the block's misses. Big enough to amortize the per-shard
// lock acquisitions and keep the grid run's memos warm, small enough that
// one pooled probe scratch covers any grid length.
const gridBlock = 256

// gridProbe is EvaluateGrid's per-block scratch: precomputed keys and
// shard assignments, the shard-grouped probe order, the claimed entries,
// and the miss-resolution sub-grid. It is pooled (not stack-allocated)
// because the key block alone is ~56 KiB and the warm path must stay
// allocation-free per call; one probe serves one EvaluateGrid call at a
// time, and the pool bounds live scratch by evaluator concurrency.
type gridProbe struct {
	keys     [gridBlock]cacheKey
	shard    [gridBlock]uint8
	order    [gridBlock]uint16
	entries  [gridBlock]*cacheEntry
	hit      [gridBlock]bool
	missIdx  [gridBlock]int
	missGrid pdn.Grid
	missOut  [gridBlock]pdn.Result
}

var gridProbePool = sync.Pool{New: func() any { return new(gridProbe) }}

// EvaluateGrid evaluates every grid point into out[:g.Len()], consulting
// the cache per point exactly as Evaluate does — same key, same hit/miss
// accounting, same once-per-key model invocation — but resolving each
// block's misses with a single EvaluateGrid call instead of
// per-point Evaluate. On a warm cache no model is invoked at all.
// Concurrent scalar and grid evaluations of the same key are safe: the
// entry's creator-computes protocol guarantees exactly one model
// invocation per key, and both paths produce identical bits.
//
// Per-point errors surface as the lowest failing index wrapped by
// pdn.GridPointError; results for preceding points are valid. A nil cache
// routes straight to EvaluateGrid (or an Evaluate loop for models without
// one).
func (c *Cache) EvaluateGrid(m pdn.Model, g *pdn.Grid, out []pdn.Result) error {
	if err := pdn.CheckGridOut(g, out); err != nil {
		return err
	}
	ge, isGrid := m.(GridEvaluator)
	if c == nil {
		if isGrid {
			return ge.EvaluateGrid(g, out)
		}
		for i := 0; i < g.Len(); i++ {
			res, err := m.Evaluate(g.At(i))
			if err != nil {
				return pdn.GridPointError(i, err)
			}
			out[i] = res
		}
		return nil
	}
	n := g.Len()
	kind := m.Kind()
	p := gridProbePool.Get().(*gridProbe)
	defer gridProbePool.Put(p)
	for lo := 0; lo < n; lo += gridBlock {
		hi := lo + gridBlock
		if hi > n {
			hi = n
		}
		bn := hi - lo
		// Shard-batched probe: hash every key in the block once, group the
		// points by shard with a counting sort (stable, so within a shard
		// points keep ascending block order), then visit each shard exactly
		// once — one RLock pass over its group, plus one Lock pass only if
		// some keys were absent. Per (shard, block) that is one reader and
		// at most one writer acquisition, replacing a lock round trip per
		// point.
		var count [cacheShards]uint16
		for j := 0; j < bn; j++ {
			p.keys[j] = cacheKey{kind: kind, s: g.At(lo + j)}
			si := c.shardIndex(p.keys[j])
			p.shard[j] = uint8(si)
			count[si]++
		}
		var start [cacheShards]uint16
		var pos uint16
		for s := 0; s < cacheShards; s++ {
			start[s] = pos
			pos += count[s]
		}
		for j := 0; j < bn; j++ {
			s := p.shard[j]
			p.order[start[s]] = uint16(j)
			start[s]++
		}
		grouped := 0
		for s := 0; s < cacheShards; s++ {
			cnt := int(count[s])
			if cnt == 0 {
				continue
			}
			grp := p.order[grouped : grouped+cnt]
			grouped += cnt
			sh := &c.shards[s]
			// Lookup pass: existing entries resolve under one shared lock.
			absent := 0
			sh.mu.RLock()
			for _, j := range grp {
				e := sh.entries[p.keys[j]]
				p.entries[j] = e
				p.hit[j] = e != nil
				if e == nil {
					absent++
				}
			}
			sh.mu.RUnlock()
			// Claim pass: re-check and insert the absent keys under one
			// write lock. A key another evaluation (or an earlier duplicate
			// in this group) published since the lookup counts as a hit,
			// exactly as Evaluate's double-checked claim does.
			if absent > 0 {
				sh.mu.Lock()
				for _, j := range grp {
					if p.entries[j] != nil {
						continue
					}
					e, ok := sh.entries[p.keys[j]]
					if !ok {
						e = newCacheEntry()
						sh.entries[p.keys[j]] = e
						c.size.Add(1)
					} else {
						p.hit[j] = true
					}
					p.entries[j] = e
				}
				sh.mu.Unlock()
			}
		}
		// Accounting in one batch per block (totals match Evaluate's
		// per-point adds), and the miss list rebuilt in ascending point
		// order for the grid run.
		nm := 0
		var nh int64
		for j := 0; j < bn; j++ {
			if p.hit[j] {
				nh++
			} else {
				p.missIdx[nm] = lo + j
				nm++
			}
		}
		c.hits.Add(nh)
		c.misses.Add(int64(nm))
		// Resolve the block's claimed keys with one EvaluateGrid call and publish
		// each under its entry. This call is the creator of every entry in
		// missIdx, so it alone computes them — that is the
		// exactly-one-invocation contract scalar racers rely on when they
		// block on done below.
		// Duplicate keys within a block alias one entry: the first
		// occurrence creates (and appears here), later ones are hits. If
		// the grid run rejects the sub-grid (an invalid point), fall back to
		// scalar per-point resolution so every claimed entry still ends up
		// with exactly the scalar result or error.
		if nm > 0 {
			kernelOK := false
			if isGrid {
				p.missGrid.Gather(g, p.missIdx[:nm])
				kernelOK = ge.EvaluateGrid(&p.missGrid, p.missOut[:nm]) == nil
			}
			for j := 0; j < nm; j++ {
				i := p.missIdx[j]
				e := p.entries[i-lo]
				if kernelOK {
					e.res, e.err = p.missOut[j], nil
				} else {
					e.res, e.err = m.Evaluate(g.At(i))
				}
				close(e.done)
			}
		}
		// Collect the block in order. Entries this call claimed are already
		// published (the wait is a no-op); entries claimed by a concurrent
		// evaluation block until their creator publishes. Every claim of
		// this block was resolved above before any wait here, so two grid
		// calls claiming interleaved keys cannot deadlock.
		for i := lo; i < hi; i++ {
			e := p.entries[i-lo]
			<-e.done
			if e.err != nil {
				return pdn.GridPointError(i, e.err)
			}
			out[i] = e.res
		}
	}
	return nil
}

// adaptiveChunk sizes GridMapCtx's work unit for a grid of n points on
// the given worker count: aim for several chunks per worker so a slow
// chunk doesn't straggle the whole grid, but never slice finer than a
// quarter cache block — below that the grid run's memos and the
// shard-batched probe stop amortizing.
func adaptiveChunk(n, workers int) int {
	if workers <= 1 {
		return gridBlock
	}
	c := n / (workers * 4)
	if c < gridBlock/4 {
		c = gridBlock / 4
	}
	if c > gridBlock {
		c = gridBlock
	}
	return c
}

// GridMapCtx evaluates a grid on a pool of workers, each worker running
// whole chunks through (c, m).EvaluateGrid — the batch counterpart of
// MapCtx's per-point closure dispatch. chunk <= 0 picks an adaptive size
// from the grid length and worker count (see adaptiveChunk); workers
// follow MapCtx's convention. out must have at least g.Len() slots. The
// first failing chunk's error (lowest chunk index, and within it the
// lowest point index) is returned, wrapped with the chunk's absolute
// point range.
func GridMapCtx(ctx context.Context, workers int, c *Cache, m pdn.Model, g *pdn.Grid, out []pdn.Result, chunk int) error {
	if err := pdn.CheckGridOut(g, out); err != nil {
		return err
	}
	if chunk <= 0 {
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		chunk = adaptiveChunk(g.Len(), w)
	}
	n := g.Len()
	chunks := (n + chunk - 1) / chunk
	return EachCtx(ctx, workers, chunks, func(ci int) error {
		lo := ci * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		v := g.View(lo, hi)
		if err := c.EvaluateGrid(m, &v, out[lo:hi]); err != nil {
			return fmt.Errorf("sweep: grid points [%d,%d): %w", lo, hi, err)
		}
		return nil
	})
}
