package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"
)

// SatCache memoizes DIMSAT results across calls, keyed by schema
// fingerprint and category. It holds two kinds of entry in one map, one
// FIFO and one singleflight loop: a root category's satisfiability
// verdict, and a bottom category's finished walk — the reaching sets the
// summarizability matrix, MinimalSources and Summarizable read their
// answers from (walkBottoms). It is safe for concurrent use and deduplicates
// in-flight work: concurrent calls for the same key block on a single
// search instead of racing to repeat it, so repeated roots are solved,
// and bottom categories walked, once across a request's fan-out and
// across HTTP requests.
//
// Failed runs (canceled contexts, exhausted budgets, walks cut short)
// are never retained — a later call with a larger budget recomputes.
// Cached Results share their witness frozen dimension and cached walks
// their reaching sets and retained subhierarchies; both are immutable
// after construction, apart from the frozen dimension a walk builds, once
// and under its lock, on the first read of a retained subhierarchy. A hit
// returns the memoized answer with zero Stats: the answering request did
// no search work, so per-request effort accounting (Options.Effort,
// serving histograms) records nothing for it — the effort was already
// attributed to the request that computed the entry.
//
// A cache built with NewSatCacheSize is bounded: inserting a computed
// entry beyond the capacity evicts the oldest retained entry (FIFO), so
// a server fed a stream of distinct schemas holds memory steady. The
// default NewSatCache is unbounded, the right shape for one schema's
// category space.
type SatCache struct {
	mu      sync.Mutex
	entries map[satCacheKey]*satCacheEntry
	// order lists completed (retained) entries oldest-first; in-flight
	// singleflight slots are not in it.
	order     []satCacheKey
	max       int // 0 = unbounded
	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
	// work accumulates the search effort of every computed (non-hit) run,
	// the figure dimsatd's olapdim_cache_work_*_total families report.
	work Stats
}

type satCacheKey struct {
	schema string
	root   string
	// walk keys the bottom category root's walk rather than its
	// satisfiability verdict.
	walk bool
}

// satCacheEntry is a singleflight slot: its answer (res for a
// satisfiability key, walk for a walk key) and err are written exactly
// once, before done is closed; waiters read them only after <-done.
type satCacheEntry struct {
	done chan struct{}
	res  Result
	walk *bottomWalk
	err  error
}

// NewSatCache returns an empty, unbounded satisfiability cache.
func NewSatCache() *SatCache {
	return &SatCache{entries: map[satCacheKey]*satCacheEntry{}}
}

// NewSatCacheSize returns a cache retaining at most maxEntries computed
// results, evicting oldest-first past the cap; maxEntries <= 0 means
// unbounded.
func NewSatCacheSize(maxEntries int) *SatCache {
	c := NewSatCache()
	if maxEntries > 0 {
		c.max = maxEntries
	}
	return c
}

// CacheStats is a point-in-time snapshot of a SatCache.
type CacheStats struct {
	// Hits counts calls answered from a cached or in-flight entry.
	Hits uint64
	// Misses counts calls that ran a DIMSAT search or walk.
	Misses uint64
	// Coalesced counts the subset of hits that arrived while the entry
	// was still being computed and blocked on the in-flight search
	// (singleflight deduplication) instead of racing to repeat it.
	Coalesced uint64
	// Evictions counts retained entries dropped by the size bound.
	Evictions uint64
	// Entries is the number of retained results; searches and walks
	// still computing are not counted.
	Entries int
	// Work accumulates the search effort of every computed run.
	Work Stats
}

// Stats snapshots the cache counters.
func (c *SatCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Coalesced: c.coalesced, Evictions: c.evictions,
		Entries: len(c.order), Work: c.work,
	}
}

// satisfiable answers (fingerprint, root) from the cache, running
// compute under singleflight on a miss. The caller supplies the schema
// fingerprint so callers holding a Compiled schema reuse its memoized
// hash instead of re-hashing per lookup. deadline, when set, bounds the
// compute and a wait on another call's (see do).
func (c *SatCache) satisfiable(ctx context.Context, deadline time.Time, fingerprint, root string, compute func(context.Context) (Result, error)) (Result, error) {
	e, computed, err := c.do(ctx, deadline, satCacheKey{schema: fingerprint, root: root}, func(ctx context.Context, e *satCacheEntry) Stats {
		e.res, e.err = compute(ctx)
		return e.res.Stats
	})
	switch {
	case e == nil:
		return Result{}, err
	case computed:
		return e.res, err
	}
	return e.verdict(), nil
}

// walk answers bottom's walk from the cache, running compute under
// singleflight on a miss. A computed walk, cut short or not, comes back
// with its error; a hit comes back whole. It returns a nil walk with the
// error when the caller's context expired while another call computed
// the walk, or when compute panicked.
func (c *SatCache) walk(ctx context.Context, fingerprint, bottom string, compute func() (*bottomWalk, Stats)) (*bottomWalk, error) {
	e, _, err := c.do(ctx, time.Time{}, satCacheKey{schema: fingerprint, root: bottom, walk: true}, func(_ context.Context, e *satCacheEntry) Stats {
		w, st := compute()
		e.walk, e.err = w, w.err
		return st
	})
	if e == nil {
		return nil, err
	}
	return e.walk, err
}

// do answers key from a completed entry or runs compute under
// singleflight: compute writes the new entry's answer and err and
// returns the search effort it spent. computed reports whether this call
// ran compute, in which case err is compute's error; a hit is always a
// successful entry. A compute that fails is not retained and wakes any
// waiters to retry (they may carry larger budgets); a waiter whose own
// context or deadline expires returns a nil entry with its error without
// waiting further. The context carrying deadline is derived only for a
// compute or a wait, so a completed entry answers without one.
func (c *SatCache) do(ctx context.Context, deadline time.Time, key satCacheKey, compute func(context.Context, *satCacheEntry) Stats) (_ *satCacheEntry, computed bool, _ error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			default:
				// The entry is still computing: this call coalesces onto the
				// in-flight search.
				c.mu.Lock()
				c.coalesced++
				c.mu.Unlock()
				if err := wait(ctx, deadline, e.done); err != nil {
					return nil, false, err
				}
			}
			if e.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return e, false, nil
			}
			// The computing call failed and removed its entry before
			// closing done; retry under our own budget.
			continue
		}
		e := &satCacheEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()

		work := runCompute(ctx, deadline, e, compute)
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, key)
		} else {
			c.misses++
			c.work.Add(work)
			c.retain(key)
		}
		c.mu.Unlock()
		close(e.done)
		return e, true, e.err
	}
}

// peek returns the completed successful entry for key, or nil, without
// blocking on an in-flight compute. Callers use it to skip per-call work
// that only pays off when a search actually runs: satisfiableDerived the
// derive of ImpliesContext's reduction schema or of an Explain probe's
// subset, walkBottoms the worker-pool batch. A peek hit counts as a cache hit, exactly like answering
// through do.
func (c *SatCache) peek(key satCacheKey) *satCacheEntry {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil
	}
	select {
	case <-e.done:
	default:
		// Still computing: fall through to the singleflight path, which
		// coalesces onto the in-flight search.
		return nil
	}
	if e.err != nil {
		return nil
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return e
}

// verdict is a satisfiability entry's memoized Result as a hit returns
// it: with zero Stats, since the answering call did no search work (see
// the type comment).
func (e *satCacheEntry) verdict() Result {
	res := e.res
	res.Stats = Stats{}
	return res
}

// retain records a completed entry in FIFO order and evicts past the
// size bound; the caller holds c.mu.
func (c *SatCache) retain(key satCacheKey) {
	c.order = append(c.order, key)
	if c.max <= 0 {
		return
	}
	for len(c.order) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		c.evictions++
	}
}

// runCompute runs a singleflight compute with panic containment: a panic
// must become an error *before* the entry bookkeeping runs, or the entry's
// done channel would never close and every waiter on the key would block
// forever. The recovered panic surfaces as the entry's *InternalError and,
// like any failed compute, is not cached.
func runCompute(ctx context.Context, deadline time.Time, e *satCacheEntry, compute func(context.Context, *satCacheEntry) Stats) Stats {
	defer recoverAsInternal(&e.err)
	ctx, cancel := withDeadline(ctx, deadline)
	defer cancel()
	return compute(ctx, e)
}

// wait blocks until done is closed, or until ctx under deadline ends and
// returns its error.
func wait(ctx context.Context, deadline time.Time, done <-chan struct{}) error {
	ctx, cancel := withDeadline(ctx, deadline)
	defer cancel()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// schemaFingerprint canonically identifies a dimension schema by hashing
// its textual rendering (hierarchy plus constraints in order).
func schemaFingerprint(ds *DimensionSchema) string {
	sum := sha256.Sum256([]byte(ds.String()))
	return hex.EncodeToString(sum[:])
}
