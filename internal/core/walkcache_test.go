package core

// The summarizability matrix and MinimalSources retain each bottom
// category's finished walk in the SatCache. The tests below pin the rules
// those entries share with the satisfiability entries: a key is computed
// once, a hit costs no search, a walk cut short is never retained, and a
// traced run bypasses the cache (TestTracerChecksMatchStats).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"olapdim/internal/faults"
)

// inFlight counts the cache's singleflight slots still computing.
func inFlight(c *SatCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries) - len(c.order)
}

// TestSatCacheEntriesCountRetainedOnly: Entries counts retained results
// only — a compute still running reads 0, a finished one 1, a failed
// one 0.
func TestSatCacheEntriesCountRetainedOnly(t *testing.T) {
	ctx := context.Background()
	cache := NewSatCache()
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := cache.satisfiable(ctx, time.Time{}, "fp", "A", func(context.Context) (Result, error) {
			close(started)
			<-release
			return Result{Satisfiable: true}, nil
		})
		done <- err
	}()
	<-started
	if st := cache.Stats(); st.Entries != 0 || inFlight(cache) != 1 {
		t.Errorf("blocked compute: entries %d, in flight %d; want 0 and 1", st.Entries, inFlight(cache))
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("finished compute: %+v, want 1 entry and 1 miss", st)
	}

	failed := NewSatCache()
	if _, err := failed.satisfiable(ctx, time.Time{}, "fp", "A", func(context.Context) (Result, error) {
		return Result{}, ErrBudgetExceeded
	}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if st := failed.Stats(); st.Entries != 0 || inFlight(failed) != 0 {
		t.Errorf("failed compute: entries %d, in flight %d; want 0 and 0", st.Entries, inFlight(failed))
	}
}

// TestWalkCacheRepeatRunsNoSearch: on a shared cache the first matrix or
// MinimalSources call computes one walk per bottom category; every
// repeat answers the same from hits alone, with no search effort and no
// pool batch. Both surfaces read the same walks, and a walk entry is
// distinct from the bottom category's satisfiability entry.
func TestWalkCacheRepeatRunsNoSearch(t *testing.T) {
	ctx := context.Background()
	ds := parse(t, multiBottomSrc)
	bottoms := uint64(len(ds.G.Bottoms()))
	matrix := func(o Options) (string, error) {
		m, err := SummarizabilityMatrixContext(ctx, ds, o)
		if err != nil {
			return "", err
		}
		return m.String(), nil
	}
	sources := func(o Options) (string, error) {
		sets, err := MinimalSourcesContext(ctx, ds, "Region", 2, o)
		return fmt.Sprint(sets), err
	}
	for name, run := range map[string]func(Options) (string, error){"matrix": matrix, "sources": sources} {
		want, err := run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSatCache()
		for call := 1; call <= 3; call++ {
			effort, po := &EffortSink{}, &recordingPoolObserver{}
			got, err := run(Options{Cache: cache, Effort: effort, Pool: po})
			if err != nil {
				t.Fatalf("%s call %d: %v", name, call, err)
			}
			if got != want {
				t.Errorf("%s call %d = %s, uncached %s", name, call, got, want)
			}
			st := cache.Stats()
			if st.Misses != bottoms || st.Hits != uint64(call-1)*bottoms || st.Entries != int(bottoms) {
				t.Errorf("%s call %d: cache %+v, want %d misses, %d hits, %d entries", name, call, st, bottoms, uint64(call-1)*bottoms, bottoms)
			}
			if call == 1 {
				if effort.Stats().Expansions == 0 || st.Work != effort.Stats() {
					t.Errorf("%s call 1: effort %+v, cache work %+v; want equal and nonzero", name, effort.Stats(), st.Work)
				}
				continue
			}
			if effort.Stats() != (Stats{}) || effort.Runs() != 0 || po.batches != 0 {
				t.Errorf("%s call %d: effort %+v in %d runs, %d pool batches; want none", name, call, effort.Stats(), effort.Runs(), po.batches)
			}
		}
		effort := &EffortSink{}
		other := sources
		if name == "sources" {
			other = matrix
		}
		if _, err := other(Options{Cache: cache, Effort: effort}); err != nil || effort.Runs() != 0 {
			t.Errorf("after %s: the other surface ran %d searches (err %v), want 0", name, effort.Runs(), err)
		}
		res, err := Satisfiable(ds, ds.G.Bottoms()[0], Options{Cache: cache})
		if err != nil || !res.Satisfiable || res.Witness == nil {
			t.Errorf("after %s: Satisfiable(%s) = %+v, %v; want a witness", name, ds.G.Bottoms()[0], res, err)
		}
		if st := cache.Stats(); st.Misses != bottoms+1 {
			t.Errorf("after %s: misses %d, want %d (the verdict is its own entry)", name, st.Misses, bottoms+1)
		}
	}
}

// TestSummarizableReadsRetainedWalks: Summarizable decides every bottom
// category on the walks the matrix and MinimalSources retain. After one
// MinimalSources call on a shared cache it answers every target and
// source set as the uncached call does, with no miss, no new entry and
// no search effort; on a compiled handle it compiles and derives
// nothing, with the cache or without.
func TestSummarizableReadsRetainedWalks(t *testing.T) {
	ctx := context.Background()
	render := func(rep *SummarizabilityReport) string {
		var b strings.Builder
		for _, r := range rep.PerBottom {
			fmt.Fprintf(&b, "%s %s %v", r.Bottom, r.Constraint, r.Implied)
			if !r.Implied {
				fmt.Fprintf(&b, " %s", r.Counterexample.Witness.Key())
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	schemas := []*DimensionSchema{parse(t, multiBottomSrc), parse(t, diamondSrc)}
	for seed := int64(1); seed <= 3; seed++ {
		schemas = append(schemas, RandomDS(seed))
	}
	for i, ds := range schemas {
		cs, err := Compile(ds)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSatCache()
		if _, err := MinimalSourcesContext(ctx, ds, ds.G.Bottoms()[0], 1, Options{Compiled: cs, Cache: cache}); err != nil {
			t.Fatal(err)
		}
		before, compiles := cache.Stats(), cs.Stats().Compiles
		effort := &EffortSink{}
		cats := ds.G.SortedCategories()
		for _, tgt := range cats {
			sets := [][]string{nil, {tgt}}
			for n := 1; n <= 3; n++ {
				for j := 0; j+n <= len(cats); j++ {
					sets = append(sets, cats[j:j+n])
				}
			}
			for _, S := range sets {
				want, err := SummarizableContext(ctx, ds, tgt, S, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range []Options{{Compiled: cs}, {Compiled: cs, Cache: cache, Effort: effort}} {
					got, err := SummarizableContext(ctx, ds, tgt, S, o)
					if err != nil {
						t.Fatal(err)
					}
					if render(got) != render(want) {
						t.Errorf("schema %d: %s from %v =\n%suncached\n%s", i, tgt, S, render(got), render(want))
					}
				}
			}
		}
		if st := cache.Stats(); st.Misses != before.Misses || st.Entries != before.Entries {
			t.Errorf("schema %d: cache %+v after the Summarizable calls, %+v before; want no miss and no entry", i, st, before)
		}
		if effort.Stats() != (Stats{}) || effort.Runs() != 0 {
			t.Errorf("schema %d: Summarizable on retained walks spent %+v in %d runs, want none", i, effort.Stats(), effort.Runs())
		}
		if got := cs.Stats().Compiles; got != compiles {
			t.Errorf("schema %d: %d compiles after the Summarizable calls, %d before", i, got, compiles)
		}
	}
}

// TestWalkCacheConcurrentFirstCallers: 16 concurrent first callers (run
// under -race) walk each bottom category once between them.
func TestWalkCacheConcurrentFirstCallers(t *testing.T) {
	ds := parse(t, multiBottomSrc)
	want, err := SummarizabilityMatrix(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSatCache()
	const callers = 16
	got := make([]*Matrix, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = SummarizabilityMatrixContext(context.Background(), ds, Options{Cache: cache, Parallelism: 2})
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if got[g].String() != want.String() {
			t.Errorf("caller %d:\n%s\nuncached:\n%s", g, got[g], want)
		}
	}
	bottoms := uint64(len(ds.G.Bottoms()))
	if st := cache.Stats(); st.Misses != bottoms || st.Hits != callers*bottoms-bottoms || st.Entries != int(bottoms) {
		t.Errorf("cache %+v, want %d misses, %d hits, %d entries", st, bottoms, callers*bottoms-bottoms, bottoms)
	}
}

// TestWalkCacheDoesNotRetainCutWalks: a walk cut short by the budget
// still answers its partial matrix but is not retained; a later call
// without a budget computes it, and once retained it answers a budgeted
// call too.
func TestWalkCacheDoesNotRetainCutWalks(t *testing.T) {
	ctx := context.Background()
	ds := parse(t, diamondSrc)
	want, err := SummarizabilityMatrix(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSatCache()
	effort := &EffortSink{}
	budgeted := Options{Cache: cache, MaxExpansions: 1, Effort: effort}
	pm, err := SummarizabilityMatrixPartialContext(ctx, ds, budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Complete() {
		t.Error("a one-step budget decided every cell")
	}
	if _, err := SummarizabilityMatrixContext(ctx, ds, budgeted); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("strict matrix err = %v, want ErrBudgetExceeded", err)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Misses != 0 || st.Work != (Stats{}) {
		t.Errorf("cut walks were retained: %+v", st)
	}
	if effort.Stats().Expansions == 0 {
		t.Error("the cut walks' effort was not counted")
	}
	m, err := SummarizabilityMatrixContext(ctx, ds, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != want.String() {
		t.Errorf("matrix after the cut walks:\n%s\nuncached:\n%s", m, want)
	}
	if st := cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("cache after the unbudgeted call: %+v, want 1 entry and 1 miss", st)
	}
	pm, err = SummarizabilityMatrixPartialContext(ctx, ds, budgeted)
	if err != nil || !pm.Complete() || pm.String() != want.String() {
		t.Errorf("budgeted call on a retained walk: complete %v, err %v, want the full matrix", pm.Complete(), err)
	}
}

// TestWalkCacheWaiterDeadline: a call whose deadline passes while it
// waits on another call's walk of the same bottom category reports that
// bottom's cells unknown, as if its own walk had been cut, and returns
// without waiting for the walk to finish.
func TestWalkCacheWaiterDeadline(t *testing.T) {
	ds := parse(t, hardUnsatSrc(3, 2))
	cache := NewSatCache()
	slow := Options{
		Cache:  cache,
		Faults: faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: 5 * time.Millisecond}),
	}
	computeCtx, stopCompute := context.WithCancel(context.Background())
	computeDone := make(chan error, 1)
	go func() {
		_, err := SummarizabilityMatrixContext(computeCtx, ds, slow)
		computeDone <- err
	}()
	for i := 0; i < 100 && inFlight(cache) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if inFlight(cache) == 0 {
		t.Fatal("the walk never installed its cache entry")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	pm, err := SummarizabilityMatrixPartialContext(ctx, ds, Options{Cache: cache})
	if err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if n := len(pm.Categories); countUnknown(pm) != n*n {
		t.Errorf("waiter: %d unknown cells, want all %d", countUnknown(pm), n*n)
	}
	if cache.Stats().Coalesced == 0 {
		t.Error("the waiter did not wait on the walk in flight")
	}
	stopCompute()
	if err := <-computeDone; !errors.Is(err, context.Canceled) {
		t.Errorf("walking call err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Entries != 0 || inFlight(cache) != 0 {
		t.Errorf("canceled walk left %+v, %d in flight", st, inFlight(cache))
	}
}

func countUnknown(m *Matrix) int {
	n := 0
	for _, row := range m.Unknown {
		n += len(row)
	}
	return n
}

// TestWalkCacheLookupFault: a matrix call that consults the cache for
// its walks passes the cache-lookup fault site once, as a satisfiability
// call does, and an uncached one does not pass it.
func TestWalkCacheLookupFault(t *testing.T) {
	ctx := context.Background()
	ds := parse(t, multiBottomSrc)
	inj := faults.New(faults.Rule{Site: faults.SiteCacheLookup, Kind: faults.Error})
	if _, err := SummarizabilityMatrixPartialContext(ctx, ds, Options{Cache: NewSatCache(), Faults: inj}); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("cached matrix err = %v, want the injected error", err)
	}
	if got := inj.Hits(faults.SiteCacheLookup); got != 1 {
		t.Errorf("cache-lookup site passed %d times, want 1", got)
	}
	inj = faults.New(faults.Rule{Site: faults.SiteCacheLookup, Kind: faults.Error})
	if _, err := SummarizabilityMatrixContext(ctx, ds, Options{Faults: inj}); err != nil {
		t.Errorf("uncached matrix err = %v", err)
	}
	if got := inj.Hits(faults.SiteCacheLookup); got != 0 {
		t.Errorf("uncached matrix passed the cache-lookup site %d times", got)
	}
}
