package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"olapdim/internal/faults"
	"olapdim/internal/frozen"
)

// TestCacheHitZeroStatsAndEffortSink pins the no-double-counting
// contract: the first call computes and its effort lands in its sink and
// in the cache's cumulative Work; the second call is a hit that returns
// zero Stats and leaves its own sink untouched, so per-request effort
// accounting never re-attributes work the cache already did.
func TestCacheHitZeroStatsAndEffortSink(t *testing.T) {
	ds := parse(t, diamondSrc)
	cache := NewSatCache()
	var s1, s2 EffortSink

	r1, err := SatisfiableContext(context.Background(), ds, "A", Options{Cache: cache, Effort: &s1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Expansions == 0 {
		t.Fatal("computing call reported zero expansions")
	}
	if got := s1.Stats(); got != r1.Stats {
		t.Errorf("sink of computing call = %+v, want %+v", got, r1.Stats)
	}
	if s1.Runs() != 1 {
		t.Errorf("sink runs = %d, want 1", s1.Runs())
	}

	r2, err := SatisfiableContext(context.Background(), ds, "A", Options{Cache: cache, Effort: &s2})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Satisfiable != r1.Satisfiable {
		t.Errorf("hit verdict %v != computed %v", r2.Satisfiable, r1.Satisfiable)
	}
	if r2.Stats != (Stats{}) {
		t.Errorf("cache hit returned Stats %+v, want zero", r2.Stats)
	}
	if got := s2.Stats(); got != (Stats{}) || s2.Runs() != 0 {
		t.Errorf("cache hit fed the effort sink: %+v, %d runs", got, s2.Runs())
	}
	cs := cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", cs.Hits, cs.Misses)
	}
	if cs.Work != r1.Stats {
		t.Errorf("cache Work = %+v, want the computing call's %+v", cs.Work, r1.Stats)
	}
}

// TestSatCacheSizeEviction checks the bounded cache: FIFO eviction past
// the cap, the eviction counter, and that an evicted key recomputes.
func TestSatCacheSizeEviction(t *testing.T) {
	ds := parse(t, diamondSrc)
	cache := NewSatCacheSize(2)
	for _, c := range []string{"A", "B", "C", "D"} {
		if _, err := Satisfiable(ds, c, Options{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	cs := cache.Stats()
	if cs.Entries != 2 || cs.Evictions != 2 || cs.Misses != 4 {
		t.Fatalf("after 4 distinct roots: %+v, want 2 entries / 2 evictions / 4 misses", cs)
	}
	// A (the oldest) was evicted: querying it again is a miss...
	if _, err := Satisfiable(ds, "A", Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cs = cache.Stats(); cs.Misses != 5 || cs.Entries != 2 {
		t.Fatalf("evicted root did not recompute: %+v", cs)
	}
	// ...while D (recent) is still a hit.
	if _, err := Satisfiable(ds, "D", Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if cs = cache.Stats(); cs.Hits != 1 {
		t.Fatalf("retained root did not hit: %+v", cs)
	}
}

// TestSatCacheCoalescedCounter arms per-step latency so the first call
// holds the singleflight slot long enough for a second call to block on
// it, then checks the coalesced counter (a subset of hits).
func TestSatCacheCoalescedCounter(t *testing.T) {
	ds := parse(t, diamondSrc)
	cache := NewSatCache()
	slow := Options{
		Cache: cache,
		Faults: faults.New(faults.Rule{
			Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: 30 * time.Millisecond,
		}),
	}
	computing := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(computing)
		_, err := SatisfiableContext(context.Background(), ds, "A", slow)
		done <- err
	}()
	<-computing
	for i := 0; i < 200 && inFlight(cache) == 0; i++ {
		// Wait for the in-flight singleflight slot so the second call
		// coalesces.
		time.Sleep(time.Millisecond)
	}
	res, err := SatisfiableContext(context.Background(), ds, "A", Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Error("diamond root reported unsatisfiable")
	}
	cs := cache.Stats()
	if cs.Coalesced < 1 {
		t.Errorf("coalesced = %d, want >= 1", cs.Coalesced)
	}
	if cs.Hits < cs.Coalesced {
		t.Errorf("coalesced (%d) must be a subset of hits (%d)", cs.Coalesced, cs.Hits)
	}
}

// countingTracer counts the Tracer callbacks, the deepest expansion and
// the prune heuristics.
type countingTracer struct {
	expands, checks, prunes int
	maxDepth                int
	heuristics              map[string]int
}

func (r *countingTracer) Expand(g *frozen.Subhierarchy, depth int, ctop string, R []string) {
	r.expands++
	if depth > r.maxDepth {
		r.maxDepth = depth
	}
}
func (r *countingTracer) Check(g *frozen.Subhierarchy, depth int, induced bool) { r.checks++ }
func (r *countingTracer) Prune(depth int, ctop, heuristic string) {
	r.prunes++
	if r.heuristics == nil {
		r.heuristics = map[string]int{}
	}
	r.heuristics[heuristic]++
}

// TestStructuredTracerMatchesStats runs searches with a tracer installed
// and checks the event counts agree exactly with the engine's Stats —
// expand events with Expansions, check events with Checks, prune events
// (with their heuristics) with DeadEnds — so a trace is a faithful
// record of the search effort.
func TestStructuredTracerMatchesStats(t *testing.T) {
	srcs := map[string]string{
		"diamond":      diamondSrc,
		"diamond-one":  diamondSrc + "constraint one(A_B, A_C)\n",
		"diamond-dead": diamondSrc + "constraint !A_D\n",
		// Contradictory edge atoms force and forbid the same into-edge,
		// which the "into" heuristic prunes as a dead end.
		"forced-into": diamondSrc + "constraint A_B\nconstraint !A_B\n",
		"hard-unsat":  hardUnsatSrc(3, 2),
	}
	sawDeadEnds := false
	for name, src := range srcs {
		ds := parse(t, src)
		root := ds.G.Bottoms()[0]
		tr := &countingTracer{}
		res, err := SatisfiableContext(context.Background(), ds, root, Options{Tracer: tr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.expands != res.Stats.Expansions {
			t.Errorf("%s: expand events = %d, Stats.Expansions = %d", name, tr.expands, res.Stats.Expansions)
		}
		if tr.checks != res.Stats.Checks {
			t.Errorf("%s: check events = %d, Stats.Checks = %d", name, tr.checks, res.Stats.Checks)
		}
		if tr.prunes != res.Stats.DeadEnds {
			t.Errorf("%s: prune events = %d, Stats.DeadEnds = %d", name, tr.prunes, res.Stats.DeadEnds)
		}
		if res.Stats.DeadEnds > 0 {
			sawDeadEnds = true
			if len(tr.heuristics) == 0 {
				t.Errorf("%s: dead ends without heuristic names", name)
			}
		}
		for h := range tr.heuristics {
			switch h {
			case "into", "cycle-frontier", "sibling-shortcut":
			default:
				t.Errorf("%s: unknown prune heuristic %q", name, h)
			}
		}
	}
	if !sawDeadEnds {
		t.Error("no test schema exercised a pruning dead end")
	}
}

// TestTracerChecksMatchStats checks that every step counted in Stats
// reaches the tracer on each surface that searches — Satisfiable, and
// EnumerateFrozen and the summarizability matrix, whose visit hooks
// stand in for CHECK: as many Check events as Checks, Expand events as
// Expansions and Prune events as DeadEnds.
func TestTracerChecksMatchStats(t *testing.T) {
	ctx := context.Background()
	srcs := map[string]string{
		"diamond":     diamondSrc,
		"diamond-one": diamondSrc + "constraint one(A_B, A_C)\n",
		"hard-unsat":  hardUnsatSrc(3, 2),
	}
	for name, src := range srcs {
		ds := parse(t, src)
		root := ds.G.Bottoms()[0]
		surfaces := map[string]func(Options) error{
			"Satisfiable": func(o Options) error {
				_, err := SatisfiableContext(ctx, ds, root, o)
				return err
			},
			"EnumerateFrozen": func(o Options) error {
				_, err := EnumerateFrozenContext(ctx, ds, root, o)
				return err
			},
			"SummarizabilityMatrix": func(o Options) error {
				_, err := SummarizabilityMatrixContext(ctx, ds, o)
				return err
			},
		}
		for surface, run := range surfaces {
			// A traced run bypasses the cache, so a traced repeat on a
			// shared cache still sees every step.
			cache := NewSatCache()
			var first Stats
			for call := 1; call <= 2; call++ {
				tr := &countingTracer{}
				effort := &EffortSink{}
				if err := run(Options{Tracer: tr, Effort: effort, Cache: cache}); err != nil {
					t.Fatalf("%s %s: %v", name, surface, err)
				}
				st := effort.Stats()
				if st.Checks == 0 {
					t.Errorf("%s %s call %d: no CHECK counted", name, surface, call)
				}
				if tr.checks != st.Checks {
					t.Errorf("%s %s call %d: Check events %d, Stats.Checks %d", name, surface, call, tr.checks, st.Checks)
				}
				if tr.expands != st.Expansions || tr.prunes != st.DeadEnds {
					t.Errorf("%s %s call %d: expand/prune events %d/%d, Stats %d/%d", name, surface, call, tr.expands, tr.prunes, st.Expansions, st.DeadEnds)
				}
				if call == 1 {
					first = st
				} else if st != first {
					t.Errorf("%s %s: traced repeat saw %+v, first run %+v", name, surface, st, first)
				}
			}
			if cs := cache.Stats(); cs.Hits+cs.Misses != 0 || cs.Entries != 0 {
				t.Errorf("%s %s: traced runs used the cache: %+v", name, surface, cs)
			}
		}
	}
}

// recordingPoolObserver checks the PoolObserver bookkeeping invariants
// under a real parallel matrix run.
type recordingPoolObserver struct {
	mu       sync.Mutex
	batches  int
	started  int
	done     int
	errs     int
	queue    int // BatchStart adds, TaskStart and BatchDone subtract
	maxQueue int
}

func (p *recordingPoolObserver) BatchStart(tasks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batches++
	p.queue += tasks
	if p.queue > p.maxQueue {
		p.maxQueue = p.queue
	}
}
func (p *recordingPoolObserver) BatchDone(skipped int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queue -= skipped
}
func (p *recordingPoolObserver) TaskStart() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.started++
	p.queue--
}
func (p *recordingPoolObserver) TaskDone(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if err != nil {
		p.errs++
	}
}

func TestPoolObserverBookkeeping(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\n")
	po := &recordingPoolObserver{}
	if _, err := SummarizabilityMatrixContext(context.Background(), ds, Options{
		Parallelism: 4, Cache: NewSatCache(), Pool: po,
	}); err != nil {
		t.Fatal(err)
	}
	po.mu.Lock()
	defer po.mu.Unlock()
	if po.batches == 0 || po.started == 0 {
		t.Fatalf("observer saw no work: %+v", po)
	}
	if po.started != po.done {
		t.Errorf("TaskStart (%d) != TaskDone (%d)", po.started, po.done)
	}
	if po.queue != 0 {
		t.Errorf("queue did not reconcile to zero: %d", po.queue)
	}
	if po.errs != 0 {
		t.Errorf("clean matrix reported %d task errors", po.errs)
	}
}

// TestPoolObserverSeesPanicsAsErrors pins the defer ordering in runPool:
// TaskDone must observe the error a panicking task was converted to, not
// a nil snapshot taken before recovery.
func TestPoolObserverSeesPanicsAsErrors(t *testing.T) {
	ds := parse(t, diamondSrc)
	po := &recordingPoolObserver{}
	_, err := SummarizabilityMatrixContext(context.Background(), ds, Options{
		Parallelism: 2,
		Pool:        po,
		Faults: faults.New(faults.Rule{
			Site: faults.SitePoolTask, Kind: faults.Panic, On: []int{1},
		}),
	})
	if err == nil {
		t.Fatal("injected pool panic did not surface")
	}
	po.mu.Lock()
	defer po.mu.Unlock()
	if po.errs == 0 {
		t.Error("TaskDone never observed the recovered panic as an error")
	}
	if po.queue != 0 {
		t.Errorf("queue did not reconcile after abort: %d", po.queue)
	}
}
