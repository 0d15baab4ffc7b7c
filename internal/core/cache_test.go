package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
)

func TestSatCacheAgreesWithUncached(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint !A_D\n")
	cache := NewSatCache()
	for _, c := range []string{"A", "B", "C", "D"} {
		plain, err := Satisfiable(ds, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := Satisfiable(ds, c, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Satisfiable != cached.Satisfiable {
			t.Errorf("%s: cached = %v, uncached = %v", c, cached.Satisfiable, plain.Satisfiable)
		}
	}
}

// TestSatCacheConcurrentSingleflight hammers one cache from many
// goroutines (run under -race) and checks that every key is computed
// exactly once: misses == unique (schema, root) keys, everything else a
// hit.
func TestSatCacheConcurrentSingleflight(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\n")
	cats := []string{"A", "B", "C", "D"}
	cache := NewSatCache()
	const goroutines = 16
	const rounds = 8

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, c := range cats {
					res, err := SatisfiableContext(context.Background(), ds, c, Options{Cache: cache})
					if err != nil {
						errs <- err
						return
					}
					if !res.Satisfiable {
						errs <- errors.New(c + " reported unsatisfiable")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cs := cache.Stats()
	wantMisses := uint64(len(cats))
	if cs.Misses != wantMisses {
		t.Errorf("misses = %d, want %d (one compute per key)", cs.Misses, wantMisses)
	}
	total := uint64(goroutines * rounds * len(cats))
	if cs.Hits != total-wantMisses {
		t.Errorf("hits = %d, want %d", cs.Hits, total-wantMisses)
	}
	if cs.Entries != len(cats) {
		t.Errorf("entries = %d, want %d", cs.Entries, len(cats))
	}
	if cs.Work.Expansions == 0 {
		t.Error("cache recorded no search work")
	}
	if cs.Hits <= 9*cs.Misses {
		t.Errorf("hits = %d, misses = %d, want a hit rate above 0.9", cs.Hits, cs.Misses)
	}
}

func TestSatCacheDoesNotCacheFailures(t *testing.T) {
	ds := parse(t, hardUnsatSrc(3, 2))
	cache := NewSatCache()
	_, err := SatisfiableContext(context.Background(), ds, "C0", Options{Cache: cache, MaxExpansions: 5})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if cs := cache.Stats(); cs.Entries != 0 {
		t.Fatalf("failed run was cached: %+v", cs)
	}
	// A later, unbudgeted call must recompute and succeed.
	res, err := SatisfiableContext(context.Background(), ds, "C0", Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Error("contradictory schema reported satisfiable")
	}
	if cs := cache.Stats(); cs.Entries != 1 || cs.Misses != 1 {
		t.Errorf("cache after retry = %+v, want 1 entry / 1 miss", cs)
	}
}

func TestSatCacheDistinguishesSchemas(t *testing.T) {
	free := parse(t, diamondSrc)
	dead := parse(t, diamondSrc+"constraint !A_D\nconstraint A_D\n")
	cache := NewSatCache()
	r1, err := Satisfiable(free, "A", Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Satisfiable(dead, "A", Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Satisfiable || r2.Satisfiable {
		t.Errorf("fingerprint collision: free = %v, dead = %v", r1.Satisfiable, r2.Satisfiable)
	}
	if cs := cache.Stats(); cs.Entries != 2 {
		t.Errorf("entries = %d, want 2 distinct schema keys", cs.Entries)
	}
}

func TestMatrixParallelMatchesSerial(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\nconstraint !A_D\n")
	serial, err := SummarizabilityMatrix(ds, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SummarizabilityMatrixContext(context.Background(), ds, Options{Parallelism: 8, Cache: NewSatCache()})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("matrices differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestMinimalSourcesParallelMatchesSerial(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\n")
	serial, err := MinimalSources(ds, "D", 2, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MinimalSourcesContext(context.Background(), ds, "D", 2, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial = %v, parallel = %v", serial, parallel)
	}
	for i := range serial {
		if len(serial[i]) != len(parallel[i]) {
			t.Fatalf("order differs at %d: serial = %v, parallel = %v", i, serial, parallel)
		}
		for j := range serial[i] {
			if serial[i][j] != parallel[i][j] {
				t.Fatalf("order differs at %d: serial = %v, parallel = %v", i, serial, parallel)
			}
		}
	}
}

func TestLintParallelMatchesSerial(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint A_B | A_C | A_D\nconstraint !A_B\n")
	serial, err := Lint(ds, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := LintContext(context.Background(), ds, Options{Parallelism: 8, Cache: NewSatCache()})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("lint reports differ:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestSatCacheWaiterCancellationNoLeak pins the waiter half of the
// singleflight contract: a waiter whose own context is cancelled while
// another goroutine holds the compute must return its ctx.Err promptly —
// not block until the compute finishes — and the episode must leak no
// goroutines.
func TestSatCacheWaiterCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	ds := parse(t, hardUnsatSrc(3, 2))
	cache := NewSatCache()
	// The computing call crawls: 5ms of injected latency per EXPAND step
	// keeps it busy for several seconds unless cancelled.
	slow := Options{
		Cache: cache,
		Faults: faults.New(faults.Rule{
			Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: 5 * time.Millisecond,
		}),
	}
	computeCtx, stopCompute := context.WithCancel(context.Background())
	computing := make(chan struct{})
	computeDone := make(chan error, 1)
	go func() {
		close(computing)
		_, err := SatisfiableContext(computeCtx, ds, "C0", slow)
		computeDone <- err
	}()
	<-computing
	// Give the computing goroutine time to install the singleflight
	// entry, so the waiter below really waits rather than computing.
	for i := 0; i < 100 && inFlight(cache) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if inFlight(cache) == 0 {
		t.Fatal("compute never installed its cache entry")
	}

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := SatisfiableContext(waiterCtx, ds, "C0", Options{Cache: cache})
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the entry
	cancelWaiter()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}

	stopCompute()
	if err := <-computeDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("compute returned %v, want context.Canceled", err)
	}

	// Zero goroutine leaks once both calls have unwound.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after settling", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSatCacheWaiterStopsAtOwnDeadline: Options.Deadline bounds a call
// that coalesces onto another call's in-flight search, although the
// context is derived only once the call waits; a call the cache answers
// at once derives none, so even a passed deadline answers a hit.
func TestSatCacheWaiterStopsAtOwnDeadline(t *testing.T) {
	ds := parse(t, hardUnsatSrc(3, 2))
	cache := NewSatCache()
	slow := Options{
		Cache: cache,
		Faults: faults.New(faults.Rule{
			Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: 5 * time.Millisecond,
		}),
	}
	computeCtx, stopCompute := context.WithCancel(context.Background())
	computeDone := make(chan error, 1)
	go func() {
		_, err := SatisfiableContext(computeCtx, ds, "C0", slow)
		computeDone <- err
	}()
	for i := 0; i < 100 && inFlight(cache) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if inFlight(cache) == 0 {
		t.Fatal("compute never installed its cache entry")
	}

	start := time.Now()
	_, err := SatisfiableContext(context.Background(), ds, "C0", Options{Cache: cache, Deadline: start.Add(50 * time.Millisecond)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("waiter returned after %v, want its own 50ms deadline", waited)
	}
	if st := cache.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
	stopCompute()
	if err := <-computeDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("compute returned %v, want context.Canceled", err)
	}

	// A hit answers under a deadline already passed; a miss does not.
	if _, err := SatisfiableContext(context.Background(), ds, "L1x0", Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	passed := Options{Cache: cache, Deadline: time.Now().Add(-time.Second)}
	if _, err := SatisfiableContext(context.Background(), ds, "L1x0", passed); err != nil {
		t.Fatalf("hit under a passed deadline: %v", err)
	}
	if _, err := SatisfiableContext(context.Background(), ds, "C0", passed); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("miss under a passed deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestNegFingerprintMatchesSchemaFingerprint pins the incremental
// fingerprints the cache peeks of ImpliesContext and of Explain's shrink
// probes hash to the canonical one: a divergence would make every peek
// miss silently and re-derive. Subsets are checked on the compiled
// handle and on a reduction's handle, whose rendering is itself derived.
func TestNegFingerprintMatchesSchemaFingerprint(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint !A_D\nconstraint A_B -> A_C\n")
	cs, err := Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	// checkSubsets holds derivedFingerprint(keep, nil) of every keep
	// that drops one member, of the empty keep and of all of Σ to
	// schemaFingerprint of the schema with those members.
	checkSubsets := func(h *Compiled) {
		t.Helper()
		sigma := h.Source().Sigma
		keeps := [][]int{{}, make([]int, len(sigma))}
		for i := range sigma {
			keeps[1][i] = i
			var keep []int
			for j := range sigma {
				if j != i {
					keep = append(keep, j)
				}
			}
			keeps = append(keeps, keep)
		}
		for _, keep := range keeps {
			var kept []constraint.Expr
			for _, i := range keep {
				kept = append(kept, sigma[i])
			}
			got := h.derivedFingerprint(keep, nil)
			if want := schemaFingerprint(NewDimensionSchema(ds.G, kept...)); got != want {
				t.Fatalf("derivedFingerprint(%v) %s != schemaFingerprint %s", keep, got, want)
			}
			d, err := h.derive(keep, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d.Fingerprint() != got {
				t.Fatalf("derive(%v) fingerprint %s != derivedFingerprint %s", keep, d.Fingerprint(), got)
			}
		}
	}
	checkSubsets(cs)
	for _, alpha := range ds.Sigma {
		not := constraint.Not{X: alpha}
		neg := NewDimensionSchema(ds.G, append(slices.Clone(ds.Sigma), not)...)
		got := cs.negFingerprint(not)
		if want := schemaFingerprint(neg); got != want {
			t.Fatalf("negFingerprint %s != schemaFingerprint %s", got, want)
		}
		// The second call answers from the per-alpha memo.
		if again := cs.negFingerprint(not); again != got {
			t.Fatalf("cached negFingerprint diverged: %s vs %s", again, got)
		}
		if d := cs.derivedFingerprint(nil, not); d != got {
			t.Fatalf("derivedFingerprint(nil, ¬α) %s != negFingerprint %s", d, got)
		}
		red, _, _, _, err := cs.ImpliesReduction(alpha)
		if err != nil {
			t.Fatal(err)
		}
		checkSubsets(red)
	}
}

// TestDerivedFingerprintsConcurrent has goroutines derive from one
// compiled schema at once — ImpliesReduction, a cache peek that presets
// the derived fingerprint, and a subset of the reduction's schema — so
// the lazily built renderings they share are reached concurrently (run
// under -race). Every fingerprint must equal schemaFingerprint of its
// source.
func TestDerivedFingerprintsConcurrent(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint !A_D\nconstraint A_B -> A_C\nconstraint one(A_B, A_C)\n")
	cs, err := Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	var alphas []constraint.Expr
	for _, c := range []string{"B", "C", "D", "All"} {
		alphas = append(alphas, SummarizabilityConstraint("A", c, []string{"B", "C"}))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range alphas {
				alpha := alphas[(g+i)%len(alphas)]
				if g%2 == 0 {
					cs.negFingerprint(constraint.Not{X: alpha})
				}
				d, _, _, _, err := cs.ImpliesReduction(alpha)
				if err != nil {
					t.Error(err)
					return
				}
				keep := []int{0, len(d.src.Sigma) - 1}
				sub, err := d.derive(keep, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := d.derivedFingerprint(keep, nil), schemaFingerprint(sub.Source()); got != want {
					t.Errorf("derivedFingerprint %.12s.. != schemaFingerprint %.12s..", got, want)
				}
				for _, x := range []*Compiled{d, sub} {
					if got, want := x.Fingerprint(), schemaFingerprint(x.Source()); got != want {
						t.Errorf("fingerprint %.12s.. != schemaFingerprint %.12s..", got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
