package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
)

// TestCacheFailsMidSweep arms an error on the third sat-cache lookup and
// checks the category sweep, whose satisfiability searches read the
// cache, surfaces it instead of wedging: the injected error aborts the
// computation and is visible through errors.Is.
func TestCacheFailsMidSweep(t *testing.T) {
	ds := parse(t, diamondSrc)
	opts := Options{
		Cache:       NewSatCache(),
		Parallelism: 1,
		Faults:      faults.New(faults.Rule{Site: faults.SiteCacheLookup, Kind: faults.Error, On: []int{3}}),
	}
	_, err := UnsatisfiableCategoriesContext(context.Background(), ds, opts)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want injected cache failure", err)
	}
	if got := opts.Faults.Hits(faults.SiteCacheLookup); got < 3 {
		t.Errorf("cache lookups = %d, want >= 3", got)
	}
}

// TestSearchStallsPastDeadline injects latency before every EXPAND step so
// a short-deadline search stalls: the context check right after the stall
// observes the passed deadline and the run aborts with DeadlineExceeded.
func TestSearchStallsPastDeadline(t *testing.T) {
	ds := parse(t, diamondSrc)
	opts := Options{
		Faults: faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Delay: 50 * time.Millisecond}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := SatisfiableContext(ctx, ds, "A", opts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestPartialMatrixDegradesUnderStall runs the overload-safe matrix with
// stalled searches and a short deadline: instead of failing, every
// undecided cell is reported unknown.
func TestPartialMatrixDegradesUnderStall(t *testing.T) {
	ds := parse(t, diamondSrc)
	opts := Options{
		Parallelism: 1,
		Faults:      faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Delay: 20 * time.Millisecond}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	m, err := SummarizabilityMatrixPartialContext(ctx, ds, opts)
	if err != nil {
		t.Fatalf("partial matrix failed: %v", err)
	}
	if m.Complete() {
		t.Error("stalled matrix reported complete")
	}
	var unknown int
	for _, row := range m.Unknown {
		unknown += len(row)
	}
	if n := len(m.Categories); unknown != n*n {
		t.Errorf("unknown cells = %d, want all %d", unknown, n*n)
	}
}

// TestPartialMatrixBudgetExceeded checks the budget flavor of degradation:
// a one-expansion budget cannot decide any cell, and the partial matrix
// reports them unknown while the strict variant fails outright.
func TestPartialMatrixBudgetExceeded(t *testing.T) {
	ds := parse(t, diamondSrc)
	opts := Options{MaxExpansions: 1, Parallelism: 1}
	if _, err := SummarizabilityMatrix(ds, opts); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("strict matrix err = %v, want ErrBudgetExceeded", err)
	}
	m, err := SummarizabilityMatrixPartialContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatalf("partial matrix failed: %v", err)
	}
	if m.Complete() {
		t.Error("budget-starved matrix reported complete")
	}
}

// TestPanicInCacheComputeDoesNotWedgeWaiters panics inside the search
// while it runs as a singleflight cache compute: the panic must become an
// error before the cache's entry bookkeeping, or every waiter on the same
// key would block forever on a done channel that never closes.
func TestPanicInCacheComputeDoesNotWedgeWaiters(t *testing.T) {
	ds := parse(t, diamondSrc)
	opts := Options{
		Cache:  NewSatCache(),
		Faults: faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{1}}),
	}
	done := make(chan error, 1)
	go func() {
		_, err := Satisfiable(ds, "A", opts)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("err = %v, want ErrInternal", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache compute wedged after panic")
	}
	// The failed compute is not cached; a clean retry succeeds.
	opts.Faults = nil
	res, err := Satisfiable(ds, "A", opts)
	if err != nil || !res.Satisfiable {
		t.Fatalf("retry after contained panic: res=%+v err=%v", res, err)
	}
}

// TestInjectionIsDeterministic replays the same fault configuration twice
// on a sequential pool — the category sweep of diamondSrc, one task per
// category, five in all — and checks the schedule is identical: same
// number of site passes, same activations, same error.
func TestInjectionIsDeterministic(t *testing.T) {
	run := func() (hits, fired int, err error) {
		ds := parse(t, diamondSrc)
		opts := Options{
			Parallelism: 1,
			Faults:      faults.New(faults.Rule{Site: faults.SitePoolTask, Kind: faults.Error, On: []int{5}}),
		}
		_, err = UnsatisfiableCategoriesContext(context.Background(), ds, opts)
		return opts.Faults.Hits(faults.SitePoolTask), opts.Faults.Fired(faults.SitePoolTask), err
	}
	h1, f1, e1 := run()
	h2, f2, e2 := run()
	if h1 != h2 || f1 != f2 {
		t.Errorf("schedules diverged: hits %d vs %d, fired %d vs %d", h1, h2, f1, f2)
	}
	if h1 != 5 || f1 != 1 {
		t.Errorf("hits/fired = %d/%d, want 5/1 (sequential pool stops at the injected failure)", h1, f1)
	}
	if !errors.Is(e1, faults.ErrInjected) || !errors.Is(e2, faults.ErrInjected) {
		t.Errorf("errors = %v, %v, want injected", e1, e2)
	}
}

// TestFacadeEntryPointsRecover drives each ...Context facade with a panic
// armed at its first reachable site and checks every one of them returns
// ErrInternal instead of crashing the caller.
func TestFacadeEntryPointsRecover(t *testing.T) {
	ds := parse(t, diamondSrc)
	panicOnExpand := func() Options {
		return Options{Faults: faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{1}})}
	}
	calls := map[string]func() error{
		"Satisfiable": func() error {
			_, err := Satisfiable(ds, "A", panicOnExpand())
			return err
		},
		"EnumerateFrozen": func() error {
			_, err := EnumerateFrozen(ds, "A", panicOnExpand())
			return err
		},
		"Implies": func() error {
			_, _, err := Implies(ds, constraint.NewPath("A", "B"), panicOnExpand())
			return err
		},
		"Summarizable": func() error {
			_, err := Summarizable(ds, "D", []string{"B"}, panicOnExpand())
			return err
		},
		"SummarizabilityMatrix": func() error {
			_, err := SummarizabilityMatrix(ds, panicOnExpand())
			return err
		},
		"MinimalSources": func() error {
			_, err := MinimalSources(ds, "D", 1, panicOnExpand())
			return err
		},
		"Lint": func() error {
			_, err := Lint(ds, panicOnExpand())
			return err
		},
		"CategorySatisfiability": func() error {
			_, err := CategorySatisfiabilityContext(context.Background(), ds, panicOnExpand())
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrInternal) {
			t.Errorf("%s: err = %v, want ErrInternal", name, err)
		}
	}
}
