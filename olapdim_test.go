package olapdim_test

import (
	"context"
	"errors"
	"testing"

	"olapdim"
)

// TestFacade exercises the public facade end to end on a fresh schema.
func TestFacade(t *testing.T) {
	ds, err := olapdim.Parse(`
schema shop
edge Item -> Brand -> All
edge Item -> Kind -> All
constraint one(Item_Brand, Item_Kind)
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := olapdim.Satisfiable(ds, "Item", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Witness == nil {
		t.Fatal("Item should be satisfiable")
	}
	fs, err := olapdim.EnumerateFrozen(ds, "Item", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("frozen dimensions = %d, want 2 (Brand xor Kind)", len(fs))
	}
	alpha, err := olapdim.ParseConstraint("Item.All")
	if err != nil {
		t.Fatal(err)
	}
	implied, _, err := olapdim.Implies(ds, alpha, olapdim.Options{})
	if err != nil || !implied {
		t.Fatalf("Item.All should be implied: %v %v", implied, err)
	}
	rep, err := olapdim.Summarizable(ds, olapdim.All, []string{"Brand", "Kind"}, olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Summarizable() {
		t.Error("All should be summarizable from {Brand, Kind}: each item takes exactly one route")
	}
	rep, err = olapdim.Summarizable(ds, olapdim.All, []string{"Brand"}, olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summarizable() {
		t.Error("All is not summarizable from {Brand} alone")
	}
	unsat, err := olapdim.UnsatisfiableCategories(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(unsat) != 0 {
		t.Errorf("unexpected unsatisfiable categories: %v", unsat)
	}
}

// TestFacadeBuilderAPI builds a schema programmatically.
func TestFacadeBuilderAPI(t *testing.T) {
	g := olapdim.NewHierarchy("built")
	if err := g.AddEdge("A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("B", olapdim.All); err != nil {
		t.Fatal(err)
	}
	e, err := olapdim.ParseConstraint("A_B")
	if err != nil {
		t.Fatal(err)
	}
	ds := olapdim.NewDimensionSchema(g, e)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := olapdim.Satisfiable(ds, "A", olapdim.Options{})
	if err != nil || !res.Satisfiable {
		t.Fatalf("A should be satisfiable: %v %v", res.Satisfiable, err)
	}
}

func TestSplitConstraintFacade(t *testing.T) {
	e, err := olapdim.SplitConstraint("A", []string{"B", "C"}, [][]string{{"B"}, {"C"}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := olapdim.Parse("edge A -> B -> All\nedge A -> C -> All\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddConstraint(e); err != nil {
		t.Fatal(err)
	}
	fs, err := olapdim.EnumerateFrozen(ds, "A", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Errorf("frozen dimensions = %d, want 2", len(fs))
	}
}

// TestContextFacade exercises the context-aware entry points: plain use,
// cancellation, budgets, the shared cache, and SelectViewsContext.
func TestContextFacade(t *testing.T) {
	ds, err := olapdim.Parse(`
schema shop
edge Item -> Brand -> All
edge Item -> Kind -> All
constraint one(Item_Brand, Item_Kind)
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := olapdim.NewSatCache()
	opts := olapdim.Options{Cache: cache}

	res, err := olapdim.SatisfiableContext(ctx, ds, "Item", opts)
	if err != nil || !res.Satisfiable {
		t.Fatalf("SatisfiableContext = %+v, %v", res, err)
	}
	rep, err := olapdim.SummarizableContext(ctx, ds, olapdim.All, []string{"Brand", "Kind"}, opts)
	if err != nil || !rep.Summarizable() {
		t.Fatalf("SummarizableContext = %v, %v", rep, err)
	}
	if _, err := olapdim.SummarizabilityMatrixContext(ctx, ds, opts); err != nil {
		t.Fatal(err)
	}
	sets, err := olapdim.MinimalSourcesContext(ctx, ds, olapdim.All, 2, opts)
	if err != nil || len(sets) == 0 {
		t.Fatalf("MinimalSourcesContext = %v, %v", sets, err)
	}
	// The matrix and minimal sources share their walks through the
	// cache, and a repeated satisfiability question is answered from it.
	if _, err := olapdim.SatisfiableContext(ctx, ds, "Item", opts); err != nil {
		t.Fatal(err)
	}
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Errorf("shared cache recorded no hits: %+v", cs)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := olapdim.SatisfiableContext(canceled, ds, "Item", olapdim.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: err = %v", err)
	}

	oracle := &olapdim.SchemaOracle{DS: ds, Opts: opts}
	sel, err := olapdim.SelectViewsContext(ctx, oracle, map[string]int{"Item": 100, "Brand": 10, "Kind": 10}, []string{"Brand"}, 1000)
	if err != nil || len(sel.Uncovered) != 0 {
		t.Fatalf("SelectViewsContext = %v, %v", sel, err)
	}
	if _, err := olapdim.SelectViewsContext(canceled, oracle, map[string]int{"Brand": 10}, []string{"Brand"}, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled selection: err = %v", err)
	}
}

// TestRobustnessFacade exercises the fault-injection and containment
// surface exported by the facade: injected panics come back as typed
// ErrInternal errors, and the partial matrix reports budget-starved cells
// as unknown instead of failing.
func TestRobustnessFacade(t *testing.T) {
	ds, err := olapdim.Parse(`
schema shop
edge Item -> Brand -> All
edge Item -> Kind -> All
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	inj := olapdim.NewFaultInjector(olapdim.FaultRule{
		Site: olapdim.SiteDimsatExpand, Kind: olapdim.FaultPanic, On: []int{1},
	})
	_, err = olapdim.SatisfiableContext(ctx, ds, "Item", olapdim.Options{Faults: inj})
	if !errors.Is(err, olapdim.ErrInternal) {
		t.Fatalf("injected panic: err = %v, want ErrInternal", err)
	}
	var ie *olapdim.InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("err = %#v, want *InternalError with stack", err)
	}
	if inj.Fired(olapdim.SiteDimsatExpand) != 1 {
		t.Errorf("fired = %d, want 1", inj.Fired(olapdim.SiteDimsatExpand))
	}

	m, err := olapdim.SummarizabilityMatrixPartialContext(ctx, ds, olapdim.Options{MaxExpansions: 1})
	if err != nil {
		t.Fatalf("partial matrix: %v", err)
	}
	if m.Complete() {
		t.Error("budget-starved partial matrix reported complete")
	}

	errInj := olapdim.NewSeededFaultInjector(7, olapdim.FaultRule{
		Site: olapdim.SiteCacheLookup, Kind: olapdim.FaultError,
	})
	_, err = olapdim.SatisfiableContext(ctx, ds, "Item",
		olapdim.Options{Cache: olapdim.NewSatCache(), Faults: errInj})
	if err == nil {
		t.Error("injected cache error not surfaced")
	}
}
