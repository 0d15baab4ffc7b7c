package core

import (
	"errors"
	"strings"
	"testing"

	"olapdim/internal/faults"
	"olapdim/internal/schema"
)

// explainShopSrc has a two-member minimal core at Store: constraint 0
// kills SaleRegion's only path to All and constraint 1 forces Store to
// include SaleRegion; dropping either one makes Store satisfiable again
// (via Brand, or via an unconstrained SaleRegion).
const explainShopSrc = `
schema shop
edge Store -> SaleRegion -> Country -> All
edge Store -> Brand -> All
constraint !SaleRegion_Country
constraint Store_SaleRegion
`

func TestExplainSat(t *testing.T) {
	ds := parse(t, explainShopSrc)
	ex, err := Explain(ds, "Brand", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Satisfiable || ex.Witness == nil {
		t.Fatalf("Brand should be satisfiable with a witness, got %+v", ex)
	}
	if ex.Core != nil || ex.CoreExprs != nil {
		t.Fatalf("SAT verdict must not carry a core: %v", ex.Core)
	}
	if ex.Probes != 0 {
		t.Fatalf("SAT verdict ran %d shrink probes", ex.Probes)
	}
	if ex.Provenance == nil {
		t.Fatal("explanation missing provenance")
	}
	found := false
	for _, c := range ex.Provenance.Categories {
		if c == "Brand" {
			found = true
		}
	}
	if !found {
		t.Fatalf("touched set %v does not contain the root", ex.Provenance.Categories)
	}
}

func TestExplainTrivialAll(t *testing.T) {
	ds := parse(t, explainShopSrc)
	ex, err := Explain(ds, schema.All, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Satisfiable {
		t.Fatal("All must be satisfiable (Proposition 1)")
	}
	if ex.Provenance == nil || len(ex.Provenance.Categories) != 1 || ex.Provenance.Categories[0] != schema.All {
		t.Fatalf("trivial provenance should touch only All, got %+v", ex.Provenance)
	}
}

func TestExplainMinimalCore(t *testing.T) {
	ds := parse(t, explainShopSrc)
	var probes []ShrinkProbe
	opts := Options{ShrinkObserver: func(p ShrinkProbe) { probes = append(probes, p) }}
	ex, err := Explain(ds, "Store", opts)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Satisfiable {
		t.Fatal("Store should be unsatisfiable")
	}
	if len(ex.Core) != 2 || ex.Core[0] != 0 || ex.Core[1] != 1 {
		t.Fatalf("core = %v, want [0 1]", ex.Core)
	}
	if len(ex.CoreExprs) != 2 {
		t.Fatalf("core exprs = %v", ex.CoreExprs)
	}
	if ex.Partial {
		t.Fatal("complete shrink marked partial")
	}
	if ex.Probes != len(probes) || ex.Probes == 0 {
		t.Fatalf("probes = %d, observer saw %d", ex.Probes, len(probes))
	}
	for _, p := range probes {
		if p.Removed {
			t.Fatalf("no member of a 2-element minimal core is removable, probe %+v", p)
		}
		if p.Err != nil {
			t.Fatalf("probe error: %v", p.Err)
		}
		if p.Duration < 0 {
			t.Fatalf("probe duration %v", p.Duration)
		}
	}
	// This schema's branches die at CHECK, not at a pruning heuristic, so
	// the frontier — which records pruned dead ends — is empty here;
	// non-empty frontiers are pinned by TestDimsatGolden/explain.
	if ex.Frontier != nil {
		t.Fatalf("frontier = %v, want none for a CHECK-refuted schema", ex.Frontier)
	}
}

func TestExplainBudgetPartialCore(t *testing.T) {
	ds := parse(t, explainShopSrc)
	full, err := Satisfiable(ds, "Store", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The budget covers the initial run plus a single expansion, so the
	// first shrink probe aborts mid-search: typed error plus the
	// unminimized working set as a partial core.
	ex, err := Explain(ds, "Store", Options{MaxExpansions: full.Stats.Expansions + 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if !ex.Partial {
		t.Fatal("budget abort must mark the explanation partial")
	}
	if len(ex.Core) != 2 {
		t.Fatalf("partial core should be the full working set, got %v", ex.Core)
	}

	// A budget too small for even the initial run still reports Partial
	// with the typed error, just with nothing shrunk yet.
	ex, err = Explain(ds, "Store", Options{MaxExpansions: 1})
	if !errors.Is(err, ErrBudgetExceeded) || !ex.Partial {
		t.Fatalf("tiny budget: err=%v partial=%v", err, ex.Partial)
	}
}

func TestExplainShrinkFault(t *testing.T) {
	ds := parse(t, explainShopSrc)
	inj := faults.New(faults.Rule{Site: faults.SiteCoreShrink, Kind: faults.Error, On: []int{2}})
	ex, err := Explain(ds, "Store", Options{Faults: inj})
	if err == nil || !strings.Contains(err.Error(), "core: shrink") {
		t.Fatalf("err = %v, want a core: shrink fault", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected in the chain", err)
	}
	if !ex.Partial || len(ex.Core) == 0 {
		t.Fatalf("fault abort should return the partial working set, got %+v", ex)
	}
	if ex.Probes != 1 {
		t.Fatalf("fault on hit 2 should leave exactly one completed probe, got %d", ex.Probes)
	}
}

// TestExplainProvenanceBypassesCache pins the cache gate: a provenance-
// enabled run neither reads nor writes the SatCache (like a traced run),
// so its touched set always reflects a real search.
func TestExplainProvenanceBypassesCache(t *testing.T) {
	ds := parse(t, explainShopSrc)
	cache := NewSatCache()
	if _, err := Satisfiable(ds, "Store", Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("priming run: %+v", st)
	}
	res, err := Satisfiable(ds, "Store", Options{Cache: cache, Provenance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance == nil || res.Stats.Expansions == 0 {
		t.Fatalf("provenance run should search for real, got %+v", res)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("provenance run touched the cache: %+v", st)
	}
}

// TestExplainStructuralCore pins the empty-core contract: a category
// that is unsatisfiable with no constraints at all (a cycle blocks every
// path to All) explains itself with an empty — still minimal — core.
func TestExplainStructuralCore(t *testing.T) {
	ds := parse(t, `
schema loop
edge X -> Y -> All
edge Y -> X
`)
	ex, err := Explain(ds, "X", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Satisfiable {
		t.Skip("schema admits a witness; structural-core fixture no longer applies")
	}
	if len(ex.Core) != 0 {
		t.Fatalf("structural UNSAT should have an empty core, got %v", ex.Core)
	}
}
