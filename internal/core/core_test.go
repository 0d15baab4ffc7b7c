package core

import (
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// parse builds a dimension schema from source, failing the test on error.
func parse(t *testing.T, src string) *DimensionSchema {
	t.Helper()
	ds, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return ds
}

const diamondSrc = `
schema diamond
edge A -> B -> D -> All
edge A -> C -> D
edge A -> D
`

func TestValidateDimensionSchema(t *testing.T) {
	ds := parse(t, diamondSrc)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddConstraint(constraint.NewPath("A", "B")); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddConstraint(constraint.NewPath("A", "Z")); err == nil {
		t.Error("invalid constraint accepted")
	}
	bad := NewDimensionSchema(nil)
	if err := bad.Validate(); err == nil {
		t.Error("nil hierarchy schema accepted")
	}
}

func TestSatisfiableBasics(t *testing.T) {
	ds := parse(t, diamondSrc)
	for _, c := range []string{"A", "B", "C", "D"} {
		res, err := Satisfiable(ds, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfiable {
			t.Errorf("%s should be satisfiable in the unconstrained schema", c)
		}
		if res.Witness == nil {
			t.Errorf("%s: missing witness", c)
		} else if err := res.Witness.G.Validate(ds.G); err != nil {
			t.Errorf("%s: witness invalid: %v", c, err)
		}
	}
	res, err := Satisfiable(ds, schema.All, Options{})
	if err != nil || !res.Satisfiable {
		t.Errorf("All must be satisfiable (Proposition 1): %v %v", res.Satisfiable, err)
	}
	if _, err := Satisfiable(ds, "nope", Options{}); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestSatisfiableUnsat(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint A_B & !A_B
`)
	res, err := Satisfiable(ds, "A", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Error("contradiction satisfiable")
	}
	if res.Witness != nil {
		t.Error("unsat result carries a witness")
	}
	// Other categories remain satisfiable.
	res, err = Satisfiable(ds, "B", Options{})
	if err != nil || !res.Satisfiable {
		t.Errorf("B should stay satisfiable: %v %v", res.Satisfiable, err)
	}
}

func TestWitnessSatisfiesSigma(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint one(A_B, A_C)
constraint !A_D
constraint A.D="hot" | A.D="cold"
`)
	res, err := Satisfiable(ds, "A", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("should be satisfiable")
	}
	consts := constraint.ConstMap(ds.Sigma)
	inst, err := res.Witness.ToInstance(ds.G, consts)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("witness instance invalid: %v", err)
	}
	if !inst.SatisfiesAll(ds.Sigma) {
		t.Errorf("witness instance violates sigma:\n%s", inst)
	}
}

func TestImpliesTheorem2(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint one(A_B, A_C)
constraint !A_D
`)
	// Every member of A rolls up to D (through B or C).
	implied, _, err := Implies(ds, constraint.RollupAtom{RootCat: "A", Cat: "D"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !implied {
		t.Error("A.D should be implied")
	}
	// A_B alone is not implied (members may go through C).
	implied, res, err := Implies(ds, constraint.NewPath("A", "B"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if implied {
		t.Error("A_B should not be implied")
	}
	if res.Witness == nil {
		t.Error("non-implication must carry a counterexample")
	} else if res.Witness.G.HasEdge("A", "B") {
		t.Error("counterexample should avoid the edge A -> B")
	}
	// Constants: constraints with no atoms.
	implied, _, err = Implies(ds, constraint.True{}, Options{})
	if err != nil || !implied {
		t.Errorf("true must be implied: %v %v", implied, err)
	}
	implied, _, err = Implies(ds, constraint.False{}, Options{})
	if err != nil || implied {
		t.Errorf("false must not be implied: %v %v", implied, err)
	}
	// Invalid constraints are rejected.
	if _, _, err := Implies(ds, constraint.NewPath("A", "Z"), Options{}); err == nil {
		t.Error("invalid constraint accepted")
	}
}

func TestImpliesMonotone(t *testing.T) {
	// Adding the negation of an implied constraint makes the root
	// unsatisfiable — the Theorem 2 reduction read backwards.
	ds := parse(t, diamondSrc+`
constraint A_B
`)
	alpha := constraint.RollupAtom{RootCat: "A", Cat: "D"}
	implied, _, err := Implies(ds, alpha, Options{})
	if err != nil || !implied {
		t.Fatalf("A.D should be implied: %v %v", implied, err)
	}
	ds.Sigma = append(ds.Sigma, constraint.Not{X: alpha})
	res, err := Satisfiable(ds, "A", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Error("A should be unsatisfiable after adding the negation")
	}
}

func TestUnsatisfiableCategories(t *testing.T) {
	// Example 11: forbidding SaleRegion_Country in a schema where it is
	// SaleRegion's only outgoing edge kills SaleRegion.
	ds := parse(t, `
edge Store -> SaleRegion -> Country -> All
constraint !SaleRegion_Country
`)
	got, err := UnsatisfiableCategories(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SaleRegion", "Store"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("UnsatisfiableCategories = %v, want %v", got, want)
	}
}

func TestOptionsAblationsAgree(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint A_B
constraint one(A_B, A_C, A_D)
constraint A.D="x" -> A_B
`)
	variants := []Options{
		{},
		{DisableIntoPruning: true},
		{DisableStructurePruning: true},
		{DisableIntoPruning: true, DisableStructurePruning: true},
	}
	for _, c := range []string{"A", "B", "C", "D"} {
		var first *Result
		for _, opts := range variants {
			res, err := Satisfiable(ds, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &res
				continue
			}
			if res.Satisfiable != first.Satisfiable {
				t.Errorf("category %s: options %+v disagree", c, opts)
			}
		}
	}
}

func TestStatsCounting(t *testing.T) {
	ds := parse(t, diamondSrc)
	res, err := Satisfiable(ds, "A", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Expansions == 0 {
		t.Error("no expansions recorded")
	}
	if res.Stats.Checks == 0 {
		t.Error("no checks recorded")
	}
}

func TestTracerRecords(t *testing.T) {
	ds := parse(t, diamondSrc)
	tr := &RecordingTracer{}
	if _, err := Satisfiable(ds, "A", Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events recorded")
	}
	sawExpand, sawCheck := false, false
	for _, e := range tr.Events {
		switch e.Kind {
		case "expand":
			sawExpand = true
			if e.Ctop == "" || len(e.R) == 0 {
				t.Errorf("malformed expand event %+v", e)
			}
		case "check":
			sawCheck = true
		}
	}
	if !sawExpand || !sawCheck {
		t.Errorf("trace missing expand/check: %s", tr)
	}
	if tr.String() == "" {
		t.Error("empty trace rendering")
	}
}

func TestEnumerateFrozenAgainstWitness(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint one(A_B, A_C)
constraint !A_D
`)
	fs, err := EnumerateFrozen(ds, "A", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		for _, f := range fs {
			t.Logf("%s", f)
		}
		t.Fatalf("got %d frozen dimensions, want 2 (through B xor through C)", len(fs))
	}
	consts := constraint.ConstMap(ds.Sigma)
	for _, f := range fs {
		inst, err := f.ToInstance(ds.G, consts)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(); err != nil {
			t.Errorf("frozen %s invalid: %v", f, err)
		}
		if !inst.SatisfiesAll(ds.Sigma) {
			t.Errorf("frozen %s violates sigma", f)
		}
	}
}

// shapeTracer counts the complete subhierarchies handed to CHECK and
// those among them that have a cycle or a shortcut.
type shapeTracer struct{ checks, structural int }

func (tr *shapeTracer) Expand(*frozen.Subhierarchy, int, string, []string) {}
func (tr *shapeTracer) Prune(int, string, string)                          {}

func (tr *shapeTracer) Check(g *frozen.Subhierarchy, _ int, induced bool) {
	tr.checks++
	if !g.Acyclic() || !g.ShortcutFree() {
		tr.structural++
	}
}

// TestCheckRejectsShortcutEXPANDMisses pins a subhierarchy that EXPAND's
// structural vetoes cannot reject, so CHECK's acyclicity and shortcut
// re-check is needed with structure pruning on. The vetoes see only the
// edges already present: after w->q and q->y, x takes {y, p} (no path
// from x to y exists yet), and p->q then closes x->p->q->y beside x->y.
func TestCheckRejectsShortcutEXPANDMisses(t *testing.T) {
	ds := parse(t, `
edge r -> x -> y -> All
edge r -> w -> q -> y
edge x -> p -> q
`)
	effort := &EffortSink{}
	fs, err := EnumerateFrozen(ds, "r", Options{Effort: effort})
	if err != nil {
		t.Fatal(err)
	}
	if got := effort.Stats().Checks; got != 6 || len(fs) != 5 {
		t.Fatalf("EnumerateFrozen(r): %d CHECKs and %d frozen dimensions, want 6 and 5", got, len(fs))
	}
	for _, f := range fs {
		if f.G.HasEdge("x", "y") && f.G.HasEdge("x", "p") {
			t.Errorf("frozen dimension %s has the shortcut x->y beside x->p->q->y", f)
		}
	}
	for _, run := range []struct {
		name string
		fn   func(Options) error
	}{
		{"EnumerateFrozen", func(o Options) error { _, err := EnumerateFrozen(ds, "r", o); return err }},
		{"SummarizabilityMatrix", func(o Options) error { _, err := SummarizabilityMatrix(ds, o); return err }},
	} {
		tr := &shapeTracer{}
		if err := run.fn(Options{Tracer: tr}); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if tr.checks != 6 || tr.structural != 1 {
			t.Errorf("%s: %d CHECKs, %d of them on a cyclic or shortcut subhierarchy; want 6 and 1",
				run.name, tr.checks, tr.structural)
		}
	}
}

func TestSummarizabilityConstraintShape(t *testing.T) {
	e := SummarizabilityConstraint("Store", "Country", []string{"State", "Province"})
	want := "Store.Country -> one(Store.Province.Country, Store.State.Country)"
	if e.String() != want {
		t.Errorf("constraint = %q, want %q", e, want)
	}
}

func TestIntoPruningSoundWithNonEdgePathAtoms(t *testing.T) {
	// An unconditional path atom that is not a schema edge at all makes
	// the root unsatisfiable; the into extractor must not force a
	// non-existent edge (it filters to schema edges) and CHECK must
	// reject instead.
	ds := parse(t, `
edge A -> B -> All
edge A -> All
`)
	ds.Sigma = append(ds.Sigma, constraint.PathAtom{Cats: []string{"A", "Z"}})
	// The constraint is not valid against the schema; Validate catches it.
	if err := ds.Validate(); err == nil {
		t.Error("constraint over unknown category accepted")
	}
}
