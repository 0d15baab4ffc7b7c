package olap_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/instance"
	"olapdim/internal/olap"
	"olapdim/internal/paper"
	"olapdim/internal/schema"
)

// TestTheorem1Equivalence is experiment T1: on random valid dimension
// instances, the Theorem 1 characterization (a dimension constraint over
// the instance) coincides with Definition 6 (cube view rewriting equality
// for every fact table and distributive aggregate).
//
// Direction ⇒: when summarizable, the rewriting equals the direct cube
// view for a random fact table under all four aggregates, and for every
// single-fact table.
//
// Direction ⇐: when not summarizable, some single-fact table already
// exposes a mismatch under SUM or COUNT (single-fact tables are decisive:
// a base member routed through zero or several source categories loses or
// duplicates its contribution).
func TestTheorem1Equivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := gen.SchemaSpec{
			Seed:          seed,
			Categories:    3 + rng.Intn(4),
			Levels:        2 + rng.Intn(2),
			ExtraEdgeProb: 0.3,
		}
		d, err := gen.RandomInstance(spec, 1+rng.Intn(3))
		if err != nil {
			t.Logf("generator: %v", err)
			return false
		}
		cats := nonAllCategories(d)
		target := cats[rng.Intn(len(cats))]
		S := randomSubset(rng, cats)
		if len(S) == 0 {
			return true
		}
		summarizable := core.SummarizableInInstance(d, target, S)
		mismatch, witness := definition6Mismatch(d, target, S, seed)
		if summarizable && mismatch {
			t.Logf("Theorem 1 claims summarizable but Definition 6 differs (%s from %v, witness %s)\n%s",
				target, S, witness, d)
			return false
		}
		if !summarizable && !mismatch {
			t.Logf("Theorem 1 claims not summarizable but no fact table disagrees (%s from %v)\n%s",
				target, S, d)
			return false
		}
		return true
	}
	n := 250
	if testing.Short() {
		n = 60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

func nonAllCategories(d *instance.Instance) []string {
	var out []string
	for _, c := range d.Schema().SortedCategories() {
		if c != schema.All {
			out = append(out, c)
		}
	}
	return out
}

func randomSubset(rng *rand.Rand, cats []string) []string {
	var out []string
	for _, c := range cats {
		if rng.Intn(3) == 0 {
			out = append(out, c)
		}
	}
	if len(out) == 0 && len(cats) > 0 {
		out = append(out, cats[rng.Intn(len(cats))])
	}
	return out
}

// definition6Mismatch checks Definition 6 exhaustively enough to be
// decisive: a random fact table under all four aggregates, plus one
// single-fact table per base member under SUM and COUNT.
func definition6Mismatch(d *instance.Instance, target string, S []string, seed int64) (bool, string) {
	base := d.BaseMembers()
	big := gen.Facts(base, 4*len(base)+4, 100, seed)
	for _, af := range olap.Funcs {
		if !rewriteMatches(d, big, target, S, af) {
			return true, "random table/" + af.String()
		}
	}
	for _, x := range base {
		single := &olap.FactTable{Facts: []olap.Fact{{Base: x, M: 7}}}
		for _, af := range []olap.AggFunc{olap.Sum, olap.Count} {
			if !rewriteMatches(d, single, target, S, af) {
				return true, "single fact on " + x + "/" + af.String()
			}
		}
	}
	return false, ""
}

func rewriteMatches(d *instance.Instance, F *olap.FactTable, target string, S []string, af olap.AggFunc) bool {
	direct := olap.Compute(d, F, target, af)
	var views []*olap.CubeView
	for _, ci := range S {
		views = append(views, olap.Compute(d, F, ci, af))
	}
	rolled, err := olap.RollupFrom(d, views, target)
	if err != nil {
		return false
	}
	return olap.Equal(direct, rolled)
}

// TestMatrixNegativeCellsViolateDefinition6 checks every negative cell
// of the summarizability matrix against the paper's semantics, with no
// search code in the check: the cell's counterexample (a frozen dimension
// of Σ ∪ {¬α} for some bottom category) is materialized into an instance
// that must pass (C1)-(C7) and satisfy Σ, and on that instance some fact
// table must make rewriting the target's cube view from the source differ
// from computing it directly (Definition 6). The schemas are the paper's
// location schema and the generator specs of core's golden suite.
func TestMatrixNegativeCellsViolateDefinition6(t *testing.T) {
	schemas := map[string]*core.DimensionSchema{"location": paper.LocationSch()}
	for _, spec := range []gen.SchemaSpec{
		{Seed: 1, Categories: 6, Levels: 3},
		{Seed: 2, Categories: 8, Levels: 3, ExtraEdgeProb: 0.3},
		{Seed: 3, Categories: 8, Levels: 2, ExtraEdgeProb: 0.5, ChoiceProb: 0.8},
		{Seed: 4, Categories: 9, Levels: 3, ExtraEdgeProb: 0.4, Constants: 3, CondProb: 0.7},
		{Seed: 5, Categories: 10, Levels: 4, ExtraEdgeProb: 0.3, IntoFrac: 0.6},
		{Seed: 6, Categories: 10, Levels: 3, ExtraEdgeProb: 0.4, ChoiceProb: 0.5, Constants: 2, CondProb: 0.5, IntoFrac: 0.4},
		{Seed: 7, Categories: 12, Levels: 4, ExtraEdgeProb: 0.25, ChoiceProb: 0.3, Constants: 4, CondProb: 0.3, IntoFrac: 0.3},
	} {
		ds, err := gen.Schema(spec)
		if err != nil {
			t.Fatal(err)
		}
		schemas[fmt.Sprintf("gen-seed%d", spec.Seed)] = ds
	}
	for name, ds := range schemas {
		m, err := core.SummarizabilityMatrix(ds, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		consts := constraint.ConstMap(ds.Sigma)
		negatives := 0
		for _, tgt := range m.Categories {
			for _, src := range m.Categories {
				if m.From[tgt][src] {
					continue
				}
				negatives++
				label := fmt.Sprintf("%s: %s from {%s}", name, tgt, src)
				rep, err := core.Summarizable(ds, tgt, []string{src}, core.Options{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var cex *core.BottomResult
				for i := range rep.PerBottom {
					if !rep.PerBottom[i].Implied {
						cex = &rep.PerBottom[i]
						break
					}
				}
				if cex == nil || cex.Counterexample.Witness == nil {
					t.Fatalf("%s: negative cell without a counterexample", label)
				}
				d, err := cex.Counterexample.Witness.ToInstance(ds.G, consts)
				if err != nil {
					t.Fatalf("%s: counterexample does not materialize: %v", label, err)
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("%s: counterexample violates (C1)-(C7): %v", label, err)
				}
				if !d.SatisfiesAll(ds.Sigma) {
					t.Fatalf("%s: counterexample violates Σ", label)
				}
				if mismatch, _ := definition6Mismatch(d, tgt, []string{src}, 1); !mismatch {
					t.Errorf("%s: no fact table tells rewriting from direct computation on\n%s", label, d)
				}
			}
		}
		if negatives == 0 {
			t.Errorf("%s: no negative cell", name)
		}
	}
}

// TestTheorem1OnLocation pins the two results of Example 10 plus the
// SaleRegion route on the paper's concrete instance and fact tables.
func TestTheorem1OnLocation(t *testing.T) {
	d := paper.LocationInstance()
	cases := []struct {
		from []string
		want bool
	}{
		{[]string{"City"}, true},
		{[]string{"SaleRegion"}, true},
		{[]string{"State", "Province"}, false},
		{[]string{"City", "SaleRegion"}, false},
		{[]string{"Country"}, true},
	}
	for _, c := range cases {
		got := core.SummarizableInInstance(d, "Country", c.from)
		if got != c.want {
			t.Errorf("SummarizableInInstance(Country, %v) = %v, want %v", c.from, got, c.want)
		}
		mismatch, witness := definition6Mismatch(d, "Country", c.from, 1)
		if mismatch == c.want {
			t.Errorf("Definition 6 disagrees for %v (mismatch=%v, %s)", c.from, mismatch, witness)
		}
	}
}
