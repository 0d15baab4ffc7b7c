package core_test

// Metamorphic verdict checks: a renaming of the categories and a
// permutation of Σ leave the meaning of a schema unchanged, so they may
// not change any verdict, although both change the order in which the
// engine searches.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/schema"
)

// verdicts are a schema's answers in the names and Σ indexes of the
// schema they were computed for, mapped back to an original schema.
type verdicts struct {
	Sat       map[string]bool     // category → satisfiable
	Implied   map[int]bool        // Σ index → Σ ⊨ σ (true for a sound engine)
	Theorem1  map[[2]string]bool  // (bottom, target) → Σ ⊨ the Theorem 1 constraint from target's children
	Unsat     []string            // Lint's unsatisfiable categories, sorted
	Redundant []int               // Lint's redundant Σ indexes, sorted
	Matrix    map[[2]string]bool  // (target, source) → summarizable
	Sources   map[string][]string // target → minimal source sets of size ≤ 2, each rendered "a,b", sorted
}

// reversingNames maps every category of g but All to a fresh name so
// that the renamed categories sort in the reverse of their original
// order: their interned ids, and so EXPAND's candidate order, reverse.
func reversingNames(g *schema.Schema) map[string]string {
	var cats []string
	for _, c := range g.SortedCategories() {
		if c != schema.All {
			cats = append(cats, c)
		}
	}
	m := map[string]string{schema.All: schema.All}
	for i, c := range cats {
		m[c] = fmt.Sprintf("R%03d", len(cats)-1-i)
	}
	return m
}

// renameExpr renames every category e names through m.
func renameExpr(e constraint.Expr, m map[string]string) constraint.Expr {
	all := func(xs []constraint.Expr) []constraint.Expr {
		out := make([]constraint.Expr, len(xs))
		for i, x := range xs {
			out[i] = renameExpr(x, m)
		}
		return out
	}
	switch e := e.(type) {
	case constraint.True, constraint.False:
		return e
	case constraint.PathAtom:
		cats := make([]string, len(e.Cats))
		for i, c := range e.Cats {
			cats[i] = m[c]
		}
		return constraint.PathAtom{Cats: cats}
	case constraint.RollupAtom:
		return constraint.RollupAtom{RootCat: m[e.RootCat], Cat: m[e.Cat]}
	case constraint.ThroughAtom:
		return constraint.ThroughAtom{RootCat: m[e.RootCat], Via: m[e.Via], Cat: m[e.Cat]}
	case constraint.EqAtom:
		return constraint.EqAtom{RootCat: m[e.RootCat], Cat: m[e.Cat], Val: e.Val}
	case constraint.CmpAtom:
		return constraint.CmpAtom{RootCat: m[e.RootCat], Cat: m[e.Cat], Op: e.Op, Val: e.Val}
	case constraint.Not:
		return constraint.Not{X: renameExpr(e.X, m)}
	case constraint.And:
		return constraint.And{Xs: all(e.Xs)}
	case constraint.Or:
		return constraint.Or{Xs: all(e.Xs)}
	case constraint.One:
		return constraint.One{Xs: all(e.Xs)}
	case constraint.Implies:
		return constraint.Implies{A: renameExpr(e.A, m), B: renameExpr(e.B, m)}
	case constraint.Iff:
		return constraint.Iff{A: renameExpr(e.A, m), B: renameExpr(e.B, m)}
	case constraint.Xor:
		return constraint.Xor{A: renameExpr(e.A, m), B: renameExpr(e.B, m)}
	}
	panic(fmt.Sprintf("renameExpr: unknown expression %T", e))
}

// transform builds the schema whose categories are ds's renamed through
// m and whose Σ lists ds.Sigma[perm[0]], ds.Sigma[perm[1]], ...
func transform(t testing.TB, ds *core.DimensionSchema, m map[string]string, perm []int) *core.DimensionSchema {
	t.Helper()
	g := schema.New(ds.G.Name())
	for _, c := range ds.G.Categories() {
		if err := g.AddCategory(m[c]); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range ds.G.Categories() {
		for _, p := range ds.G.Out(c) {
			if err := g.AddEdge(m[c], m[p]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sigma := make([]constraint.Expr, len(perm))
	for j, i := range perm {
		sigma[j] = renameExpr(ds.Sigma[i], m)
	}
	out := core.NewDimensionSchema(g, sigma...)
	if err := out.Validate(); err != nil {
		t.Fatalf("transformed schema: %v\n%s", err, out)
	}
	return out
}

// verdictsOf answers every question verdicts records on ds, whose
// category c is named back[c] in the original schema and whose Σ member
// j is the original's member at[j]. The Theorem 1 constraints are built
// in the original names and renamed through fwd, the inverse of back.
func verdictsOf(t testing.TB, orig, ds *core.DimensionSchema, fwd, back map[string]string, at []int) verdicts {
	t.Helper()
	cs, err := core.Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Compiled: cs, Cache: core.NewSatCache()}
	v := verdicts{
		Sat:      map[string]bool{},
		Implied:  map[int]bool{},
		Theorem1: map[[2]string]bool{},
		Matrix:   map[[2]string]bool{},
		Sources:  map[string][]string{},
	}
	for _, c := range ds.G.Categories() {
		res, err := core.Satisfiable(ds, c, opts)
		if err != nil {
			t.Fatalf("Satisfiable %s: %v", c, err)
		}
		v.Sat[back[c]] = res.Satisfiable
	}
	for j, sigma := range ds.Sigma {
		implied, _, err := core.Implies(ds, sigma, opts)
		if err != nil {
			t.Fatalf("Implies σ%d: %v", j, err)
		}
		v.Implied[at[j]] = implied
	}
	for _, cb := range orig.G.Bottoms() {
		for _, c := range orig.G.SortedCategories() {
			from := slices.Clone(orig.G.In(c))
			slices.Sort(from)
			if c == cb || len(from) == 0 {
				continue
			}
			renamed := make([]string, len(from))
			for i, ci := range from {
				renamed[i] = fwd[ci]
			}
			alpha := core.SummarizabilityConstraint(fwd[cb], fwd[c], renamed)
			implied, _, err := core.Implies(ds, alpha, opts)
			if err != nil {
				t.Fatalf("Implies %s: %v", alpha, err)
			}
			v.Theorem1[[2]string{cb, c}] = implied
		}
	}
	rep, err := core.Lint(ds, opts)
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	for _, c := range rep.Unsatisfiable {
		v.Unsat = append(v.Unsat, back[c])
	}
	slices.Sort(v.Unsat)
	for _, j := range rep.Redundant {
		v.Redundant = append(v.Redundant, at[j])
	}
	slices.Sort(v.Redundant)
	mx, err := core.SummarizabilityMatrix(ds, opts)
	if err != nil {
		t.Fatalf("SummarizabilityMatrix: %v", err)
	}
	for target, row := range mx.From {
		for src, ok := range row {
			v.Matrix[[2]string{back[target], back[src]}] = ok
		}
	}
	for _, target := range ds.G.Categories() {
		if target == schema.All {
			continue
		}
		sets, err := core.MinimalSources(ds, target, 2, opts)
		if err != nil {
			t.Fatalf("MinimalSources %s: %v", target, err)
		}
		var rendered []string
		for _, set := range sets {
			names := make([]string, len(set))
			for i, c := range set {
				names[i] = back[c]
			}
			slices.Sort(names)
			rendered = append(rendered, strings.Join(names, ","))
		}
		slices.Sort(rendered)
		v.Sources[back[target]] = rendered
	}
	return v
}

// checkMetamorphic requires ds's verdicts to survive renaming its
// categories so that their sorted order reverses, and permuting its Σ by
// perm. Explain's cores and the work counters depend on the search order
// and are not compared.
func checkMetamorphic(t testing.TB, name string, ds *core.DimensionSchema, perm []int) {
	t.Helper()
	same := map[string]string{}
	for _, c := range ds.G.Categories() {
		same[c] = c
	}
	identity := make([]int, len(ds.Sigma))
	for i := range identity {
		identity[i] = i
	}
	want := verdictsOf(t, ds, ds, same, same, identity)

	rename := reversingNames(ds.G)
	back := map[string]string{}
	for c, r := range rename {
		back[r] = c
	}
	for _, tr := range []struct {
		label    string
		fwd, bwd map[string]string
		perm     []int
	}{
		{"reversed category order", rename, back, identity},
		{fmt.Sprintf("Σ permuted by %v", perm), same, same, perm},
	} {
		got := verdictsOf(t, ds, transform(t, ds, tr.fwd, tr.perm), tr.fwd, tr.bwd, tr.perm)
		if reflect.DeepEqual(got, want) {
			continue
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := range gv.NumField() {
			if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
				t.Errorf("%s, %s: %s %v, original %v\nschema:\n%s", name, tr.label,
					gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface(), ds)
			}
		}
	}
}

// reversed is the permutation listing n indexes backwards.
func reversed(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

// TestMetamorphicVerdicts runs checkMetamorphic over the golden schemas,
// with Σ reversed.
func TestMetamorphicVerdicts(t *testing.T) {
	for _, gs := range goldenSchemas(t) {
		checkMetamorphic(t, gs.name, gs.ds, reversed(len(gs.ds.Sigma)))
	}
}

// FuzzMetamorphicVerdicts runs checkMetamorphic over a randomDS draw,
// with Σ permuted by a second fuzzed seed; wired into make fuzz-smoke.
func FuzzMetamorphicVerdicts(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, seed*7)
	}
	f.Fuzz(func(t *testing.T, seed, permSeed int64) {
		ds := core.RandomDS(seed)
		if ds.Validate() != nil {
			t.Skip()
		}
		perm := rand.New(rand.NewSource(permSeed)).Perm(len(ds.Sigma))
		checkMetamorphic(t, fmt.Sprintf("randomDS-%d", seed), ds, perm)
	})
}
