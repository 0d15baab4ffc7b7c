package core_test

// The summarizability matrix, MinimalSources and SummarizableContext
// answer from one DIMSAT walk per bottom category. The tests below hold
// all three to Theorem 1 by the reduction of Theorem 2, impliesPerBottom,
// which runs one implication search per bottom category for every
// question asked.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/schema"
)

// impliesPerBottom decides whether tgt is summarizable from S by
// Theorem 1 through Theorem 2: one ImpliesContext of the bottom
// category's SummarizabilityConstraint per bottom category, failing with
// the first search that fails. It shares no code with the walks beyond
// the DIMSAT search itself.
func impliesPerBottom(ctx context.Context, ds *core.DimensionSchema, tgt string, S []string, opts core.Options) (*core.SummarizabilityReport, error) {
	rep := &core.SummarizabilityReport{Target: tgt, From: S}
	for _, cb := range ds.G.Bottoms() {
		alpha := core.SummarizabilityConstraint(cb, tgt, S)
		implied, res, err := core.ImpliesContext(ctx, ds, alpha, opts)
		if err != nil {
			return nil, err
		}
		rep.PerBottom = append(rep.PerBottom, core.BottomResult{Bottom: cb, Constraint: alpha, Implied: implied, Counterexample: res})
	}
	return rep, nil
}

// checkMatrixAgainstSummarizable compares every cell of the matrix of ds
// and every category's MinimalSources(max=2) answer with
// impliesPerBottom under opts.
func checkMatrixAgainstSummarizable(t *testing.T, label string, ds *core.DimensionSchema, opts core.Options) {
	t.Helper()
	ctx := context.Background()
	m, err := core.SummarizabilityMatrixContext(ctx, ds, opts)
	if err != nil {
		t.Fatalf("%s: matrix: %v", label, err)
	}
	if !m.Complete() {
		t.Fatalf("%s: unbudgeted matrix is partial", label)
	}
	for _, tgt := range m.Categories {
		for _, src := range m.Categories {
			rep, err := impliesPerBottom(ctx, ds, tgt, []string{src}, opts)
			if err != nil {
				t.Fatalf("%s: impliesPerBottom(%s, {%s}): %v", label, tgt, src, err)
			}
			if m.From[tgt][src] != rep.Summarizable() {
				t.Errorf("%s: cell (%s, %s) = %v, impliesPerBottom %v", label, tgt, src, m.From[tgt][src], rep.Summarizable())
			}
		}
	}
	for _, tgt := range ds.G.SortedCategories() {
		got, err := core.MinimalSourcesContext(ctx, ds, tgt, 2, opts)
		if err != nil {
			t.Fatalf("%s: MinimalSources(%s): %v", label, tgt, err)
		}
		want := minimalSourcesOracle(t, ds, tgt, 2, opts)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: MinimalSources(%s) = %v, impliesPerBottom certifies %v", label, tgt, got, want)
		}
		for _, maxSize := range []int{0, -1} {
			effort := &core.EffortSink{}
			o := opts
			o.Effort = effort
			sets, err := core.MinimalSourcesContext(ctx, ds, tgt, maxSize, o)
			if sets != nil || err != nil || effort.Runs() != 0 {
				t.Errorf("%s: MinimalSources(%s, max=%d) = %v, %v after %d searches, want nothing and no search",
					label, tgt, maxSize, sets, err, effort.Runs())
			}
		}
	}
}

// checkSharedWalks holds the matrix and every category's
// MinimalSources(max=2) answer from shared, a SatCache shared across the
// pruning variants, to the uncached answers under opts. Walk entries are
// keyed without the pruning switches: pruning changes how the search
// space is explored, not which subhierarchies induce a frozen dimension.
func checkSharedWalks(t *testing.T, label string, ds *core.DimensionSchema, opts core.Options, shared *core.SatCache) {
	t.Helper()
	ctx := context.Background()
	cached := opts
	cached.Cache = shared
	want, err := core.SummarizabilityMatrixContext(ctx, ds, opts)
	if err != nil {
		t.Fatalf("%s: matrix: %v", label, err)
	}
	got, err := core.SummarizabilityMatrixContext(ctx, ds, cached)
	if err != nil {
		t.Fatalf("%s: shared-cache matrix: %v", label, err)
	}
	if got.String() != want.String() {
		t.Errorf("%s: shared-cache matrix\n%s\nuncached\n%s", label, got, want)
	}
	for _, tgt := range ds.G.SortedCategories() {
		want, err := core.MinimalSourcesContext(ctx, ds, tgt, 2, opts)
		if err != nil {
			t.Fatalf("%s: MinimalSources(%s): %v", label, tgt, err)
		}
		got, err := core.MinimalSourcesContext(ctx, ds, tgt, 2, cached)
		if err != nil {
			t.Fatalf("%s: shared-cache MinimalSources(%s): %v", label, tgt, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: shared-cache MinimalSources(%s) = %v, uncached %v", label, tgt, got, want)
		}
	}
}

// minimalSourcesOracle is MinimalSources by one impliesPerBottom call per
// candidate set: sets of up to maxSize non-All categories, smallest
// first and in lexicographic order within a size, skipping supersets of
// the sets already certified.
func minimalSourcesOracle(t *testing.T, ds *core.DimensionSchema, tgt string, maxSize int, opts core.Options) [][]string {
	t.Helper()
	var cands []string
	for _, c := range ds.G.SortedCategories() {
		if c != schema.All {
			cands = append(cands, c)
		}
	}
	var out [][]string
	var rec func(cur []string, start, size int)
	rec = func(cur []string, start, size int) {
		if len(cur) == size {
			for _, prev := range out {
				superset := true
				for _, c := range prev {
					superset = superset && slices.Contains(cur, c)
				}
				if superset {
					return
				}
			}
			rep, err := impliesPerBottom(context.Background(), ds, tgt, cur, opts)
			if err != nil {
				t.Fatalf("impliesPerBottom(%s, %v): %v", tgt, cur, err)
			}
			if rep.Summarizable() {
				out = append(out, slices.Clone(cur))
			}
			return
		}
		for i := start; i < len(cands); i++ {
			rec(append(cur, cands[i]), i+1, size)
		}
	}
	for size := 1; size <= maxSize && size <= len(cands); size++ {
		rec(nil, 0, size)
	}
	return out
}

// checkPartialAgainstSummarizable compares the partial matrix of ds under
// the expansion budget with the cell-wise rule: a cell is unknown iff
// impliesPerBottom for it fails with ErrBudgetExceeded (some bottom's
// implication search ran out), and a known cell holds iff it is
// summarizable. The strict matrix must fail exactly when a cell is
// unknown.
func checkPartialAgainstSummarizable(t *testing.T, label string, ds *core.DimensionSchema, opts core.Options, budget int) {
	t.Helper()
	ctx := context.Background()
	opts.MaxExpansions = budget
	pm, err := core.SummarizabilityMatrixPartialContext(ctx, ds, opts)
	if err != nil {
		t.Fatalf("%s budget %d: partial matrix: %v", label, budget, err)
	}
	for _, tgt := range pm.Categories {
		for _, src := range pm.Categories {
			rep, err := impliesPerBottom(ctx, ds, tgt, []string{src}, opts)
			unknown := errors.Is(err, core.ErrBudgetExceeded)
			if err != nil && !unknown {
				t.Fatalf("%s budget %d: impliesPerBottom(%s, {%s}): %v", label, budget, tgt, src, err)
			}
			if pm.Unknown[tgt][src] != unknown {
				t.Errorf("%s budget %d: cell (%s, %s) unknown = %v, impliesPerBottom error %v", label, budget, tgt, src, pm.Unknown[tgt][src], err)
				continue
			}
			if !unknown && pm.From[tgt][src] != rep.Summarizable() {
				t.Errorf("%s budget %d: cell (%s, %s) = %v, impliesPerBottom %v", label, budget, tgt, src, pm.From[tgt][src], rep.Summarizable())
			}
		}
	}
	_, err = core.SummarizabilityMatrixContext(ctx, ds, opts)
	if pm.Complete() != (err == nil) || (err != nil && !errors.Is(err, core.ErrBudgetExceeded)) {
		t.Errorf("%s budget %d: strict matrix err = %v, partial complete = %v", label, budget, err, pm.Complete())
	}
}

// matrixOracleSpecs are generator specs beyond the golden families:
// wider layers, heavier choice and into constraints.
var matrixOracleSpecs = []gen.SchemaSpec{
	{Seed: 11, Categories: 7, Levels: 3, ExtraEdgeProb: 0.5, ChoiceProb: 0.6},
	{Seed: 12, Categories: 9, Levels: 2, ExtraEdgeProb: 0.6, ChoiceProb: 0.4, IntoFrac: 0.5},
	{Seed: 13, Categories: 8, Levels: 4, ExtraEdgeProb: 0.4, Constants: 2, CondProb: 0.6},
}

// oracleSchemas are the golden schemas and the matrixOracleSpecs ones.
func oracleSchemas(t *testing.T) []goldenSchema {
	t.Helper()
	schemas := goldenSchemas(t)
	for _, spec := range matrixOracleSpecs {
		ds, err := gen.Schema(spec)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, goldenSchema{fmt.Sprintf("gen-seed%d", spec.Seed), ds})
	}
	return schemas
}

// TestMatrixAgreesWithSummarizable holds the matrix, MinimalSources and
// the partial matrix at budgets 1–100 to the per-cell path, over the
// golden schemas and further generated ones, under all four pruning
// variants, and the answers from a SatCache shared across the variants
// (filled first by a different variant for each schema) to the uncached
// ones.
//
// A budget that lets a cell's searches finish lets them finish under any
// larger budget too (it cuts a prefix of a deterministic search), so the
// per-cell rule at every budget follows from the smallest budget that
// decides each cell, found by bisection; checkPartialAgainstSummarizable,
// which FuzzMatrixAgainstSummarizable runs, applies the rule literally.
func TestMatrixAgreesWithSummarizable(t *testing.T) {
	schemas := oracleSchemas(t)
	const maxBudget = 100
	ctx := context.Background()
	for si, gs := range schemas {
		cs, err := core.Compile(gs.ds)
		if err != nil {
			t.Fatal(err)
		}
		shared := core.NewSatCache()
		for k := range goldenVariants {
			v := goldenVariants[(si+k)%len(goldenVariants)]
			v.opts.Compiled = cs
			checkSharedWalks(t, gs.name+"/"+v.name+"/shared-cache", gs.ds, v.opts, shared)
		}
		for _, v := range goldenVariants {
			label := gs.name + "/" + v.name
			v.opts.Compiled = cs
			checkMatrixAgainstSummarizable(t, label, gs.ds, v.opts)
			m, err := core.SummarizabilityMatrix(gs.ds, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			// decides[tgt][src] is the smallest budget in 1..maxBudget+1
			// under which impliesPerBottom(tgt, {src}) does not run out.
			decides := map[string]map[string]int{}
			for _, tgt := range m.Categories {
				decides[tgt] = map[string]int{}
				for _, src := range m.Categories {
					lo, hi := 1, maxBudget+1
					for lo < hi {
						mid := (lo + hi) / 2
						o := v.opts
						o.MaxExpansions = mid
						_, err := impliesPerBottom(ctx, gs.ds, tgt, []string{src}, o)
						switch {
						case err == nil:
							hi = mid
						case errors.Is(err, core.ErrBudgetExceeded):
							lo = mid + 1
						default:
							t.Fatalf("%s budget %d: impliesPerBottom(%s, {%s}): %v", label, mid, tgt, src, err)
						}
					}
					decides[tgt][src] = lo
				}
			}
			for budget := 1; budget <= maxBudget; budget++ {
				o := v.opts
				o.MaxExpansions = budget
				pm, err := core.SummarizabilityMatrixPartialContext(ctx, gs.ds, o)
				if err != nil {
					t.Fatalf("%s budget %d: partial matrix: %v", label, budget, err)
				}
				for _, tgt := range m.Categories {
					for _, src := range m.Categories {
						unknown := budget < decides[tgt][src]
						if pm.Unknown[tgt][src] != unknown || (!unknown && pm.From[tgt][src] != m.From[tgt][src]) {
							t.Errorf("%s budget %d: cell (%s, %s) = %v unknown %v, impliesPerBottom decides it from budget %d (%v)",
								label, budget, tgt, src, pm.From[tgt][src], pm.Unknown[tgt][src], decides[tgt][src], m.From[tgt][src])
						}
					}
				}
				_, err = core.SummarizabilityMatrixContext(ctx, gs.ds, o)
				if pm.Complete() != (err == nil) || (err != nil && !errors.Is(err, core.ErrBudgetExceeded)) {
					t.Errorf("%s budget %d: strict matrix err = %v, partial complete = %v", label, budget, err, pm.Complete())
				}
			}
		}
	}
}

// checkSummarizableAgainstImplies holds SummarizableContext(tgt, S)
// under each of opts to impliesPerBottom under oracle, the same pruning
// variant and budget without a cache: either both fail with
// ErrBudgetExceeded or neither fails, and then every bottom category's
// constraint, Implied flag and counterexample key agree. The
// counterexamples of the first opts must also materialize into an
// instance of Σ ∪ {¬α} (certifyWitness).
func checkSummarizableAgainstImplies(t *testing.T, label string, ds *core.DimensionSchema, tgt string, S []string, oracle core.Options, opts ...core.Options) {
	t.Helper()
	ctx := context.Background()
	label = fmt.Sprintf("%s: %s from %v", label, tgt, S)
	want, werr := impliesPerBottom(ctx, ds, tgt, S, oracle)
	if werr != nil && !errors.Is(werr, core.ErrBudgetExceeded) {
		t.Fatalf("%s: impliesPerBottom: %v", label, werr)
	}
	for arm, o := range opts {
		got, err := core.SummarizableContext(ctx, ds, tgt, S, o)
		if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%s: Summarizable (arm %d): %v", label, arm, err)
		}
		if (werr == nil) != (err == nil) {
			t.Errorf("%s: Summarizable (arm %d) error %v, impliesPerBottom error %v", label, arm, err, werr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got.PerBottom) != len(want.PerBottom) {
			t.Fatalf("%s: %d bottoms, impliesPerBottom %d", label, len(got.PerBottom), len(want.PerBottom))
		}
		for i, g := range got.PerBottom {
			w := want.PerBottom[i]
			if g.Bottom != w.Bottom || g.Constraint.String() != w.Constraint.String() || g.Implied != w.Implied {
				t.Errorf("%s: bottom %s %s implied %v (arm %d), impliesPerBottom %s %s implied %v",
					label, g.Bottom, g.Constraint, g.Implied, arm, w.Bottom, w.Constraint, w.Implied)
				continue
			}
			if g.Implied {
				continue
			}
			if !g.Counterexample.Satisfiable || g.Counterexample.Witness == nil {
				t.Errorf("%s: bottom %s fails without a counterexample (arm %d)", label, g.Bottom, arm)
				continue
			}
			if gk, wk := g.Counterexample.Witness.Key(), w.Counterexample.Witness.Key(); gk != wk {
				t.Errorf("%s: bottom %s counterexample (arm %d)\n%s\nimpliesPerBottom found\n%s", label, g.Bottom, arm, gk, wk)
			}
			if arm == 0 {
				neg := append(append([]constraint.Expr(nil), ds.Sigma...), constraint.Not{X: g.Constraint})
				certifyWitness(t, label+"/"+g.Bottom, ds.G, neg, g.Counterexample)
			}
		}
	}
}

// randomSources draws a source set of n distinct categories of ds, All
// and the target included.
func randomSources(rng *rand.Rand, ds *core.DimensionSchema, n int) []string {
	cats := ds.G.SortedCategories()
	var S []string
	for _, i := range rng.Perm(len(cats))[:min(n, len(cats))] {
		S = append(S, cats[i])
	}
	return S
}

// TestSummarizableAgreesWithImplies holds SummarizableContext, which
// reads the per-bottom walks, to impliesPerBottom over the oracle schemas
// under all four pruning variants, for four random source sets of 0–3
// categories per target: without a cache, on a fresh SatCache that the
// calls fill themselves, and on a SatCache whose walks a different
// variant computed (walk keys leave out the pruning switches). Every
// counterexample must be the one the Theorem 2 search finds, and must
// certify.
//
// Under an expansion budget both sides cut a prefix of a deterministic
// search, so a budget that decides a question decides it under any
// larger one. Summarizable therefore fails with ErrBudgetExceeded at
// exactly the budgets 1–100 at which impliesPerBottom does iff it fails
// one below the smallest budget that decides impliesPerBottom (found by
// bisection) and agrees with it at that budget; the fuzz target applies
// the rule at its fuzzed budget literally.
func TestSummarizableAgreesWithImplies(t *testing.T) {
	const maxBudget = 100
	ctx := context.Background()
	for si, gs := range oracleSchemas(t) {
		cs, err := core.Compile(gs.ds)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(si)))
		type query struct {
			tgt string
			S   []string
		}
		var queries []query
		for _, tgt := range gs.ds.G.SortedCategories() {
			for n := 0; n <= 3; n++ {
				queries = append(queries, query{tgt, randomSources(rng, gs.ds, n)})
			}
		}
		for k, v := range goldenVariants {
			label := gs.name + "/" + v.name
			v.opts.Compiled = cs
			fresh, other := v.opts, v.opts
			fresh.Cache, other.Cache = core.NewSatCache(), core.NewSatCache()
			fill := goldenVariants[(k+1)%len(goldenVariants)].opts
			fill.Compiled, fill.Cache = cs, other.Cache
			if _, err := core.SummarizabilityMatrix(gs.ds, fill); err != nil {
				t.Fatalf("%s: fill the cache: %v", label, err)
			}
			for _, q := range queries {
				checkSummarizableAgainstImplies(t, label, gs.ds, q.tgt, q.S, v.opts, v.opts, fresh, other)
				lo, hi := 1, maxBudget+1
				for lo < hi {
					o := v.opts
					o.MaxExpansions = (lo + hi) / 2
					switch _, err := impliesPerBottom(ctx, gs.ds, q.tgt, q.S, o); {
					case err == nil:
						hi = o.MaxExpansions
					case errors.Is(err, core.ErrBudgetExceeded):
						lo = o.MaxExpansions + 1
					default:
						t.Fatalf("%s budget %d: impliesPerBottom(%s, %v): %v", label, o.MaxExpansions, q.tgt, q.S, err)
					}
				}
				for _, budget := range []int{lo - 1, lo} {
					if budget < 1 || budget > maxBudget {
						continue
					}
					o := v.opts
					o.MaxExpansions = budget
					checkSummarizableAgainstImplies(t, fmt.Sprintf("%s/budget %d", label, budget), gs.ds, q.tgt, q.S, o, o)
				}
			}
		}
	}
}

// FuzzMatrixAgainstSummarizable runs the matrix oracles on fuzzed
// generator specs, pruning variants and budgets, and the shared-cache
// check with the fuzzed variant filling the cache, and holds
// Summarizable, unbudgeted and at the fuzzed budget, to impliesPerBottom
// for one random source set of 2 or 3 categories per target; wired into
// make fuzz-smoke.
func FuzzMatrixAgainstSummarizable(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), uint8(3), uint8(3), uint8(0), uint8(0), uint8(5))
	f.Add(int64(9), uint8(6), uint8(3), uint8(5), uint8(0), uint8(4), uint8(2), uint8(17))
	f.Add(int64(23), uint8(5), uint8(1), uint8(7), uint8(6), uint8(2), uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, cats, levels, extra, choice, into, variant, budget uint8) {
		spec := gen.SchemaSpec{
			Seed:          seed,
			Categories:    2 + int(cats%6),
			Levels:        2 + int(levels%3),
			ExtraEdgeProb: float64(extra%8) / 10,
			ChoiceProb:    float64(choice%8) / 10,
			IntoFrac:      float64(into%8) / 10,
		}
		if seed%3 == 0 {
			spec.Constants, spec.CondProb = 2, 0.5
		}
		ds, err := gen.Schema(spec)
		if err != nil {
			t.Skip()
		}
		v := goldenVariants[int(variant)%len(goldenVariants)]
		label := fmt.Sprintf("%+v/%s", spec, v.name)
		checkMatrixAgainstSummarizable(t, label, ds, v.opts)
		checkPartialAgainstSummarizable(t, label, ds, v.opts, 1+int(budget%100))
		rng := rand.New(rand.NewSource(seed))
		budgeted := v.opts
		budgeted.MaxExpansions = 1 + int(budget%100)
		for _, tgt := range ds.G.SortedCategories() {
			S := randomSources(rng, ds, 2+rng.Intn(2))
			checkSummarizableAgainstImplies(t, label, ds, tgt, S, v.opts, v.opts)
			checkSummarizableAgainstImplies(t, label, ds, tgt, S, budgeted, budgeted)
		}
		shared := core.NewSatCache()
		for k := range goldenVariants {
			w := goldenVariants[(int(variant)+k)%len(goldenVariants)]
			checkSharedWalks(t, fmt.Sprintf("%+v/%s/shared-cache", spec, w.name), ds, w.opts, shared)
		}
	})
}
