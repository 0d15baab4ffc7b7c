package core_test

// The summarizability matrix and MinimalSources answer from one DIMSAT
// walk per bottom category. The tests below hold both to the per-cell
// Theorem 2 path, SummarizableContext, which runs one implication search
// per bottom category for every question asked.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/schema"
)

// checkMatrixAgainstSummarizable compares every cell of the matrix of ds
// and every category's MinimalSources(max=2) answer with
// SummarizableContext under opts.
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
			rep, err := core.SummarizableContext(ctx, ds, tgt, []string{src}, opts)
			if err != nil {
				t.Fatalf("%s: Summarizable(%s, {%s}): %v", label, tgt, src, err)
			}
			if m.From[tgt][src] != rep.Summarizable() {
				t.Errorf("%s: cell (%s, %s) = %v, Summarizable %v", label, tgt, src, m.From[tgt][src], rep.Summarizable())
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
			t.Errorf("%s: MinimalSources(%s) = %v, Summarizable certifies %v", label, tgt, got, want)
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

// minimalSourcesOracle is MinimalSources by one SummarizableContext call
// per candidate set: sets of up to maxSize non-All categories, smallest
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
			rep, err := core.SummarizableContext(context.Background(), ds, tgt, cur, opts)
			if err != nil {
				t.Fatalf("Summarizable(%s, %v): %v", tgt, cur, err)
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
// SummarizableContext for it fails with ErrBudgetExceeded (some bottom's
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
			rep, err := core.SummarizableContext(ctx, ds, tgt, []string{src}, opts)
			unknown := errors.Is(err, core.ErrBudgetExceeded)
			if err != nil && !unknown {
				t.Fatalf("%s budget %d: Summarizable(%s, {%s}): %v", label, budget, tgt, src, err)
			}
			if pm.Unknown[tgt][src] != unknown {
				t.Errorf("%s budget %d: cell (%s, %s) unknown = %v, Summarizable error %v", label, budget, tgt, src, pm.Unknown[tgt][src], err)
				continue
			}
			if !unknown && pm.From[tgt][src] != rep.Summarizable() {
				t.Errorf("%s budget %d: cell (%s, %s) = %v, Summarizable %v", label, budget, tgt, src, pm.From[tgt][src], rep.Summarizable())
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
	schemas := goldenSchemas(t)
	for _, spec := range matrixOracleSpecs {
		ds, err := gen.Schema(spec)
		if err != nil {
			t.Fatal(err)
		}
		schemas = append(schemas, goldenSchema{fmt.Sprintf("gen-seed%d", spec.Seed), ds})
	}
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
			// under which Summarizable(tgt, {src}) does not run out.
			decides := map[string]map[string]int{}
			for _, tgt := range m.Categories {
				decides[tgt] = map[string]int{}
				for _, src := range m.Categories {
					lo, hi := 1, maxBudget+1
					for lo < hi {
						mid := (lo + hi) / 2
						o := v.opts
						o.MaxExpansions = mid
						_, err := core.SummarizableContext(ctx, gs.ds, tgt, []string{src}, o)
						switch {
						case err == nil:
							hi = mid
						case errors.Is(err, core.ErrBudgetExceeded):
							lo = mid + 1
						default:
							t.Fatalf("%s budget %d: Summarizable(%s, {%s}): %v", label, mid, tgt, src, err)
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
							t.Errorf("%s budget %d: cell (%s, %s) = %v unknown %v, Summarizable decides it from budget %d (%v)",
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

// FuzzMatrixAgainstSummarizable runs the matrix oracles on fuzzed
// generator specs, pruning variants and budgets, and the shared-cache
// check with the fuzzed variant filling the cache; wired into make
// fuzz-smoke.
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
		shared := core.NewSatCache()
		for k := range goldenVariants {
			w := goldenVariants[(int(variant)+k)%len(goldenVariants)]
			checkSharedWalks(t, fmt.Sprintf("%+v/%s/shared-cache", spec, w.name), ds, w.opts, shared)
		}
	})
}
