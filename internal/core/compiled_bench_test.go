package core_test

import (
	"errors"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
)

// benchSchema is a heterogeneous schema large enough that a budgeted
// search runs hundreds of EXPAND steps without completing.
func benchSchema(tb testing.TB) (*core.DimensionSchema, string) {
	tb.Helper()
	ds, err := gen.Schema(gen.SchemaSpec{
		Seed: 11, Categories: 14, Levels: 4,
		ExtraEdgeProb: 0.5, ChoiceProb: 0.3, IntoFrac: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Pick the root whose budgeted search does the most work. The guard
	// and benchmarks run with the pruning heuristics off so the subset
	// enumeration is long enough to measure the per-step cost; the mask
	// loop exercised is the same code path either way.
	best, most := "", -1
	for _, c := range ds.G.SortedCategories() {
		res, err := core.Satisfiable(ds, c, benchOptions(5000))
		if err != nil && res.Stats.Expansions == 0 {
			continue
		}
		if res.Stats.Expansions > most {
			best, most = c, res.Stats.Expansions
		}
	}
	if best == "" {
		tb.Fatal("no workable root")
	}
	return ds, best
}

func benchOptions(budget int) core.Options {
	return core.Options{
		MaxExpansions:           budget,
		DisableIntoPruning:      true,
		DisableStructurePruning: true,
	}
}

// TestCompiledAllocationCeiling is the allocation-regression guard for
// the search: the marginal allocation cost of an EXPAND step must stay
// near zero. Comparing whole runs at two budgets cancels the fixed setup
// cost (scratch bitsets, frame pool) and isolates the per-step cost,
// which pooled frames are supposed to eliminate. It runs with a prebuilt
// compiled handle and with Options.Compiled nil: the implicit compile
// adds allocations per call, and none per step.
func TestCompiledAllocationCeiling(t *testing.T) {
	ds, root := benchSchema(t)
	cs, err := core.Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 200, 1000
	names := [2]string{"prebuilt handle", "implicit compile"}
	var perCall [2]float64
	for i, handle := range []*core.Compiled{cs, nil} {
		name := names[i]
		run := func(budget int) {
			opts := benchOptions(budget)
			opts.Compiled = handle
			res, err := core.Satisfiable(ds, root, opts)
			if err == nil {
				t.Fatalf("search finished inside budget %d (%d expansions): pick a bigger schema", budget, res.Stats.Expansions)
			}
		}
		allocsLo := testing.AllocsPerRun(10, func() { run(lo) })
		allocsHi := testing.AllocsPerRun(10, func() { run(hi) })
		perStep := (allocsHi - allocsLo) / float64(hi-lo)
		perCall[i] = allocsLo
		t.Logf("%s: %d expansions -> %.1f allocs, %d expansions -> %.1f (%.4f per step)",
			name, lo, allocsLo, hi, allocsHi, perStep)
		// The ceiling leaves room for one-off frame-pool growth at new
		// depths but fails on any per-step allocation creeping back in.
		if perStep > 0.05 {
			t.Fatalf("%s: search allocates %.4f objects per EXPAND step, want near zero", name, perStep)
		}
	}
	if perCall[1] <= perCall[0] {
		t.Fatalf("implicit compile should add per-call allocations: %.1f vs %.1f with a prebuilt handle",
			perCall[1], perCall[0])
	}
}

// BenchmarkCompiledSat measures one budgeted search on a prebuilt
// compiled handle.
func BenchmarkCompiledSat(b *testing.B) {
	ds, root := benchSchema(b)
	cs, err := core.Compile(ds)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOptions(1000)
	opts.Compiled = cs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Satisfiable(ds, root, opts); err == nil {
			b.Fatal("expected a budget abort")
		}
	}
}

// BenchmarkCompile measures the one-time compilation cost being amortized.
func BenchmarkCompile(b *testing.B) {
	ds, _ := benchSchema(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive measures the per-implication work around the search:
// one Derive miss plus the derived schema's Fingerprint, which keys the
// SatCache. It cycles through more distinct negated Theorem 1 constraints
// than the Derive cache holds, so every call misses.
func BenchmarkDerive(b *testing.B) {
	ds, _ := benchSchema(b)
	cs, err := core.Compile(ds)
	if err != nil {
		b.Fatal(err)
	}
	cats := ds.G.SortedCategories()
	var negs []constraint.Expr
	for _, cb := range ds.G.Bottoms() {
		for _, c := range cats {
			for _, ci := range cats {
				alpha := core.SummarizabilityConstraint(cb, c, []string{ci})
				if constraint.Validate(alpha, ds.G) == nil {
					negs = append(negs, constraint.Not{X: alpha})
				}
			}
		}
	}
	if len(negs) <= core.DeriveCacheMax {
		b.Fatalf("%d distinct constraints do not overflow the %d-entry Derive cache", len(negs), core.DeriveCacheMax)
	}
	cs.Fingerprint() // the parent's rendering is paid once per schema, not per derive
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := cs.Derive(negs[i%len(negs)])
		if err != nil {
			b.Fatal(err)
		}
		benchFingerprint = d.Fingerprint()
	}
	if st := cs.Stats(); st.DeriveHits != 0 {
		b.Fatalf("%d Derive cache hits, want every call to miss", st.DeriveHits)
	}
}

var benchFingerprint string

// BenchmarkImplies measures the full Theorem 2 pipeline on a prebuilt
// compiled handle. It cycles through the |Σ| constraints of one schema,
// so after its first |Σ| iterations every Derive is a cache hit and the
// figure is the search plus a cache lookup; BenchmarkDerive measures the
// misses.
func BenchmarkImplies(b *testing.B) {
	ds, _ := benchSchema(b)
	if len(ds.Sigma) == 0 {
		b.Skip("no constraints")
	}
	cs, err := core.Compile(ds)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Compiled: cs, MaxExpansions: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		alpha := ds.Sigma[i%len(ds.Sigma)]
		if _, _, err := core.Implies(ds, alpha, opts); err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
			b.Fatal(err)
		}
	}
}
