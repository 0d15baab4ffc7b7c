package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/loadgen"
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

// TestParseCompileAllocationCeiling is the allocation-regression guard
// for getting a design session ready: Parse then Compile of a family
// member allocates about 189 objects, so a second build of the
// hierarchy, a second validation, garbage per token or a compiled
// table's rows allocated one by one fails it.
func TestParseCompileAllocationCeiling(t *testing.T) {
	texts := familyTexts(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, text := range texts {
			ds, err := core.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Compile(ds); err != nil {
				t.Fatal(err)
			}
		}
	})
	const ceiling = 195
	perSchema := allocs / float64(len(texts))
	t.Logf("Parse + Compile: %.1f allocations per schema", perSchema)
	if perSchema > ceiling {
		t.Fatalf("Parse + Compile allocate %.1f objects per schema, ceiling %d", perSchema, ceiling)
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
// one ImpliesReduction, which derives (G, Σ ∪ {¬α}) from the handle,
// plus the derived schema's Fingerprint, which keys the SatCache. It
// cycles through the schema's negated Theorem 1 constraints.
func BenchmarkDerive(b *testing.B) {
	ds, _ := benchSchema(b)
	cs, err := core.Compile(ds)
	if err != nil {
		b.Fatal(err)
	}
	cats := ds.G.SortedCategories()
	var alphas []constraint.Expr
	for _, cb := range ds.G.Bottoms() {
		for _, c := range cats {
			for _, ci := range cats {
				alpha := core.SummarizabilityConstraint(cb, c, []string{ci})
				if constraint.Validate(alpha, ds.G) == nil {
					alphas = append(alphas, alpha)
				}
			}
		}
	}
	cs.Fingerprint() // the parent's rendering is paid once per schema, not per derive
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, _, _, err := cs.ImpliesReduction(alphas[i%len(alphas)])
		if err != nil {
			b.Fatal(err)
		}
		benchFingerprint = d.Fingerprint()
	}
}

var benchFingerprint string

// BenchmarkLint measures Lint on prebuilt compiled handles with default
// pruning: the category sweep plus one Theorem 2 redundancy probe per
// constraint, each probe's schema derived from the handle. Every
// schema of an iteration gets a fresh SatCache, so every search runs.
// The gen14 case lints benchSchema; the family case lints each of the
// family members of familySchemas in turn, at Parallelism 1.
func BenchmarkLint(b *testing.B) {
	ds, _ := benchSchema(b)
	if len(ds.Sigma) == 0 {
		b.Skip("no constraints")
	}
	for _, bc := range []struct {
		name   string
		family []*core.Compiled
	}{
		{"gen14", []*core.Compiled{mustCompile(b, ds)}},
		{"family", familySchemas(b)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, cs := range bc.family {
					if _, err := core.Lint(cs.Source(), core.Options{Compiled: cs, Cache: core.NewSatCache(), Parallelism: 1}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMatrix measures the summarizability matrix's DIMSAT walks,
// one per bottom category, over the family members of familySchemas on
// prebuilt compiled handles: each schema gets a fresh SatCache, so every
// walk runs, at Parallelism 1.
func BenchmarkMatrix(b *testing.B) {
	family := familySchemas(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cs := range family {
			opts := core.Options{Compiled: cs, Cache: core.NewSatCache(), Parallelism: 1}
			if _, err := core.SummarizabilityMatrix(cs.Source(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParseCompile measures what a design session pays before its
// first question: Parse then Compile of each family member of
// familyMembers, from the text design-sweep's set-up rounds read.
func BenchmarkParseCompile(b *testing.B) {
	texts := familyTexts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			ds, err := core.Parse(text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Compile(ds); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// familyMembers generates the design-sweep benchmark's kind of schema:
// 100 members of the loadgen.Defaults family (N=12), their generator
// seeds drawn from a source seeded with 7.
func familyMembers(tb testing.TB) []*core.DimensionSchema {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	var out []*core.DimensionSchema
	for range 100 {
		spec := loadgen.Defaults().Schema
		spec.Seed = rng.Int63()
		ds, err := gen.Schema(spec)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, ds)
	}
	return out
}

// familySchemas compiles familyMembers.
func familySchemas(tb testing.TB) []*core.Compiled {
	tb.Helper()
	var out []*core.Compiled
	for _, ds := range familyMembers(tb) {
		out = append(out, mustCompile(tb, ds))
	}
	return out
}

// familyTexts renders familyMembers in the syntax of Parse, as
// design-sweep renders its list.
func familyTexts(tb testing.TB) []string {
	tb.Helper()
	var out []string
	for _, ds := range familyMembers(tb) {
		out = append(out, ds.Format())
	}
	return out
}

// BenchmarkImplies measures the full Theorem 2 pipeline on a prebuilt
// compiled handle with no SatCache, cycling through the |Σ| constraints
// of one schema: every call derives its reduction schema and searches.
// BenchmarkDerive measures the derive alone.
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
