package core_test

// Tests of the compiled schema handle: pinning to its schema, accessors
// and compile counters, cache keys shared with the implicit compile, and
// the minimality of Explain's unsat cores.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/paper"
)

func mustCompile(t testing.TB, ds *core.DimensionSchema) *core.Compiled {
	t.Helper()
	cs, err := core.Compile(ds)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return cs
}

// TestCompiledSatCacheSharing proves that a call without a compiled
// handle and a call with a prebuilt one hit the same cache entry: the
// implicit compile keys the cache by the same schema fingerprint.
func TestCompiledSatCacheSharing(t *testing.T) {
	ds := paper.LocationSch()
	cs := mustCompile(t, ds)
	cache := core.NewSatCache()
	c := ds.G.SortedCategories()[1]

	first, err := core.Satisfiable(ds, c, core.Options{Cache: cache})
	if err != nil {
		t.Fatalf("implicit compile: %v", err)
	}
	if first.Stats.Expansions == 0 {
		t.Fatalf("expected a real search on the miss")
	}
	second, err := core.Satisfiable(ds, c, core.Options{Cache: cache, Compiled: cs})
	if err != nil {
		t.Fatalf("prebuilt handle: %v", err)
	}
	if second.Stats != (core.Stats{}) {
		t.Fatalf("prebuilt-handle call should hit the first call's cache entry, got stats %+v", second.Stats)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats: %+v, want 1 hit 1 miss 1 entry", st)
	}
}

func TestCompiledMismatchRejected(t *testing.T) {
	ds1 := paper.LocationSch()
	ds2, err := gen.Schema(gen.SchemaSpec{Seed: 1, Categories: 6, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	cs := mustCompile(t, ds1)
	c := ds2.G.SortedCategories()[1]
	if _, err := core.Satisfiable(ds2, c, core.Options{Compiled: cs}); !errors.Is(err, core.ErrCompiledMismatch) {
		t.Fatalf("Satisfiable: got %v, want ErrCompiledMismatch", err)
	}
	// An alpha valid in ds2's graph, so the mismatch is detected by the
	// compiled-schema pin rather than constraint validation.
	alpha := constraint.RollupAtom{RootCat: c, Cat: "All"}
	if _, _, err := core.Implies(ds2, alpha, core.Options{Compiled: cs}); !errors.Is(err, core.ErrCompiledMismatch) {
		t.Fatalf("Implies: got %v, want ErrCompiledMismatch", err)
	}
	cp := &core.Checkpoint{Version: core.CheckpointVersion, Schema: cs.Fingerprint(), Root: c, IntoPruning: true, StructurePruning: true}
	if _, err := core.ResumeSatisfiable(ds2, cp, core.Options{Compiled: cs}); !errors.Is(err, core.ErrCompiledMismatch) {
		t.Fatalf("Resume: got %v, want ErrCompiledMismatch", err)
	}
}

func TestCompiledAccessors(t *testing.T) {
	ds := paper.LocationSch()
	cs := mustCompile(t, ds)
	if cs.Source() != ds {
		t.Fatalf("Source should return the compiled schema")
	}
	if cs.Fingerprint() != core.Fingerprint(ds) {
		t.Fatalf("Fingerprint mismatch: %s vs %s", cs.Fingerprint(), core.Fingerprint(ds))
	}
	st := cs.Stats()
	if st.Categories != len(ds.G.SortedCategories()) || st.Constraints != len(ds.Sigma) {
		t.Fatalf("Stats shape: %+v", st)
	}
	if st.Compiles != 1 || st.CompileSeconds <= 0 {
		t.Fatalf("Stats compile counters: %+v", st)
	}

	// Derive caches by constraint and shares the counters.
	alpha := ds.Sigma[0]
	d1, err := cs.Derive(constraint.Not{X: alpha})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cs.Derive(constraint.Not{X: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("Derive should cache")
	}
	st = cs.Stats()
	if st.Compiles != 2 || st.DeriveMisses != 1 || st.DeriveHits != 1 {
		t.Fatalf("derive counters: %+v", st)
	}
	if d1.Fingerprint() == cs.Fingerprint() {
		t.Fatalf("derived schema should have a different fingerprint")
	}
	// The derived source is content-identical to the ImpliesReduction neg
	// schema, so fingerprints (checkpoint pins, cache keys) agree.
	neg, _, _, decided, err := core.ImpliesReduction(ds, alpha)
	if err != nil || decided {
		t.Fatalf("reduction: %v %v", decided, err)
	}
	if d1.Fingerprint() != core.Fingerprint(neg) {
		t.Fatalf("derived fingerprint should match the reduction's neg schema")
	}
}

func TestCompileRejectsInvalidSchema(t *testing.T) {
	ds, err := gen.Schema(gen.SchemaSpec{Seed: 1, Categories: 6, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := core.NewDimensionSchema(ds.G, constraint.RollupAtom{RootCat: ds.G.SortedCategories()[1], Cat: "nope"})
	if _, err := core.Compile(bad); err == nil {
		t.Fatalf("Compile should reject an invalid schema")
	}
}

// FuzzDeriveMatchesCompile requires every derived compiled schema to
// equal a full Compile of its source (core.CheckDerived) and to carry the
// expected Σ. Per schema it derives Σ ∪ {¬σ} for each Σ member σ through
// a cached Implies (so the peek presets the fingerprint), Σ ∪ {σ} (into
// edges and value domains change), Σ∖{σ} ∪ {¬σ} (Lint's redundancy
// probe, dropping and adding in one derive), Σ ∪ {¬α} for Theorem 1
// constraints α over a fuzzed source set, the subset of Σ a fuzzed mask
// keeps, and that subset of a Derive result. The schemas are a randomDS draw and one
// golden schema or shared-into, whose Σ forces one edge twice; the seed
// corpus names every one of them, so plain go test covers them all.
// Wired into make fuzz-smoke.
func FuzzDeriveMatchesCompile(f *testing.F) {
	// shared-into forces Day -> Month from two members: a derive that
	// drops one must keep the edge the other forces.
	shared, err := core.Parse(`schema shared
edge Day -> Month -> All
edge Day -> Week -> All
constraint Day_Month
constraint Day_Month & Day.Week
constraint Day.Month="jan" -> Day_Week
`)
	if err != nil {
		f.Fatal(err)
	}
	golden := append(goldenSchemas(f), goldenSchema{"shared-into", shared})
	masks := []uint64{0, 0b1011, ^uint64(0), 0b0110_1101}
	for i := range golden {
		f.Add(int64(i), uint8(i), masks[i%len(masks)])
	}
	f.Add(int64(0), uint8(len(golden)-1), uint64(0b110))
	f.Fuzz(func(t *testing.T, seed int64, which uint8, mask uint64) {
		gs := golden[int(which)%len(golden)]
		checkDerives(t, gs.name, gs.ds, mask)
		if ds := core.RandomDS(seed); ds.Validate() == nil {
			checkDerives(t, "randomDS", ds, mask)
		}
	})
}

// checkDerives runs the derives FuzzDeriveMatchesCompile describes on ds.
func checkDerives(t *testing.T, name string, ds *core.DimensionSchema, mask uint64) {
	t.Helper()
	cs := mustCompile(t, ds)
	require := func(label string, d *core.Compiled, err error, sigma []constraint.Expr) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", name, label, err)
		}
		if got, want := d.Source().String(), core.NewDimensionSchema(ds.G, sigma...).String(); got != want {
			t.Fatalf("%s %s: derived source\n%s\nwant\n%s", name, label, got, want)
		}
		if err := core.CheckDerived(d); err != nil {
			t.Fatalf("%s %s: %v", name, label, err)
		}
	}
	with := func(base []constraint.Expr, e constraint.Expr) []constraint.Expr {
		return append(append([]constraint.Expr(nil), base...), e)
	}
	subset := func(sigma []constraint.Expr) ([]int, []constraint.Expr) {
		keep, kept := []int{}, []constraint.Expr{}
		for i, e := range sigma {
			if mask&(1<<uint(i%64)) != 0 {
				keep, kept = append(keep, i), append(kept, e)
			}
		}
		return keep, kept
	}

	opts := core.Options{Compiled: cs, Cache: core.NewSatCache(), MaxExpansions: 1}
	for i, sigma := range ds.Sigma {
		if _, _, err := core.Implies(ds, sigma, opts); err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
			t.Fatalf("%s Implies σ%d: %v", name, i, err)
		}
		neg := constraint.Not{X: sigma}
		d, err := cs.Derive(neg)
		require(fmt.Sprintf("Derive ¬σ%d", i), d, err, with(ds.Sigma, neg))
		d, err = cs.Derive(sigma)
		require(fmt.Sprintf("Derive σ%d", i), d, err, with(ds.Sigma, sigma))

		keep, rest := []int{}, []constraint.Expr{}
		for j, e := range ds.Sigma {
			if j != i {
				keep, rest = append(keep, j), append(rest, e)
			}
		}
		d, err = cs.DeriveKeepAdd(keep, neg)
		require(fmt.Sprintf("Lint probe Σ∖{σ%d} ∪ {¬σ%d}", i, i), d, err, with(rest, neg))
	}

	// An atom-free constraint is relevant for every root.
	d, err := cs.Derive(constraint.False{})
	require("Derive ⊥", d, err, with(ds.Sigma, constraint.False{}))

	cats := ds.G.SortedCategories()
	var from []string
	for i, c := range cats {
		if mask&(1<<uint(i%64)) != 0 {
			from = append(from, c)
		}
	}
	var last constraint.Expr
	for _, cb := range ds.G.Bottoms() {
		for _, c := range cats {
			alpha := core.SummarizabilityConstraint(cb, c, from)
			if constraint.Validate(alpha, ds.G) != nil {
				continue
			}
			last = constraint.Not{X: alpha}
			d, err := cs.Derive(last)
			require("Derive ¬"+alpha.String(), d, err, with(ds.Sigma, last))
		}
	}

	keep, kept := subset(ds.Sigma)
	d, err = cs.DeriveSubset(keep)
	require(fmt.Sprintf("DeriveSubset %v", keep), d, err, kept)

	if last != nil {
		d, err := cs.Derive(last)
		if err != nil {
			t.Fatal(err)
		}
		keep, kept := subset(d.Source().Sigma)
		sub, err := d.DeriveSubset(keep)
		require(fmt.Sprintf("DeriveSubset %v of Derive %s", keep, last), sub, err, kept)
	}
}

// TestLintMatchesSubSchemaImplies holds Lint's redundancy verdicts to
// their definition, on the golden schemas and randomDS draws: σᵢ is
// redundant iff a freshly compiled (G, Σ∖{σᵢ}) implies σᵢ. Lint runs on
// a compiled handle with no cache, with a fresh SatCache and again on
// that warm cache. Each probe derives its schema from the handle, so
// every run raises the handle's Compiles by exactly the constraints it
// probed (those with atoms), and the probes key the cache exactly as the
// sub-schema's Implies does: after Lint, the reference queries all hit.
func TestLintMatchesSubSchemaImplies(t *testing.T) {
	schemas := goldenSchemas(t)
	for seed := int64(1); seed <= 40; seed++ {
		if ds := core.RandomDS(seed); ds.Validate() == nil {
			schemas = append(schemas, goldenSchema{fmt.Sprintf("randomDS-%d", seed), ds})
		}
	}
	for _, gs := range schemas {
		ds := gs.ds
		subs := make([]*core.DimensionSchema, len(ds.Sigma))
		var want []int
		probed := uint64(0)
		for i, sigma := range ds.Sigma {
			rest := append(append([]constraint.Expr(nil), ds.Sigma[:i]...), ds.Sigma[i+1:]...)
			subs[i] = core.NewDimensionSchema(ds.G, rest...)
			implied, _, err := core.Implies(subs[i], sigma, core.Options{})
			if err != nil {
				t.Fatalf("%s: reference Implies σ%d: %v", gs.name, i, err)
			}
			if implied {
				want = append(want, i)
			}
			if root, _ := constraint.Root(sigma); root != "" {
				probed++
			}
		}
		cache := core.NewSatCache()
		for _, run := range []struct {
			label string
			cache *core.SatCache
		}{{"no cache", nil}, {"fresh cache", cache}, {"warm cache", cache}} {
			cs := mustCompile(t, ds)
			rep, err := core.Lint(ds, core.Options{Compiled: cs, Cache: run.cache})
			if err != nil {
				t.Fatalf("%s %s: Lint: %v", gs.name, run.label, err)
			}
			if !slices.Equal(rep.Redundant, want) {
				t.Fatalf("%s %s: Lint redundant %v, sub-schema Implies %v", gs.name, run.label, rep.Redundant, want)
			}
			if got := cs.Stats().Compiles - 1; got != probed {
				t.Fatalf("%s %s: Lint charged %d compiles to the handle, want one per probed constraint (%d)",
					gs.name, run.label, got, probed)
			}
		}
		before := cache.Stats()
		for i, sigma := range ds.Sigma {
			if _, res, err := core.Implies(subs[i], sigma, core.Options{Cache: cache}); err != nil || res.Stats != (core.Stats{}) {
				t.Fatalf("%s: sub-schema Implies σ%d after Lint: stats %+v, err %v; want a cache hit", gs.name, i, res.Stats, err)
			}
		}
		if after := cache.Stats(); after.Misses != before.Misses {
			t.Fatalf("%s: sub-schema Implies missed %d times after Lint", gs.name, after.Misses-before.Misses)
		}
	}
}

// sigmaSubset builds the schema keeping only the Σ members at the given
// indices, mirroring what the shrink loop probes.
func sigmaSubset(ds *core.DimensionSchema, keep []int) *core.DimensionSchema {
	sigma := make([]constraint.Expr, 0, len(keep))
	for _, i := range keep {
		sigma = append(sigma, ds.Sigma[i])
	}
	return core.NewDimensionSchema(ds.G, sigma...)
}

// requireCoreMinimal checks the minimality contract: the core subset is
// UNSAT as-is and removing any single member flips the verdict to SAT.
func requireCoreMinimal(t *testing.T, label string, ds *core.DimensionSchema, c string, coreIdx []int, opts core.Options) {
	t.Helper()
	res, err := core.Satisfiable(sigmaSubset(ds, coreIdx), c, opts)
	if errors.Is(err, core.ErrBudgetExceeded) {
		t.Skipf("%s: verification budget exhausted", label)
	}
	if err != nil {
		t.Fatalf("%s: core verification run: %v", label, err)
	}
	if res.Satisfiable {
		t.Fatalf("%s: core %v is not UNSAT-forcing", label, coreIdx)
	}
	for drop := range coreIdx {
		rest := append(append([]int(nil), coreIdx[:drop]...), coreIdx[drop+1:]...)
		res, err := core.Satisfiable(sigmaSubset(ds, rest), c, opts)
		if errors.Is(err, core.ErrBudgetExceeded) {
			t.Skipf("%s: verification budget exhausted", label)
		}
		if err != nil {
			t.Fatalf("%s: minimality probe without σ%d: %v", label, coreIdx[drop], err)
		}
		if !res.Satisfiable {
			t.Fatalf("%s: core %v is not minimal: still UNSAT without σ%d", label, coreIdx, coreIdx[drop])
		}
	}
}

// TestExplainCoreMinimal verifies the minimality contract on every UNSAT
// category of the golden schemas.
func TestExplainCoreMinimal(t *testing.T) {
	for _, gs := range goldenSchemas(t) {
		name, ds := gs.name, gs.ds
		for _, c := range ds.G.SortedCategories() {
			ex, err := core.Explain(ds, c, core.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c, err)
			}
			if ex.Satisfiable {
				if ex.Core != nil {
					t.Fatalf("%s/%s: SAT verdict carries a core", name, c)
				}
				continue
			}
			requireCoreMinimal(t, name+"/"+c, ds, c, ex.Core, core.Options{})
		}
	}
}

// FuzzExplainCoreMinimal fuzzes generator parameters and requires every
// core Explain returns to be genuinely minimal: the subset is UNSAT as-is
// and dropping any single member makes the category satisfiable. Budget
// aborts (which return unminimized partial cores by contract) are
// skipped; wired into make fuzz-smoke.
func FuzzExplainCoreMinimal(f *testing.F) {
	f.Add(int64(3), uint8(8), uint8(2), uint8(60), uint8(80), uint8(2), uint8(40), uint8(40))
	f.Add(int64(11), uint8(10), uint8(3), uint8(40), uint8(50), uint8(3), uint8(60), uint8(60))
	f.Add(int64(42), uint8(6), uint8(2), uint8(50), uint8(90), uint8(0), uint8(0), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, cats, levels, edgeP, choiceP, consts, condP, intoP uint8) {
		spec := gen.SchemaSpec{
			Seed:          seed,
			Categories:    2 + int(cats%10),
			Levels:        2 + int(levels%3),
			ExtraEdgeProb: float64(edgeP%100) / 100,
			ChoiceProb:    float64(choiceP%100) / 100,
			Constants:     int(consts % 4),
			CondProb:      float64(condP%100) / 100,
			IntoFrac:      float64(intoP%100) / 100,
		}
		ds, err := gen.Schema(spec)
		if err != nil {
			t.Skip()
		}
		// The total Explain budget bounds pathological schemas; an
		// exhausted budget returns a partial (unminimized) core, which the
		// contract exempts from minimality, so those are skipped.
		opts := core.Options{MaxExpansions: 20000}
		vopts := core.Options{MaxExpansions: 20000}
		for _, c := range ds.G.SortedCategories() {
			ex, err := core.Explain(ds, c, opts)
			if err != nil {
				continue
			}
			if ex.Satisfiable {
				continue
			}
			requireCoreMinimal(t, c, ds, c, ex.Core, vopts)
		}
	})
}
