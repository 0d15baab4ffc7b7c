package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/frozen"
	"olapdim/internal/gen"
	"olapdim/internal/olap"
	"olapdim/internal/paper"
	"olapdim/internal/schema"
	"olapdim/internal/transform"
)

// seedsFor returns the benchmark seeds per configuration.
func seedsFor(full bool) []int64 {
	if full {
		return []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	return []int64{1, 2, 3, 4, 5}
}

// satWork measures the worst-case DIMSAT workload: deciding the implied
// constraint C0.All via Theorem 2. Refuting its negation requires
// exhausting the whole (pruned) space of subhierarchies rooted at C0, so
// the reported expansions are the size of the search space the heuristics
// leave — exactly the quantity Proposition 4 bounds. Reports median time
// (µs), median expansions, and the fraction of seeds where the implication
// held (always 1.0: every member rolls up to All).
func satWork(spec gen.SchemaSpec, seeds []int64, opts core.Options) (usMed, expMed, impliedFrac float64, err error) {
	var times, exps []float64
	implied := 0
	for _, seed := range seeds {
		spec.Seed = seed
		ds, err := gen.Schema(spec)
		if err != nil {
			return 0, 0, 0, err
		}
		alpha := constraint.RollupAtom{RootCat: gen.CategoryName(0), Cat: "All"}
		start := time.Now()
		ok, res, e := core.Implies(ds, alpha, opts)
		if e != nil {
			return 0, 0, 0, e
		}
		times = append(times, float64(time.Since(start).Microseconds()))
		exps = append(exps, float64(res.Stats.Expansions))
		if ok {
			implied++
		}
	}
	return median(times), median(exps), float64(implied) / float64(len(seeds)), nil
}

// runE1 sweeps the number of categories N at fixed density, validating the
// Proposition 4 shape: work grows exponentially in N but stays tractable
// at realistic dimension sizes.
func runE1(w io.Writer, full bool) error {
	ns := []int{6, 8, 10, 12, 14}
	if full {
		ns = append(ns, 16, 18)
	}
	t := &table{header: []string{"N", "median time", "median expansions", "implied fraction"}}
	for _, n := range ns {
		spec := gen.SchemaSpec{
			Categories: n, Levels: 3 + n/6, ExtraEdgeProb: 0.25,
			ChoiceProb: 0.6, Constants: 2, CondProb: 0.3, IntoFrac: 0.3,
		}
		us, exps, sat, err := satWork(spec, seedsFor(full), core.Options{})
		if err != nil {
			return err
		}
		t.add(fmt.Sprint(n), fmt.Sprintf("%.0f µs", us), fmt.Sprintf("%.0f", exps), fmt.Sprintf("%.2f", sat))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: super-linear growth in N (Proposition 4), sub-second at dimension-like sizes")
	return nil
}

// runE2 sweeps the into-edge density, validating the Section 5 conjecture
// that into pruning "should have a major impact in practice".
func runE2(w io.Writer, full bool) error {
	t := &table{header: []string{"into fraction", "median expansions (pruned)", "median expansions (no pruning)", "work ratio"}}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		spec := gen.SchemaSpec{
			Categories: 12, Levels: 4, ExtraEdgeProb: 0.25,
			ChoiceProb: 0.4, IntoFrac: frac,
		}
		_, expOn, _, err := satWork(spec, seedsFor(full), core.Options{})
		if err != nil {
			return err
		}
		_, expOff, _, err := satWork(spec, seedsFor(full), core.Options{DisableIntoPruning: true})
		if err != nil {
			return err
		}
		ratio := 1.0
		if expOn > 0 {
			ratio = expOff / expOn
		}
		t.add(fmt.Sprintf("%.2f", frac), fmt.Sprintf("%.0f", expOn), fmt.Sprintf("%.0f", expOff), fmt.Sprintf("%.2fx", ratio))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: pruning benefit grows with the density of into constraints")
	return nil
}

// runE3 sweeps N_K, the constants per category. The 2^(N log N_K) factor
// of Proposition 4 lives in the c-assignment search of CHECK, so the
// workload isolates it: a single-chain schema (one subhierarchy) whose
// constraints encode an unsatisfiable pigeonhole problem over constants —
// N_K+1 categories must take pairwise distinct values among N_K constants.
// CHECK must exhaust the assignment space to refute it.
func runE3(w io.Writer, full bool) error {
	ks := []int{2, 3, 4, 5}
	if full {
		ks = append(ks, 6)
	}
	t := &table{header: []string{"N_K", "categories assigned", "median time", "satisfiable"}}
	for _, k := range ks {
		ds := pigeonholeSchema(k)
		var times []float64
		var res core.Result
		var err error
		reps := 5
		for i := 0; i < reps; i++ {
			start := time.Now()
			res, err = core.Satisfiable(ds, "C0", core.Options{})
			if err != nil {
				return err
			}
			times = append(times, float64(time.Since(start).Microseconds()))
		}
		t.add(fmt.Sprint(k), fmt.Sprint(k+1), fmt.Sprintf("%.0f µs", median(times)), fmt.Sprint(res.Satisfiable))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: super-polynomial growth in N_K on adversarial assignments (always unsatisfiable)")
	return nil
}

// pigeonholeSchema builds a chain C0 -> C1 -> ... -> Cm -> All with
// m = nk+1 pigeon categories, each forced to take one of nk constants,
// all pairwise distinct — unsatisfiable by the pigeonhole principle.
func pigeonholeSchema(nk int) *core.DimensionSchema {
	m := nk + 1
	ds := core.NewDimensionSchema(newChainSchema(m))
	for i := 1; i <= m; i++ {
		var hole []constraint.Expr
		for j := 0; j < nk; j++ {
			hole = append(hole, constraint.EqAtom{RootCat: "C0", Cat: fmt.Sprintf("C%d", i), Val: fmt.Sprintf("k%d", j)})
		}
		ds.Sigma = append(ds.Sigma, constraint.Or{Xs: hole})
	}
	for i := 1; i <= m; i++ {
		for i2 := i + 1; i2 <= m; i2++ {
			for j := 0; j < nk; j++ {
				ds.Sigma = append(ds.Sigma, constraint.Not{X: constraint.NewAnd(
					constraint.EqAtom{RootCat: "C0", Cat: fmt.Sprintf("C%d", i), Val: fmt.Sprintf("k%d", j)},
					constraint.EqAtom{RootCat: "C0", Cat: fmt.Sprintf("C%d", i2), Val: fmt.Sprintf("k%d", j)},
				)})
			}
		}
	}
	return ds
}

// runE4 isolates the linear N_Sigma factor of Proposition 4: a fixed
// search space (constant expansions) is re-decided while tautological
// constraints — each a disjunction a path atom and its negation — pad Σ.
// Every CHECK must still evaluate them, so time grows linearly in N_Sigma.
func runE4(w io.Writer, full bool) error {
	spec := gen.SchemaSpec{
		Seed: 11, Categories: 12, Levels: 4, ExtraEdgeProb: 0.3,
		ChoiceProb: 0.4,
	}
	base, err := gen.Schema(spec)
	if err != nil {
		return err
	}
	alpha := constraint.RollupAtom{RootCat: gen.CategoryName(0), Cat: "All"}
	c0 := gen.CategoryName(0)
	p0 := base.G.Out(c0)[0]
	taut := constraint.NewOr(constraint.NewPath(c0, p0), constraint.Not{X: constraint.NewPath(c0, p0)})
	pads := []int{0, 50, 100, 200, 400}
	if full {
		pads = append(pads, 800)
	}
	t := &table{header: []string{"N_Sigma", "median time", "expansions", "implied"}}
	for _, n := range pads {
		sigma := append([]constraint.Expr(nil), base.Sigma...)
		for i := 0; i < n; i++ {
			sigma = append(sigma, taut)
		}
		ds := core.NewDimensionSchema(base.G, sigma...)
		var times []float64
		var res core.Result
		var implied bool
		var err error
		for i := 0; i < 5; i++ {
			start := time.Now()
			implied, res, err = core.Implies(ds, alpha, core.Options{})
			if err != nil {
				return err
			}
			times = append(times, float64(time.Since(start).Microseconds()))
		}
		t.add(fmt.Sprint(len(sigma)), fmt.Sprintf("%.0f µs", median(times)),
			fmt.Sprint(res.Stats.Expansions), fmt.Sprint(implied))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: expansions constant, time linear in N_Sigma (the per-CHECK factor of Proposition 4)")
	return nil
}

// newChainSchema builds the hierarchy chain C0 -> C1 -> ... -> Cm -> All.
func newChainSchema(m int) *schema.Schema {
	g := schema.New(fmt.Sprintf("chain%d", m))
	for i := 0; i < m; i++ {
		if err := g.AddEdge(fmt.Sprintf("C%d", i), fmt.Sprintf("C%d", i+1)); err != nil {
			panic(err)
		}
	}
	if err := g.AddEdge(fmt.Sprintf("C%d", m), schema.All); err != nil {
		panic(err)
	}
	return g
}

// runE5 times the paper's own schema: satisfiability, implication,
// frozen-dimension enumeration and summarizability on locationSch.
func runE5(w io.Writer, full bool) error {
	ds := paper.LocationSch()
	reps := 50
	if full {
		reps = 500
	}
	timeIt := func(f func() error) (float64, error) {
		var times []float64
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			times = append(times, float64(time.Since(start).Microseconds()))
		}
		return median(times), nil
	}
	t := &table{header: []string{"query", "median time"}}
	queries := []struct {
		name string
		f    func() error
	}{
		{"sat(Store)", func() error { _, err := core.Satisfiable(ds, paper.Store, core.Options{}); return err }},
		{"frozen(Store)", func() error { _, err := core.EnumerateFrozen(ds, paper.Store, core.Options{}); return err }},
		{"implies(Store.Country)", func() error {
			_, _, err := core.Implies(ds, constraint.RollupAtom{RootCat: paper.Store, Cat: paper.Country}, core.Options{})
			return err
		}},
		{"summarizable(Country, {City})", func() error {
			_, err := core.Summarizable(ds, paper.Country, []string{paper.City}, core.Options{})
			return err
		}},
		{"summarizable(Country, {State,Province})", func() error {
			_, err := core.Summarizable(ds, paper.Country, []string{paper.State, paper.Province}, core.Options{})
			return err
		}},
	}
	for _, q := range queries {
		us, err := timeIt(q.f)
		if err != nil {
			return err
		}
		t.add(q.name, fmt.Sprintf("%.0f µs", us))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: Section 6 conjectures 'a few seconds'; the reproduction answers in microseconds")
	return nil
}

// runE6 ablates the two pruning heuristics on a fixed workload.
func runE6(w io.Writer, full bool) error {
	spec := gen.SchemaSpec{
		Categories: 12, Levels: 4, ExtraEdgeProb: 0.3,
		ChoiceProb: 0.5, Constants: 2, CondProb: 0.4, IntoFrac: 0.6,
	}
	t := &table{header: []string{"configuration", "median time", "median expansions"}}
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full DIMSAT", core.Options{}},
		{"no into pruning", core.Options{DisableIntoPruning: true}},
		{"no structure pruning", core.Options{DisableStructurePruning: true}},
		{"no pruning at all", core.Options{DisableIntoPruning: true, DisableStructurePruning: true}},
	}
	for _, cfg := range configs {
		us, exps, _, err := satWork(spec, seedsFor(full), cfg.opts)
		if err != nil {
			return err
		}
		t.add(cfg.name, fmt.Sprintf("%.0f µs", us), fmt.Sprintf("%.0f", exps))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: each heuristic reduces explored subhierarchies; combined they dominate")
	return nil
}

// runE7 compares DIMSAT against the naive Theorem-3 enumeration.
func runE7(w io.Writer, full bool) error {
	ns := []int{4, 6, 8}
	if full {
		ns = append(ns, 10)
	}
	t := &table{header: []string{"N", "DIMSAT median", "naive median", "speedup"}}
	for _, n := range ns {
		var dimsatT, naiveT []float64
		for _, seed := range seedsFor(full) {
			spec := gen.SchemaSpec{
				Seed: seed, Categories: n, Levels: 2 + n/4,
				ExtraEdgeProb: 0.3, ChoiceProb: 0.5, IntoFrac: 0.3,
			}
			base, err := gen.Schema(spec)
			if err != nil {
				return err
			}
			// Unsatisfiable query: both solvers must exhaust their search
			// space, which is the regime that separates them.
			c0 := gen.CategoryName(0)
			sigma := append(append([]constraint.Expr(nil), base.Sigma...),
				constraint.Not{X: constraint.RollupAtom{RootCat: c0, Cat: "All"}})
			ds := core.NewDimensionSchema(base.G, sigma...)
			start := time.Now()
			res, err := core.Satisfiable(ds, c0, core.Options{})
			if err != nil {
				return err
			}
			dimsatT = append(dimsatT, float64(time.Since(start).Microseconds()))
			start = time.Now()
			want, err := frozen.NaiveSatisfiable(ds.G, ds.Sigma, c0)
			if err != nil {
				return err
			}
			naiveT = append(naiveT, float64(time.Since(start).Microseconds()))
			if want != res.Satisfiable {
				return fmt.Errorf("oracle disagreement at N=%d seed=%d", n, seed)
			}
		}
		dm, nm := median(dimsatT), median(naiveT)
		t.add(fmt.Sprint(n), fmt.Sprintf("%.0f µs", dm), fmt.Sprintf("%.0f µs", nm), fmt.Sprintf("%.1fx", nm/dm))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: the gap widens exponentially with N (naive enumerates all edge subsets)")
	return nil
}

// runE8 measures the aggregate-navigation payoff: answering the Country
// cube view from a materialized City view versus scanning the facts.
func runE8(w io.Writer, full bool) error {
	ds := paper.LocationSch()
	copies := []int{100, 1000}
	factsPerStore := 20
	if full {
		copies = append(copies, 10000)
	}
	t := &table{header: []string{"stores", "facts", "base scan", "rewrite from City view", "speedup"}}
	for _, n := range copies {
		d, err := gen.InstanceFromFrozen(ds, paper.Store, n, core.Options{})
		if err != nil {
			return err
		}
		f := gen.Facts(d.Members(paper.Store), n*factsPerStore, 1000, int64(n))
		nav := olap.NewNavigator(d, f, &olap.SchemaOracle{DS: ds})
		nav.Materialize(paper.City, olap.Sum)

		var baseT, viewT []float64
		var fromView, fromBase *olap.CubeView
		for i := 0; i < 5; i++ {
			start := time.Now()
			fromBase = olap.Compute(d, f, paper.Country, olap.Sum)
			baseT = append(baseT, float64(time.Since(start).Microseconds()))

			start = time.Now()
			v, plan, err := nav.Query(paper.Country, olap.Sum)
			if err != nil {
				return err
			}
			if plan.FromBase {
				return fmt.Errorf("navigator refused the rewrite")
			}
			viewT = append(viewT, float64(time.Since(start).Microseconds()))
			fromView = v
		}
		if diff := olap.Diff(fromBase, fromView); diff != "" {
			return fmt.Errorf("rewrite incorrect: %s", diff)
		}
		bm, vm := median(baseT), median(viewT)
		t.add(fmt.Sprint(n), fmt.Sprint(len(f.Facts)),
			fmt.Sprintf("%.0f µs", bm), fmt.Sprintf("%.0f µs", vm), fmt.Sprintf("%.1fx", bm/vm))
	}
	t.write(w)
	fmt.Fprintln(w, "  expectation: rewriting from the finer view beats re-scanning facts, and grows with fact volume")
	return nil
}

// runE9 reports the costs of the two related-work transformations on the
// location dimension.
func runE9(w io.Writer, full bool) error {
	d := paper.LocationInstance()
	flat := transform.Flatten(d)
	fmt.Fprintf(w, "  DNF flattening (Lehner et al.): hierarchy columns %v, attribute columns %v\n",
		flat.Hierarchy, flat.Attributes)
	f := &olap.FactTable{}
	for i, s := range d.Members(paper.Store) {
		f.Add(s, int64(i+1))
	}
	byState := flat.CubeBy(f, paper.State, olap.Count)
	counted := int64(0)
	for _, v := range byState.Cells {
		counted += v
	}
	fmt.Fprintf(w, "  grouping by demoted column State keeps %d of %d facts (losses are silent)\n",
		counted, len(f.Facts))

	padded, rep, err := transform.PadWithNulls(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  null padding (Pedersen & Jensen): %s\n", rep)
	fmt.Fprintf(w, "  members before %d, after %d (+%.0f%%)\n",
		d.NumMembers(), padded.NumMembers(),
		100*float64(padded.NumMembers()-d.NumMembers())/float64(d.NumMembers()))
	if rep.Violation != nil {
		fmt.Fprintln(w, "  note: the paper observes the transformation handles only a restricted class;")
		fmt.Fprintln(w, "  the location dimension is outside it, and the violation above witnesses that.")
	}
	return nil
}

// runE10 shows the Section 6 design-stage tooling on the paper's schema:
// the single-source summarizability matrix and a greedy view selection for
// a realistic query workload, plus, on a larger generated schema, the
// matrix's per-bottom walks against one Theorem 2 search per cell.
func runE10(w io.Writer, full bool) error {
	ds := paper.LocationSch()
	start := time.Now()
	m, err := core.SummarizabilityMatrix(ds, core.Options{})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "  single-source summarizability matrix (%d cells from %d DIMSAT walk(s) in %s):\n",
		len(m.Categories)*len(m.Categories), len(ds.G.Bottoms()), elapsed.Round(time.Microsecond))
	for _, line := range splitLines(m.String()) {
		fmt.Fprintf(w, "    %s\n", line)
	}

	if err := matrixWalkComparison(w, full); err != nil {
		return err
	}

	sizes := map[string]int{
		paper.City: 1000, paper.State: 500, paper.Province: 250,
		paper.SaleRegion: 600, paper.Country: 3,
	}
	queries := []string{paper.Country, paper.SaleRegion, paper.State, paper.Province}
	sel := olap.SelectViews(&olap.SchemaOracle{DS: ds}, sizes, queries, 5000)
	fmt.Fprintf(w, "  view selection for queries %v within 5000 cells:\n", queries)
	for _, line := range splitLines(sel.String()) {
		fmt.Fprintf(w, "    %s\n", line)
	}
	return nil
}

// matrixWalkComparison times five ways to the summarizability matrix of
// a generated schema large enough for the difference to matter: one
// Theorem 2 search per cell and bottom category (impliesCell, serially,
// uncached), one cold SummarizableContext per cell (each walks every
// bottom category afresh), the matrix's one walk per bottom category run
// serially, the walks on the worker pool, and a repeat that answers from
// the walks a shared SatCache retained. The five matrices must be
// identical.
func matrixWalkComparison(w io.Writer, full bool) error {
	spec := gen.SchemaSpec{Seed: 7, Categories: 12, Levels: 4, ExtraEdgeProb: 0.3, ChoiceProb: 0.4, IntoFrac: 0.3}
	if full {
		spec.Categories = 14
	}
	big, err := gen.Schema(spec)
	if err != nil {
		return err
	}
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)

	var categories []string
	for _, c := range big.G.SortedCategories() {
		if c != schema.All {
			categories = append(categories, c)
		}
	}
	// perCell fills a matrix with one decide call per cell, timed.
	perCell := func(decide func(t, src string) (bool, error)) (*core.Matrix, time.Duration, error) {
		m := &core.Matrix{Categories: categories, From: map[string]map[string]bool{}}
		start := time.Now()
		for _, t := range categories {
			m.From[t] = map[string]bool{}
			for _, src := range categories {
				ok, err := decide(t, src)
				if err != nil {
					return nil, 0, err
				}
				m.From[t][src] = ok
			}
		}
		return m, time.Since(start), nil
	}

	cellEffort := &core.EffortSink{}
	cells, cellTime, err := perCell(func(t, src string) (bool, error) {
		return impliesCell(ctx, big, t, src, core.Options{Effort: cellEffort})
	})
	if err != nil {
		return err
	}

	coldEffort := &core.EffortSink{}
	cold, coldTime, err := perCell(func(t, src string) (bool, error) {
		rep, err := core.SummarizableContext(ctx, big, t, []string{src}, core.Options{Effort: coldEffort})
		if err != nil {
			return false, err
		}
		return rep.Summarizable(), nil
	})
	if err != nil {
		return err
	}

	walkEffort := &core.EffortSink{}
	start := time.Now()
	serial, err := core.SummarizabilityMatrixContext(ctx, big, core.Options{Parallelism: 1, Effort: walkEffort})
	if err != nil {
		return err
	}
	serialTime := time.Since(start)

	start = time.Now()
	pooled, err := core.SummarizabilityMatrixContext(ctx, big, core.Options{})
	if err != nil {
		return err
	}
	pooledTime := time.Since(start)

	shared := core.NewSatCache()
	if _, err := core.SummarizabilityMatrixContext(ctx, big, core.Options{Cache: shared}); err != nil {
		return err
	}
	repeatEffort := &core.EffortSink{}
	start = time.Now()
	repeat, err := core.SummarizabilityMatrixContext(ctx, big, core.Options{Cache: shared, Effort: repeatEffort})
	if err != nil {
		return err
	}
	repeatTime := time.Since(start)

	for _, m := range []*core.Matrix{cold, serial, pooled, repeat} {
		if m.String() != cells.String() {
			return fmt.Errorf("matrices differ on generated schema (seed %d)", spec.Seed)
		}
	}
	fmt.Fprintf(w, "  matrix on a generated schema (%d categories, %d cells, %d bottom categories, %d workers):\n",
		len(serial.Categories), len(serial.Categories)*len(serial.Categories), len(big.G.Bottoms()), workers)
	fmt.Fprintf(w, "    one search per cell and bottom:  %s (%d EXPAND steps)\n",
		cellTime.Round(time.Microsecond), cellEffort.Stats().Expansions)
	fmt.Fprintf(w, "    cold Summarizable per cell:      %s (%d EXPAND steps, %.1fx)\n",
		coldTime.Round(time.Microsecond), coldEffort.Stats().Expansions, float64(cellTime)/float64(coldTime))
	fmt.Fprintf(w, "    one walk per bottom, serial:     %s (%d EXPAND steps, %.0fx)\n",
		serialTime.Round(time.Microsecond), walkEffort.Stats().Expansions, float64(cellTime)/float64(serialTime))
	fmt.Fprintf(w, "    one walk per bottom, pool:       %s (%.0fx)\n",
		pooledTime.Round(time.Microsecond), float64(cellTime)/float64(pooledTime))
	fmt.Fprintf(w, "    repeat from a shared SatCache:   %s (%d EXPAND steps, %.0fx)\n",
		repeatTime.Round(time.Microsecond), repeatEffort.Stats().Expansions, float64(cellTime)/float64(repeatTime))
	fmt.Fprintln(w, "    all five matrices identical")
	return nil
}

// impliesCell decides cell (t, src) of the summarizability matrix by
// Theorem 1 through Theorem 2: one ImpliesContext of the bottom
// category's SummarizabilityConstraint per bottom category, on one
// compile of ds for the cell.
func impliesCell(ctx context.Context, ds *core.DimensionSchema, t, src string, opts core.Options) (bool, error) {
	var err error
	if opts.Compiled, err = core.Compile(ds); err != nil {
		return false, err
	}
	holds := true
	for _, cb := range ds.G.Bottoms() {
		implied, _, err := core.ImpliesContext(ctx, ds, core.SummarizabilityConstraint(cb, t, []string{src}), opts)
		if err != nil {
			return false, err
		}
		holds = holds && implied
	}
	return holds, nil
}

// runE12 measures incremental view maintenance: folding a batch of new
// facts into materialized views versus rematerializing them from scratch.
func runE12(w io.Writer, full bool) error {
	ds := paper.LocationSch()
	stores := 1000
	seedFacts := 20000
	if full {
		stores, seedFacts = 4000, 100000
	}
	d, err := gen.InstanceFromFrozen(ds, paper.Store, stores, core.Options{})
	if err != nil {
		return err
	}
	base := d.Members(paper.Store)
	batch := make([]olap.Fact, 100)
	for i := range batch {
		batch[i] = olap.Fact{Base: base[i%len(base)], M: int64(i)}
	}
	t := &table{header: []string{"strategy", "median time per 100-fact batch"}}

	var incT, remT []float64
	for rep := 0; rep < 5; rep++ {
		seed := gen.Facts(base, seedFacts, 1000, int64(rep))
		f := &olap.FactTable{Facts: append([]olap.Fact(nil), seed.Facts...)}
		n := olap.NewNavigator(d, f, olap.InstanceOracle{D: d})
		n.Materialize(paper.City, olap.Sum)
		n.Materialize(paper.Country, olap.Sum)
		start := time.Now()
		if err := n.AddFacts(batch...); err != nil {
			return err
		}
		incT = append(incT, float64(time.Since(start).Microseconds()))

		f2 := &olap.FactTable{Facts: append([]olap.Fact(nil), seed.Facts...)}
		n2 := olap.NewNavigator(d, f2, olap.InstanceOracle{D: d})
		start = time.Now()
		f2.Facts = append(f2.Facts, batch...)
		n2.Materialize(paper.City, olap.Sum)
		n2.Materialize(paper.Country, olap.Sum)
		remT = append(remT, float64(time.Since(start).Microseconds()))
	}
	t.add("incremental fold (AddFacts)", fmt.Sprintf("%.0f µs", median(incT)))
	t.add("rematerialize from scratch", fmt.Sprintf("%.0f µs", median(remT)))
	t.write(w)
	fmt.Fprintf(w, "  speedup: %.0fx; per-fact cost is O(#views), independent of the table size\n",
		median(remT)/median(incT))
	return nil
}

// runFigures reprints the Figure 4, 5 and 7 reproductions.
func runFigures(w io.Writer, full bool) error {
	ds := paper.LocationSch()

	fmt.Fprintln(w, "  Figure 4: frozen dimensions of locationSch with root Store")
	fs, err := core.EnumerateFrozen(ds, paper.Store, core.Options{})
	if err != nil {
		return err
	}
	for i, f := range fs {
		fmt.Fprintf(w, "    f%d: %s\n", i+1, f)
	}

	fmt.Fprintln(w, "  Figure 5: Σ(locationSch, Store) ∘ g for the State+Province subhierarchy")
	g := frozen.NewSubhierarchy(paper.Store)
	for _, e := range [][2]string{
		{paper.Store, paper.City}, {paper.City, paper.State}, {paper.City, paper.Province},
		{paper.State, paper.Country}, {paper.Province, paper.SaleRegion},
		{paper.SaleRegion, paper.Country}, {paper.Country, "All"},
	} {
		g.AddEdge(e[0], e[1])
	}
	for i, e := range frozen.CircleVerbatim(constraint.SigmaFor(ds.Sigma, ds.G, paper.Store), g) {
		fmt.Fprintf(w, "    (%c) %s\n", 'a'+i, e)
	}

	fmt.Fprintln(w, "  Figure 7: DIMSAT(locationSch, Store) execution trace")
	tr := &core.RecordingTracer{}
	if _, err := core.Satisfiable(ds, paper.Store, core.Options{Tracer: tr}); err != nil {
		return err
	}
	for _, line := range splitLines(tr.String()) {
		fmt.Fprintf(w, "    %s\n", line)
	}
	return nil
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
