package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/frozen"
	"olapdim/internal/gen"
	"olapdim/internal/schema"
)

// inducesTracer holds every CHECK verdict to frozen.Induces, which
// decides Proposition 2 on the live subhierarchy with its own map-based
// acyclicity, shortcut and circle-operator code. It keeps the first
// disagreement for the test goroutine to report.
type inducesTracer struct {
	ds                       *core.DimensionSchema
	consts                   map[string][]string
	checks, cyclic, shortcut int
	bad                      error
}

func (tr *inducesTracer) Expand(*frozen.Subhierarchy, int, string, []string) {}
func (tr *inducesTracer) Prune(int, string, string)                          {}

func (tr *inducesTracer) Check(g *frozen.Subhierarchy, _ int, induced bool) {
	tr.checks++
	switch {
	case !g.Acyclic():
		tr.cyclic++
	case !g.ShortcutFree():
		tr.shortcut++
	}
	sigma := constraint.SigmaFor(tr.ds.Sigma, tr.ds.G, g.Root())
	if _, ok := frozen.Induces(g, sigma, tr.consts); ok != induced && tr.bad == nil {
		tr.bad = fmt.Errorf("CHECK of %s rooted at %s says induced=%v, frozen.Induces %v", g, g.Root(), induced, ok)
	}
}

// FuzzCheckAgainstInduces holds every CHECK of SatisfiableContext,
// EnumerateFrozenContext (every root) and SummarizabilityMatrixContext
// to frozen.Induces on the subhierarchy checked, under all four pruning
// variants: with structure pruning off, CHECK also sees cyclic and
// shortcut subhierarchies. The schemas are a golden schema and a
// randomDS draw; the seed corpus names every golden schema, so plain go
// test covers them all. Each call runs under an expansion budget, and
// the CHECKs made before a cut are checked too. Wired into make
// fuzz-smoke.
func FuzzCheckAgainstInduces(f *testing.F) {
	golden := goldenSchemas(f)
	for i := range golden {
		f.Add(int64(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		gs := golden[int(which)%len(golden)]
		checkAgainstInduces(t, gs.name, gs.ds)
		if ds := core.RandomDS(seed); ds.Validate() == nil {
			checkAgainstInduces(t, fmt.Sprintf("randomDS(%d)", seed), ds)
		}
	})
}

func checkAgainstInduces(t *testing.T, name string, ds *core.DimensionSchema) {
	t.Helper()
	ctx := context.Background()
	for _, v := range goldenVariants {
		tr := &inducesTracer{ds: ds, consts: constraint.ValueDomains(ds.Sigma)}
		opts := v.opts
		opts.Tracer = tr
		opts.MaxExpansions = 4000
		run := func(call string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
				t.Fatalf("%s %s %s: %v", name, v.name, call, err)
			}
			if tr.bad != nil {
				t.Fatalf("%s %s %s: %v", name, v.name, call, tr.bad)
			}
		}
		for _, c := range ds.G.SortedCategories() {
			if c == schema.All {
				continue
			}
			_, err := core.SatisfiableContext(ctx, ds, c, opts)
			run("Satisfiable("+c+")", err)
			_, err = core.EnumerateFrozenContext(ctx, ds, c, opts)
			run("EnumerateFrozen("+c+")", err)
		}
		_, err := core.SummarizabilityMatrixContext(ctx, ds, opts)
		run("SummarizabilityMatrix", err)
		t.Logf("%s %s: %d CHECKs, %d of cyclic and %d of shortcut subhierarchies", name, v.name, tr.checks, tr.cyclic, tr.shortcut)
	}
}

// TestSearchScratchReuse runs searches on schemas of different sizes from
// eight goroutines at once, so search scratch recycled from one schema is
// reused on another: the 70-category schema's rows take two words where
// the others' take one. Each search runs with default pruning and with
// none under a small budget. Every Result must equal the sequential
// run's: the verdict, the witness and the Stats, also of runs the budget
// cuts.
func TestSearchScratchReuse(t *testing.T) {
	wide, err := gen.Schema(gen.SchemaSpec{Seed: 3, Categories: 70, Levels: 6, ExtraEdgeProb: 0.05, ChoiceProb: 0.3, Constants: 2, CondProb: 0.3, IntoFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	schemas := []*core.DimensionSchema{wide}
	for _, gs := range goldenSchemas(t) {
		schemas = append(schemas, gs.ds)
	}
	type job struct {
		ds   *core.DimensionSchema
		opts core.Options
		root string
	}
	type outcome struct {
		sat     bool
		witness string
		stats   core.Stats
		err     error
	}
	var jobs []job
	for _, ds := range schemas {
		cs := mustCompile(t, ds)
		for _, c := range ds.G.SortedCategories() {
			if c != schema.All {
				jobs = append(jobs,
					job{ds, core.Options{Compiled: cs, MaxExpansions: 300}, c},
					job{ds, core.Options{Compiled: cs, MaxExpansions: 40, DisableIntoPruning: true, DisableStructurePruning: true}, c})
			}
		}
	}
	if n := len(wide.G.SortedCategories()); n < 65 {
		t.Fatalf("the wide schema has %d categories, want at least 65", n)
	}
	run := func(j job) outcome {
		res, err := core.Satisfiable(j.ds, j.root, j.opts)
		o := outcome{sat: res.Satisfiable, stats: res.Stats, err: err}
		if res.Witness != nil {
			o.witness = res.Witness.Key()
		}
		return o
	}
	want := make([]outcome, len(jobs))
	var sat, cut int
	for i, j := range jobs {
		want[i] = run(j)
		if want[i].sat {
			sat++
		}
		if errors.Is(want[i].err, core.ErrBudgetExceeded) {
			cut++
		}
	}
	t.Logf("%d searches: %d satisfiable, %d cut by the budget", len(jobs), sat, cut)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine runs every job in its own order, so
			// consecutive searches mostly run on different schemas.
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(jobs)) {
				if got := run(jobs[i]); got.sat != want[i].sat || got.witness != want[i].witness ||
					got.stats != want[i].stats || fmt.Sprint(got.err) != fmt.Sprint(want[i].err) {
					errs <- fmt.Errorf("goroutine %d, %s of %s: %+v, sequential %+v", g, jobs[i].root, jobs[i].ds.G.Name(), got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
