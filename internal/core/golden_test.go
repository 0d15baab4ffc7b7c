package core_test

// Golden-output suite for the DIMSAT search. One file per aspect under
// testdata/golden pins what a search exposes — verdicts, Stats and
// witnesses; the Tracer and StructuredTracer event streams (the paper's
// Figure 7 trace is paper-location's "default Store" case); provenance;
// budget-abort checkpoints and their resumption; the periodic checkpoint
// sink; Explain cores; frozen-dimension enumeration; and the Implies,
// UnsatisfiableCategories, SummarizabilityMatrix and Lint answers — over
// seven generator families, the paper's location schema, a schema with
// order atoms and one with unsatisfiable categories, under each of the
// four pruning variants.
// Independently of the files, every SAT witness and every implication
// counterexample must materialize into an instance that passes
// (C1)-(C7) and satisfies Σ.
//
// After an intended behaviour change, regenerate and review the diff:
//
//	go test ./internal/core -run TestDimsatGolden -update-golden

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/frozen"
	"olapdim/internal/gen"
	"olapdim/internal/paper"
	"olapdim/internal/schema"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current engine")

// goldenSchema is one named schema of the golden suite.
type goldenSchema struct {
	name string
	ds   *core.DimensionSchema
}

// goldenUnsatSrc has unsatisfiable categories (Sale, Order, Zone) whose
// searches backtrack through every prune heuristic — into, a legal
// schema cycle (City <-> Region) that swallows the frontier with
// structure pruning off, and a sibling shortcut (Zone -> Lot -> Dock
// beside Zone -> Dock) — and whose unsat cores have two or three members.
const goldenUnsatSrc = `schema mix
edge Sale -> Store -> City -> Country -> All
edge Store -> Country
edge City -> Region -> Country
edge Region -> City
edge Sale -> Promo -> All
edge Store -> Mall -> City
constraint Sale_Store
constraint Store_City
constraint Store.Mall -> Store_Country
constraint !(Sale_Promo & Sale.Store.Country)
constraint Sale_Promo
constraint Mall_City -> !Mall.Region
edge Order -> Item -> Lot -> Dock -> All
edge Order -> Zone -> Lot
edge Zone -> Dock
constraint Order_Item
constraint Order_Zone
constraint Zone_Dock
constraint Zone.Lot
`

// goldenSchemas spans the internal/gen families — homogeneous layered
// schemas, heterogeneous multi-parent schemas, choice (one-of)
// constraints, conditional equality constraints over constants, and
// into-heavy schemas that feed the Section 5 pruning heuristic — plus
// the paper's location schema, a schema with order (Cmp) atoms, which
// exercise the valued decider and the c-assignment solver, and
// goldenUnsatSrc.
func goldenSchemas(tb testing.TB) []goldenSchema {
	tb.Helper()
	specs := []gen.SchemaSpec{
		{Seed: 1, Categories: 6, Levels: 3},
		{Seed: 2, Categories: 8, Levels: 3, ExtraEdgeProb: 0.3},
		{Seed: 3, Categories: 8, Levels: 2, ExtraEdgeProb: 0.5, ChoiceProb: 0.8},
		{Seed: 4, Categories: 9, Levels: 3, ExtraEdgeProb: 0.4, Constants: 3, CondProb: 0.7},
		{Seed: 5, Categories: 10, Levels: 4, ExtraEdgeProb: 0.3, IntoFrac: 0.6},
		{Seed: 6, Categories: 10, Levels: 3, ExtraEdgeProb: 0.4, ChoiceProb: 0.5, Constants: 2, CondProb: 0.5, IntoFrac: 0.4},
		{Seed: 7, Categories: 12, Levels: 4, ExtraEdgeProb: 0.25, ChoiceProb: 0.3, Constants: 4, CondProb: 0.3, IntoFrac: 0.3},
	}
	var out []goldenSchema
	for _, spec := range specs {
		ds, err := gen.Schema(spec)
		if err != nil {
			tb.Fatalf("gen.Schema(%+v): %v", spec, err)
		}
		out = append(out, goldenSchema{fmt.Sprintf("gen-seed%d", spec.Seed), ds})
	}
	cmp, err := core.Parse(`schema cmp
edge Day -> Month -> All
edge Day -> Week -> All
constraint Day.Month="jan" -> Day_Month
constraint Day.Week < 10 -> Day_Week
constraint !(Day_Month & Day_Week)
`)
	if err != nil {
		tb.Fatalf("cmp schema: %v", err)
	}
	unsat, err := core.Parse(goldenUnsatSrc)
	if err != nil {
		tb.Fatalf("unsat schema: %v", err)
	}
	return append(out,
		goldenSchema{"paper-location", paper.LocationSch()},
		goldenSchema{"cmp-atoms", cmp},
		goldenSchema{"unsat-mix", unsat})
}

// goldenVariants are the pruning ablations, in file order.
var goldenVariants = []struct {
	name string
	opts core.Options
}{
	{"default", core.Options{}},
	{"no-into", core.Options{DisableIntoPruning: true}},
	{"no-structure", core.Options{DisableStructurePruning: true}},
	{"no-pruning", core.Options{DisableIntoPruning: true, DisableStructurePruning: true}},
}

// goldenTracer records the Figure 7 Tracer stream, with the live
// subhierarchy rendered at every step, interleaved with the
// StructuredTracer stream of depths and prune heuristics.
type goldenTracer struct{ events []string }

func (g *goldenTracer) Expand(sub *frozen.Subhierarchy, ctop string, R []string) {
	g.events = append(g.events, fmt.Sprintf("expand %s %v g=%s", ctop, R, sub))
}

func (g *goldenTracer) Check(sub *frozen.Subhierarchy, induced bool) {
	g.events = append(g.events, fmt.Sprintf("check %v g=%s", induced, sub))
}

func (g *goldenTracer) ExpandStep(depth int, ctop string, R []string) {
	g.events = append(g.events, fmt.Sprintf("expand-step %d %s %v", depth, ctop, R))
}

func (g *goldenTracer) CheckStep(depth int, induced bool) {
	g.events = append(g.events, fmt.Sprintf("check-step %d %v", depth, induced))
}

func (g *goldenTracer) PruneStep(depth int, ctop, heuristic string) {
	g.events = append(g.events, fmt.Sprintf("prune-step %d %s %s", depth, ctop, heuristic))
}

// goldenAspects render one golden file each, testdata/golden/<name>.txt,
// covering every golden schema.
var goldenAspects = []struct {
	name   string
	render func(t *testing.T, w *strings.Builder, gs goldenSchema)
}{
	{"satisfiable", goldenSatisfiable},
	{"trace", goldenTrace},
	{"provenance", goldenProvenance},
	{"checkpoints", goldenCheckpoints},
	{"sink", goldenSink},
	{"explain", goldenExplain},
	{"enumerate", goldenEnumerate},
	{"implies", goldenImplies},
	{"batch", goldenBatch},
}

func TestDimsatGolden(t *testing.T) {
	schemas := goldenSchemas(t)
	for _, a := range goldenAspects {
		a := a
		t.Run(a.name, func(t *testing.T) {
			var w strings.Builder
			for _, gs := range schemas {
				fmt.Fprintf(&w, "#### %s\n", gs.name)
				a.render(t, &w, gs)
			}
			got := w.String()
			path := filepath.Join("testdata", "golden", a.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from the search's output: %s", path, firstLineDiff(string(want), got))
			}
		})
	}
}

// firstLineDiff locates the first differing line of two renderings.
func firstLineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length %d lines vs %d", len(wl), len(gl))
}

// eachGoldenCase runs fn for every pruning variant and category of gs,
// with the variant's plain satisfiability result, after writing the
// case header.
func eachGoldenCase(t *testing.T, w *strings.Builder, gs goldenSchema, fn func(label string, opts core.Options, c string, full core.Result)) {
	t.Helper()
	for _, v := range goldenVariants {
		for _, c := range gs.ds.G.SortedCategories() {
			label := gs.name + "/" + v.name + "/" + c
			full, err := core.Satisfiable(gs.ds, c, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fmt.Fprintf(w, "== %s %s\n", v.name, c)
			fn(label, v.opts, c, full)
		}
	}
}

// goldenSatisfiable pins verdicts, Stats and witnesses, and certifies
// every witness.
func goldenSatisfiable(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		fmt.Fprintf(w, "%s\n", goldenResult(full, nil))
		certifyWitness(t, label, gs.ds.G, gs.ds.Sigma, full)
	})
}

// goldenTrace pins the Tracer and StructuredTracer event streams.
func goldenTrace(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		tr := &goldenTracer{}
		opts.Tracer = tr
		res, err := core.Satisfiable(gs.ds, c, opts)
		requireSameGolden(t, label+"/traced", full, res, err)
		for _, e := range tr.events {
			fmt.Fprintf(w, "%s\n", e)
		}
	})
}

// goldenProvenance pins the touched sets; collecting them must leave the
// search unchanged.
func goldenProvenance(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		opts.Provenance = true
		res, err := core.Satisfiable(gs.ds, c, opts)
		requireSameGolden(t, label+"/provenance", full, res, err)
		prov, err := json.Marshal(res.Provenance)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%s\n", prov)
	})
}

// goldenCheckpoints pins the encoded checkpoints of budget aborts at
// budgets 1, 2, 5 and 17; each must resume to the uninterrupted result.
func goldenCheckpoints(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		for _, budget := range []int{1, 2, 5, 17} {
			if full.Stats.Expansions <= budget {
				continue
			}
			bopts := opts
			bopts.MaxExpansions = budget
			bopts.Checkpoint = &core.Checkpointing{}
			res, err := core.Satisfiable(gs.ds, c, bopts)
			if err == nil || res.Checkpoint == nil {
				t.Fatalf("%s budget %d: want a checkpointed abort, got %v", label, budget, err)
			}
			enc, eerr := res.Checkpoint.Encode()
			if eerr != nil {
				t.Fatal(eerr)
			}
			cp, derr := core.DecodeCheckpoint(enc)
			if derr != nil {
				t.Fatalf("%s budget %d: decode: %v", label, budget, derr)
			}
			resumed, rerr := core.ResumeSatisfiable(gs.ds, cp, opts)
			requireSameGolden(t, fmt.Sprintf("%s/resume%d", label, budget), full, resumed, rerr)
			certifyWitness(t, label+"/resume", gs.ds.G, gs.ds.Sigma, resumed)
			fmt.Fprintf(w, "budget %d %s\n  %s\n  resume %s\n", budget, goldenResult(res, err), enc, goldenResult(resumed, rerr))
		}
	})
}

// goldenSink pins the periodic checkpoint stream at Every 3.
func goldenSink(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		opts.Checkpoint = &core.Checkpointing{Every: 3, Sink: func(cp *core.Checkpoint) error {
			enc, err := cp.Encode()
			fmt.Fprintf(w, "%s\n", enc)
			return err
		}}
		res, err := core.Satisfiable(gs.ds, c, opts)
		requireSameGolden(t, label+"/sink", full, res, err)
	})
}

// goldenExplain pins Explain's cores, frontiers and probe effort.
func goldenExplain(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		ex, err := core.Explain(gs.ds, c, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ex.Satisfiable != full.Satisfiable {
			t.Fatalf("%s: Explain verdict %v, Satisfiable %v", label, ex.Satisfiable, full.Satisfiable)
		}
		if ex.Witness != nil {
			certifyWitness(t, label+"/explain", gs.ds.G, gs.ds.Sigma, core.Result{Satisfiable: true, Witness: ex.Witness})
		}
		fmt.Fprintf(w, "sat=%v core=%v frontier=%v probes=%d probe-stats=%s partial=%v\n",
			ex.Satisfiable, ex.Core, ex.Frontier, ex.Probes, goldenStats(ex.ProbeStats), ex.Partial)
	})
}

// goldenEnumerate pins EnumerateFrozen's frozen dimensions and effort,
// root All included.
func goldenEnumerate(t *testing.T, w *strings.Builder, gs goldenSchema) {
	eachGoldenCase(t, w, gs, func(label string, opts core.Options, c string, full core.Result) {
		effort := &core.EffortSink{}
		opts.Effort = effort
		fs, err := core.EnumerateFrozen(gs.ds, c, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if (len(fs) > 0) != full.Satisfiable {
			t.Fatalf("%s: %d frozen dimensions, Satisfiable %v", label, len(fs), full.Satisfiable)
		}
		fmt.Fprintf(w, "effort=%s\n", goldenStats(effort.Stats()))
		for _, f := range fs {
			fmt.Fprintf(w, "%s\n", f.Key())
		}
	})
}

// goldenImplies pins implication answers for every Σ member (always
// implied) and one summarizability constraint per bottom category
// (either way), and certifies every counterexample against Σ ∪ {¬α}.
func goldenImplies(t *testing.T, w *strings.Builder, gs goldenSchema) {
	ds := gs.ds
	cats := ds.G.SortedCategories()
	alphas := append([]constraint.Expr(nil), ds.Sigma...)
	for _, cb := range ds.G.Bottoms() {
		alphas = append(alphas, core.SummarizabilityConstraint(cb, cats[len(cats)-1], cats[:1]))
	}
	for _, v := range goldenVariants {
		for i, alpha := range alphas {
			label := fmt.Sprintf("%s/%s/alpha%d", gs.name, v.name, i)
			implied, res, err := core.Implies(ds, alpha, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fmt.Fprintf(w, "== %s %s\nimplied=%v %s\n", v.name, alpha, implied, goldenResult(res, nil))
			if !implied {
				neg := append(append([]constraint.Expr(nil), ds.Sigma...), constraint.Not{X: alpha})
				certifyWitness(t, label, ds.G, neg, res)
			}
		}
	}
}

// goldenBatch pins the UnsatisfiableCategories, SummarizabilityMatrix and
// Lint answers with the search effort behind each.
func goldenBatch(t *testing.T, w *strings.Builder, gs goldenSchema) {
	ds := gs.ds
	opts := func(effort *core.EffortSink) core.Options {
		return core.Options{Parallelism: 1, Effort: effort}
	}
	unsatEffort := &core.EffortSink{}
	unsat, err := core.UnsatisfiableCategoriesContext(context.Background(), ds, opts(unsatEffort))
	if err != nil {
		t.Fatalf("%s unsat: %v", gs.name, err)
	}
	fmt.Fprintf(w, "== unsatisfiable effort=%s\n%v\n", goldenStats(unsatEffort.Stats()), unsat)
	matrixEffort := &core.EffortSink{}
	m, err := core.SummarizabilityMatrix(ds, opts(matrixEffort))
	if err != nil {
		t.Fatalf("%s matrix: %v", gs.name, err)
	}
	fmt.Fprintf(w, "== matrix effort=%s\n%s", goldenStats(matrixEffort.Stats()), m)
	lintEffort := &core.EffortSink{}
	lint, err := core.Lint(ds, opts(lintEffort))
	if err != nil {
		t.Fatalf("%s lint: %v", gs.name, err)
	}
	fmt.Fprintf(w, "== lint effort=%s redundant=%v\n%s", goldenStats(lintEffort.Stats()), lint.Redundant, lint)
}

func goldenStats(s core.Stats) string {
	return fmt.Sprintf("%d/%d/%d", s.Expansions, s.Checks, s.DeadEnds)
}

// goldenResult renders a Result's verdict, Stats and witness key, or the
// error with the partial Stats of an aborted run.
func goldenResult(res core.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("error=%q stats=%s", err, goldenStats(res.Stats))
	}
	verdict, witness := "unsat", "-"
	if res.Satisfiable {
		verdict = "sat"
		if res.Witness != nil {
			witness = res.Witness.Key()
		}
	}
	return fmt.Sprintf("%s stats=%s witness=%s", verdict, goldenStats(res.Stats), witness)
}

// requireSameGolden checks that a run observed by a tracer, provenance
// collection, a checkpoint sink or a resume reproduces the plain run.
func requireSameGolden(t *testing.T, label string, want, got core.Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if g, w := goldenResult(got, nil), goldenResult(want, nil); g != w {
		t.Fatalf("%s: %s, want %s", label, g, w)
	}
}

// certifyWitness materializes a SAT result's witness and requires the
// instance to pass (C1)-(C7) and satisfy sigma — a check that shares no
// code with the search that produced the witness.
func certifyWitness(t *testing.T, label string, g *schema.Schema, sigma []constraint.Expr, res core.Result) {
	t.Helper()
	if !res.Satisfiable {
		return
	}
	if res.Witness == nil {
		t.Fatalf("%s: SAT without a witness", label)
	}
	inst, err := res.Witness.ToInstance(g, constraint.ConstMap(sigma))
	if err != nil {
		t.Fatalf("%s: witness %s does not materialize: %v", label, res.Witness, err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("%s: witness %s violates (C1)-(C7): %v", label, res.Witness, err)
	}
	if !inst.SatisfiesAll(sigma) {
		t.Fatalf("%s: witness %s violates Σ", label, res.Witness)
	}
}
