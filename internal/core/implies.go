package core

import (
	"context"
	"fmt"

	"olapdim/internal/constraint"
	"olapdim/internal/instance"
	"olapdim/internal/schema"
)

// Implies decides ds ⊨ alpha by the reduction of Theorem 2: alpha is
// implied iff its root category is unsatisfiable in (G, Σ ∪ {¬alpha}).
// The returned Result carries the counterexample witness (a frozen
// dimension violating alpha) when implication fails, and the search stats
// either way. Constraints with no atoms are propositional constants and
// are decided directly.
//
// Implies is ImpliesContext with a background context.
func Implies(ds *DimensionSchema, alpha constraint.Expr, opts Options) (bool, Result, error) {
	return ImpliesContext(context.Background(), ds, alpha, opts)
}

// ImpliesContext is Implies under a context and the Options budget; the
// underlying DIMSAT run aborts within one EXPAND step of cancellation,
// returning ctx.Err() or ErrBudgetExceeded with the partial Stats in the
// Result.
func ImpliesContext(ctx context.Context, ds *DimensionSchema, alpha constraint.Expr, opts Options) (_ bool, _ Result, err error) {
	defer recoverAsInternal(&err)
	root, verdict, decided, err := reductionRoot(ds, alpha)
	if err != nil {
		return false, Result{}, err
	}
	if decided {
		return verdict, Result{}, nil
	}
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return false, Result{}, err
	}
	// A cached verdict needs no search, so deriving the compiled neg
	// schema up front would waste a compile on every hit; peek the cache
	// and derive only when a search will actually run. Traced and
	// provenance-enabled runs bypass the cache and fault-armed runs must
	// reach the injected cache-lookup site, so all three take the
	// straight path.
	if opts.Cache != nil && opts.Tracer == nil && opts.Faults == nil && !opts.Provenance {
		if res, ok := opts.Cache.peek(cs.negFingerprint(constraint.Not{X: alpha}), root); ok {
			return !res.Satisfiable, res, nil
		}
	}
	// Derive compiles the ImpliesReduction neg schema (same content, same
	// fingerprint) from cs's tables, analysing only ¬alpha, with a
	// per-alpha cache; when the peek above ran, Derive reuses its hash as
	// the derived fingerprint.
	dcs, err := cs.Derive(constraint.Not{X: alpha})
	if err != nil {
		return false, Result{}, err
	}
	opts.Compiled = dcs
	res, err := SatisfiableContext(ctx, dcs.Source(), root, opts)
	if err != nil {
		return false, res, err
	}
	return !res.Satisfiable, res, nil
}

// ImpliesReduction builds the Theorem 2 reduction for ds ⊨ alpha without
// running the search: alpha is implied iff root is unsatisfiable in neg =
// (G, Σ ∪ {¬alpha}). Constraints with no atoms are propositional constants
// and come back decided (decided true, verdict the truth value) with no
// search to run. The reduction is deterministic, so callers that suspend
// the satisfiability run on neg (checkpointed jobs) can rebuild the same
// neg schema — same fingerprint — and resume against it.
func ImpliesReduction(ds *DimensionSchema, alpha constraint.Expr) (neg *DimensionSchema, root string, verdict, decided bool, err error) {
	root, verdict, decided, err = reductionRoot(ds, alpha)
	if err != nil || decided {
		return nil, "", verdict, decided, err
	}
	neg = &DimensionSchema{
		G:     ds.G,
		Sigma: append(append([]constraint.Expr(nil), ds.Sigma...), constraint.Not{X: alpha}),
	}
	return neg, root, false, false, nil
}

// reductionRoot is ImpliesReduction without building neg: it validates
// alpha against ds and returns the root whose satisfiability in neg
// decides the implication, or the verdict of an atom-free alpha.
func reductionRoot(ds *DimensionSchema, alpha constraint.Expr) (root string, verdict, decided bool, err error) {
	if err := constraint.Validate(alpha, ds.G); err != nil {
		return "", false, false, err
	}
	root, err = constraint.Root(alpha)
	if err != nil {
		return "", false, false, err
	}
	if root == "" {
		return "", constraint.Eval(alpha, nil), true, nil
	}
	return root, false, false, nil
}

// SummarizabilityReport details a schema-level summarizability test: one
// entry per bottom category with the Theorem 1 constraint tested and the
// outcome.
type SummarizabilityReport struct {
	Target string
	From   []string
	// PerBottom lists, for each bottom category, the Theorem 1 constraint
	// and whether the schema implies it.
	PerBottom []BottomResult
}

// BottomResult is the outcome of the Theorem 1 test for one bottom
// category.
type BottomResult struct {
	Bottom     string
	Constraint constraint.Expr
	Implied    bool
	// Counterexample is a frozen dimension violating the constraint when
	// Implied is false.
	Counterexample Result
}

// Summarizable reports whether the schema implies the Theorem 1
// characterization for every bottom category: the cube view for c can then
// be computed from the cube views for S in every instance over ds.
func (r *SummarizabilityReport) Summarizable() bool {
	for _, b := range r.PerBottom {
		if !b.Implied {
			return false
		}
	}
	return true
}

// Summarizable tests whether category c is summarizable from the set S in
// every dimension instance over ds, by testing for each bottom category cb
// the implication ds ⊨ cb.c ⊃ ⊙_{ci ∈ S} cb.ci.c (Theorem 1).
//
// Summarizable is SummarizableContext with a background context.
func Summarizable(ds *DimensionSchema, c string, S []string, opts Options) (*SummarizabilityReport, error) {
	return SummarizableContext(context.Background(), ds, c, S, opts)
}

// SummarizableContext is Summarizable under a context and the Options
// budget (applied per bottom-category implication).
func SummarizableContext(ctx context.Context, ds *DimensionSchema, c string, S []string, opts Options) (_ *SummarizabilityReport, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(c) {
		return nil, fmt.Errorf("core: unknown category %q", c)
	}
	for _, ci := range S {
		if !ds.G.HasCategory(ci) {
			return nil, fmt.Errorf("core: unknown category %q in source set", ci)
		}
	}
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	rep := &SummarizabilityReport{Target: c, From: append([]string(nil), S...)}
	for _, cb := range ds.G.Bottoms() {
		e := SummarizabilityConstraint(cb, c, S)
		implied, res, err := ImpliesContext(ctx, ds, e, opts)
		if err != nil {
			return nil, err
		}
		rep.PerBottom = append(rep.PerBottom, BottomResult{
			Bottom:         cb,
			Constraint:     e,
			Implied:        implied,
			Counterexample: res,
		})
	}
	return rep, nil
}

// SummarizableInInstance tests Theorem 1 on a single dimension instance:
// category c is summarizable from S in d iff for every bottom category cb,
// d ⊨ cb.c ⊃ ⊙_{ci ∈ S} cb.ci.c. Package olap cross-validates this
// characterization against Definition 6 with actual fact tables.
func SummarizableInInstance(d *instance.Instance, c string, S []string) bool {
	for _, cb := range d.Schema().Bottoms() {
		if cb == schema.All {
			continue
		}
		if !d.Satisfies(SummarizabilityConstraint(cb, c, S)) {
			return false
		}
	}
	return true
}

// CategorySatisfiable is a convenience wrapper returning only the Boolean
// outcome of Satisfiable.
func CategorySatisfiable(ds *DimensionSchema, c string) (bool, error) {
	res, err := Satisfiable(ds, c, Options{})
	if err != nil {
		return false, err
	}
	return res.Satisfiable, nil
}

// UnsatisfiableCategories returns the categories of ds that admit no
// members in any instance. The paper suggests dropping these from the
// schema for a cleaner representation (Section 4).
//
// UnsatisfiableCategories is UnsatisfiableCategoriesContext with a
// background context and default options.
func UnsatisfiableCategories(ds *DimensionSchema) ([]string, error) {
	return UnsatisfiableCategoriesContext(context.Background(), ds, Options{})
}

// UnsatisfiableCategoriesContext decides satisfiability for every category
// of ds on a worker pool (sized by opts.Parallelism) and returns the
// unsatisfiable ones, sorted.
func UnsatisfiableCategoriesContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ []string, err error) {
	defer recoverAsInternal(&err)
	cats := ds.G.SortedCategories()
	sat, err := satisfiabilityOf(ctx, ds, cats, opts)
	if err != nil {
		return nil, err
	}
	var out []string
	for i, c := range cats {
		if !sat[i] {
			out = append(out, c)
		}
	}
	return out, nil
}

// CategorySatisfiabilityContext decides satisfiability for every category
// of ds in parallel, returning a map from category to outcome. The
// dimsatd /categories endpoint and design tooling use it to survey a
// whole schema in one bounded fan-out.
func CategorySatisfiabilityContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ map[string]bool, err error) {
	defer recoverAsInternal(&err)
	cats := ds.G.SortedCategories()
	sat, err := satisfiabilityOf(ctx, ds, cats, opts)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(cats))
	for i, c := range cats {
		out[c] = sat[i]
	}
	return out, nil
}

// satisfiabilityOf fans independent per-category DIMSAT calls out over the
// Options worker pool.
func satisfiabilityOf(ctx context.Context, ds *DimensionSchema, cats []string, opts Options) ([]bool, error) {
	var err error
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	sat := make([]bool, len(cats))
	err = runPool(ctx, len(cats), opts, func(ctx context.Context, i int) error {
		res, err := SatisfiableContext(ctx, ds, cats[i], opts)
		if err != nil {
			return err
		}
		sat[i] = res.Satisfiable
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sat, nil
}
