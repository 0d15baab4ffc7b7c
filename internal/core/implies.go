package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
//
// It peeks the cache before deriving the reduction schema
// (satisfiableDerived): a cached verdict needs no search, so deriving up
// front would waste a compile on every hit. Every call that searches
// derives that schema anew from the compiled handle.
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
	res, err := cs.satisfiableDerived(ctx, nil, constraint.Not{X: alpha}, root, opts)
	if err != nil {
		return false, res, err
	}
	return !res.Satisfiable, res, nil
}

// satisfiableDerived decides root in the schema derive(keep, extra)
// builds from cs: the Theorem 2 reduction for ImpliesContext, a shrink
// probe's subset for ExplainContext. It first peeks opts.Cache by that
// schema's fingerprint, hashed from cs's rendering pieces, so a cached
// verdict costs no derive; only a miss derives, with the fingerprint
// preset, and searches.
func (cs *Compiled) satisfiableDerived(ctx context.Context, keep []int, extra constraint.Expr, root string, opts Options) (Result, error) {
	fp := ""
	// Traced and provenance-enabled runs bypass the cache and fault-armed
	// runs must reach the injected cache-lookup site, so all three take
	// the straight path.
	if opts.Cache != nil && opts.Tracer == nil && opts.Faults == nil && !opts.Provenance {
		fp = cs.derivedFingerprint(keep, extra)
		if e := opts.Cache.peek(satCacheKey{schema: fp, root: root}); e != nil {
			return e.verdict(), nil
		}
	}
	d, err := cs.derive(keep, extra)
	if err != nil {
		return Result{}, err
	}
	d.fp = fp
	opts.Compiled = d
	return SatisfiableContext(ctx, d.Source(), root, opts)
}

// ImpliesReduction builds the Theorem 2 reduction for cs ⊨ alpha without
// running the search: alpha is implied iff root is unsatisfiable in neg,
// the schema (G, Σ ∪ {¬alpha}) derived from cs's tables. A constraint
// with no atoms is a propositional constant and comes back decided
// (decided true, verdict its truth value) with no search to run and no
// neg. The reduction is deterministic, so a caller that suspends the
// satisfiability run on neg (a checkpointed job) can rebuild a schema
// with the same fingerprint — from cs or from any handle compiled from
// the same schema text — and resume against it.
func (cs *Compiled) ImpliesReduction(alpha constraint.Expr) (neg *Compiled, root string, verdict, decided bool, err error) {
	root, verdict, decided, err = reductionRoot(cs.src, alpha)
	if err != nil || decided {
		return nil, "", verdict, decided, err
	}
	not := constraint.Not{X: alpha}
	if neg, err = cs.derive(nil, not); err != nil {
		return nil, "", false, false, err
	}
	// When a cache peek has already hashed the reduction schema
	// (negFingerprint), neg takes that hash instead of hashing again.
	neg.fp, _ = cs.cachedNegFingerprint(not.String())
	return neg, root, false, false, nil
}

// reductionRoot validates alpha against ds and returns the root whose
// satisfiability in (G, Σ ∪ {¬alpha}) decides the implication, or the
// verdict of an atom-free alpha.
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
	// Implied is false, with zero Stats: the search effort behind it goes
	// to Options.Effort, as the bottom category's walk.
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

// errRepeatedSource rejects a source list naming a category twice:
// Theorem 1's S is a set, and ⊙ over a list with a repeated atom is
// never "exactly one".
var errRepeatedSource = errors.New("core: repeated category in source set")

// Summarizable tests whether category c is summarizable from the set S in
// every dimension instance over ds, by testing for each bottom category cb
// the implication ds ⊨ cb.c ⊃ ⊙_{ci ∈ S} cb.ci.c (Theorem 1).
//
// Summarizable is SummarizableContext with a background context.
func Summarizable(ds *DimensionSchema, c string, S []string, opts Options) (*SummarizabilityReport, error) {
	return SummarizableContext(context.Background(), ds, c, S, opts)
}

// SummarizableContext is Summarizable under a context and the Options
// budget (applied per bottom walk). It decides every bottom category on
// the walk the summarizability matrix reads (walkBottoms): the
// implication holds iff |S ∩ R| = 1 for every reaching set R of c, and
// otherwise its counterexample is the induced subhierarchy that first
// added the first failing R — the first one the implication's Theorem 2
// search would find, since that search visits the walk's subhierarchies
// in the same order. A walk cut by the budget or the deadline before any
// failing R fails the call with that error. With opts.Cache set, the
// walks are retained there, so a repeated call, or one after the matrix
// or MinimalSources, runs no search; a retained walk answers whatever
// the budget and deadline.
func SummarizableContext(ctx context.Context, ds *DimensionSchema, c string, S []string, opts Options) (_ *SummarizabilityReport, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(c) {
		return nil, fmt.Errorf("core: unknown category %q", c)
	}
	for i, ci := range S {
		if !ds.G.HasCategory(ci) {
			return nil, fmt.Errorf("core: unknown category %q in source set", ci)
		}
		if slices.Contains(S[:i], ci) {
			return nil, fmt.Errorf("%w: %q", errRepeatedSource, ci)
		}
	}
	walks, cs, err := walkBottoms(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	src := make([]uint64, cs.words)
	for _, ci := range S {
		bitSet(src, cs.ids[ci])
	}
	rep := &SummarizabilityReport{Target: c, From: append([]string(nil), S...)}
	for i, cb := range ds.G.Bottoms() {
		b := BottomResult{Bottom: cb, Constraint: SummarizabilityConstraint(cb, c, S), Implied: true}
		if g := walks[i].falsifier(cs.ids[c], src); g >= 0 {
			b.Implied = false
			b.Counterexample = Result{Satisfiable: true, Witness: walks[i].witness(cs, cb, g)}
		} else if walks[i].err != nil {
			return nil, walks[i].err
		}
		rep.PerBottom = append(rep.PerBottom, b)
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
