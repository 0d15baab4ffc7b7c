package core

import (
	"context"
	"fmt"
	"strings"

	"olapdim/internal/constraint"
)

// LintReport collects design-stage findings about a dimension schema.
type LintReport struct {
	// Unsatisfiable lists categories no instance can populate (the paper
	// suggests dropping them, Section 4).
	Unsatisfiable []string
	// Redundant lists indices into Σ of constraints implied by the rest:
	// removing any single one of them leaves the schema's meaning intact.
	Redundant []int
	// Shortcuts lists the schema-level shortcut pairs, worth double
	// checking since instances may never realize both the edge and the
	// path (condition C5).
	Shortcuts [][2]string
	// Cyclic reports whether the hierarchy schema contains cycles (legal,
	// Example 4, but worth surfacing).
	Cyclic bool
}

// Clean reports whether the linter found nothing to flag.
func (r *LintReport) Clean() bool {
	return len(r.Unsatisfiable) == 0 && len(r.Redundant) == 0
}

func (r *LintReport) String() string {
	var b strings.Builder
	for _, c := range r.Unsatisfiable {
		fmt.Fprintf(&b, "unsatisfiable category: %s\n", c)
	}
	for _, i := range r.Redundant {
		fmt.Fprintf(&b, "redundant constraint #%d (implied by the others)\n", i+1)
	}
	for _, sc := range r.Shortcuts {
		fmt.Fprintf(&b, "note: shortcut %s -> %s\n", sc[0], sc[1])
	}
	if r.Cyclic {
		fmt.Fprintf(&b, "note: hierarchy schema contains cycles\n")
	}
	if r.Clean() {
		b.WriteString("no problems found\n")
	}
	return b.String()
}

// Lint analyzes a dimension schema for design problems: dead categories,
// constraints already implied by the rest of Σ (each tested by Theorem 2
// with the constraint removed), schema shortcuts and cycles.
//
// Lint is LintContext with a background context.
func Lint(ds *DimensionSchema, opts Options) (*LintReport, error) {
	return LintContext(context.Background(), ds, opts)
}

// LintContext is Lint under a context. The per-category satisfiability
// sweep and the per-constraint redundancy tests are independent DIMSAT
// queries and run on the Options worker pool.
func LintContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *LintReport, err error) {
	defer recoverAsInternal(&err)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	rep := &LintReport{
		Shortcuts: ds.G.Shortcuts(),
		Cyclic:    ds.G.HasCycle(),
	}
	rep.Unsatisfiable, err = UnsatisfiableCategoriesContext(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	redundant := make([]bool, len(ds.Sigma))
	err = runPool(ctx, len(ds.Sigma), opts, func(ctx context.Context, i int) error {
		rest := make([]constraint.Expr, 0, len(ds.Sigma)-1)
		rest = append(rest, ds.Sigma[:i]...)
		rest = append(rest, ds.Sigma[i+1:]...)
		sub := NewDimensionSchema(ds.G, rest...)
		// Each redundancy probe runs against a different sub-schema, which
		// opts.Compiled (pinned to ds) does not describe: the probe
		// compiles the sub-schema for itself.
		subOpts := opts
		subOpts.Compiled = nil
		implied, _, err := ImpliesContext(ctx, sub, ds.Sigma[i], subOpts)
		if err != nil {
			return err
		}
		redundant[i] = implied
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, ok := range redundant {
		if ok {
			rep.Redundant = append(rep.Redundant, i)
		}
	}
	return rep, nil
}
