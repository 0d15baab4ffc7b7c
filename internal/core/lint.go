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
// queries and run on the Options worker pool. Each redundancy test
// derives its schema from the compiled form (opts.Compiled, or ds
// compiled for this call), so a prebuilt handle's Stats count one
// compile per constraint tested.
func LintContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *LintReport, err error) {
	defer recoverAsInternal(&err)
	// compiledFor validates ds, or accepts a handle compiled from a schema
	// with the same content, which validated then.
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
	cs := opts.Compiled
	redundant := make([]bool, len(ds.Sigma))
	err = runPool(ctx, len(ds.Sigma), opts, func(ctx context.Context, i int) error {
		// Theorem 2 with σᵢ removed: σᵢ is redundant iff its root is
		// unsatisfiable in (G, Σ∖{σᵢ} ∪ {¬σᵢ}), derived from cs's tables.
		// A σᵢ with no atoms is a propositional constant.
		root := cs.sigma[i].root
		if root < 0 {
			redundant[i] = constraint.Eval(ds.Sigma[i], nil)
			return nil
		}
		keep := make([]int, 0, len(ds.Sigma)-1)
		for j := range ds.Sigma {
			if j != i {
				keep = append(keep, j)
			}
		}
		probe, err := cs.derive(keep, constraint.Not{X: ds.Sigma[i]})
		if err != nil {
			return err
		}
		probeOpts := opts
		probeOpts.Compiled = probe
		res, err := SatisfiableContext(ctx, probe.Source(), cs.names[root], probeOpts)
		if err != nil {
			return err
		}
		redundant[i] = !res.Satisfiable
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
