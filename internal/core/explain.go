package core

import (
	"context"
	"fmt"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
)

// Explanation is the verdict provenance assembled by ExplainContext: the
// satisfiability outcome plus why it came out that way. SAT verdicts
// carry the witness and touched set; UNSAT verdicts additionally carry a
// minimal unsat core and the frontier categories where every branch
// died.
type Explanation struct {
	// Satisfiable is the verdict for the queried category.
	Satisfiable bool
	// Witness is a frozen dimension witnessing satisfiability; nil when
	// unsatisfiable.
	Witness *frozen.Frozen
	// Provenance is the touched set of the initial (full-Σ) run.
	Provenance *Provenance
	// Core holds the indices into the schema's Σ of a minimal subset
	// still forcing UNSAT: the subset is unsatisfiable as-is and
	// removing any single member makes the category satisfiable. Empty
	// (with Satisfiable false) when the UNSAT verdict is structural —
	// no constraint subset is needed because no acyclic, shortcut-free
	// subhierarchy rooted at the category reaches All at all. When
	// Partial is set the core is the not-yet-minimal working set at the
	// point the budget ran out: still UNSAT-forcing, possibly larger
	// than minimal. Nil when Satisfiable is true.
	Core []int
	// CoreExprs are the constraints at the Core indices, aligned.
	CoreExprs []constraint.Expr
	// Frontier is Provenance.Frontier, surfaced for UNSAT diagnosis: the
	// categories at which the search's branches died.
	Frontier []string
	// Probes counts the shrink probes executed (one Satisfiable run per
	// deletion attempt; cache hits count as probes with zero stats).
	Probes int
	// ProbeStats is the cumulative search effort of all shrink probes,
	// excluding the initial run.
	ProbeStats Stats
	// Partial reports that shrinking stopped early — budget, deadline,
	// cancellation or an injected fault — and Core is unminimized. The
	// typed error (ErrBudgetExceeded, context.DeadlineExceeded, ...) is
	// returned alongside.
	Partial bool
}

// ShrinkProbe describes one unsat-core deletion probe to
// Options.ShrinkObserver.
type ShrinkProbe struct {
	// Index is the Σ index the probe tried to drop.
	Index int
	// Removed reports that the probe proved the constraint redundant
	// (the remaining subset is still UNSAT).
	Removed bool
	// Stats is the probe's search effort (zero on a SatCache hit).
	Stats Stats
	// Start and Duration time the probe.
	Start    time.Time
	Duration time.Duration
	// Err is the probe's error when it aborted (budget, deadline,
	// cancellation, injected fault); nil for decided probes.
	Err error
}

// Explain is ExplainContext with a background context.
func Explain(ds *DimensionSchema, c string, opts Options) (*Explanation, error) {
	return ExplainContext(context.Background(), ds, c, opts)
}

// ExplainContext explains the satisfiability verdict for category c: it
// runs SatisfiableContext with provenance enabled and, on UNSAT, shrinks
// the relevant Σ constraints to a minimal unsat core by deletion — for
// each member, re-deciding satisfiability without it and dropping it
// when the verdict stays UNSAT. Removing constraints can only grow the
// set of frozen dimensions, so the surviving set is minimal: every
// member's removal flips the verdict to SAT.
//
// Probes run through the same Options as the initial query: with
// opts.Cache they are memoized by (subset fingerprint, root) across
// calls, and a probe the cache answers derives nothing. Every other
// probe derives its subset's schema from the compiled handle's tables,
// one compile per probe. opts.MaxExpansions bounds the
// total EXPAND budget of the whole call (initial run plus probes) and
// opts.Deadline / ctx bound its wall clock; an exhausted budget returns
// the current working set as a partial core together with the typed
// error.
func ExplainContext(ctx context.Context, ds *DimensionSchema, c string, opts Options) (_ *Explanation, err error) {
	defer recoverAsInternal(&err)
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return &Explanation{Partial: true}, err
	}
	opts.Compiled = cs
	iopts := opts
	iopts.Provenance = true
	res, err := SatisfiableContext(ctx, ds, c, iopts)
	if err != nil {
		return &Explanation{Provenance: res.Provenance, Partial: true}, err
	}
	ex := &Explanation{
		Satisfiable: res.Satisfiable,
		Witness:     res.Witness,
		Provenance:  res.Provenance,
	}
	if res.Provenance != nil {
		ex.Frontier = res.Provenance.Frontier
	}
	if res.Satisfiable {
		return ex, nil
	}

	// Deletion-based shrinking over the constraints a search rooted at c
	// can see (anything else is vacuous on every candidate subhierarchy
	// and cannot belong to a core). working always satisfies the
	// invariant UNSAT(working); each iteration probes working minus one
	// member.
	spent := res.Stats.Expansions
	var working []int
	for _, idx := range cs.sigmaFor[cs.ids[c]] {
		working = append(working, int(idx))
	}
	popts := opts
	popts.Provenance = false
	popts.Tracer = nil
	popts.Checkpoint = nil
	popts.ShrinkObserver = nil
	for pos := 0; pos < len(working); {
		idx := working[pos]
		if ferr := opts.Faults.Hit(faults.SiteCoreShrink); ferr != nil {
			setCore(ex, ds, working)
			ex.Partial = true
			return ex, fmt.Errorf("core: shrink: %w", ferr)
		}
		if opts.MaxExpansions > 0 {
			remaining := opts.MaxExpansions - spent
			if remaining <= 0 {
				setCore(ex, ds, working)
				ex.Partial = true
				return ex, fmt.Errorf("%w after %d expansions", ErrBudgetExceeded, spent)
			}
			popts.MaxExpansions = remaining
		}
		// Non-nil even when empty: derive reads a nil keep as all of Σ.
		candidate := append(append(make([]int, 0, len(working)-1), working[:pos]...), working[pos+1:]...)
		start := time.Now()
		pres, perr := cs.satisfiableDerived(ctx, candidate, nil, c, popts)
		spent += pres.Stats.Expansions
		ex.Probes++
		ex.ProbeStats.Add(pres.Stats)
		removed := perr == nil && !pres.Satisfiable
		if opts.ShrinkObserver != nil {
			opts.ShrinkObserver(ShrinkProbe{
				Index:    idx,
				Removed:  removed,
				Stats:    pres.Stats,
				Start:    start,
				Duration: time.Since(start),
				Err:      perr,
			})
		}
		if perr != nil {
			setCore(ex, ds, working)
			ex.Partial = true
			return ex, perr
		}
		if removed {
			working = candidate
		} else {
			pos++
		}
	}
	setCore(ex, ds, working)
	return ex, nil
}

func setCore(ex *Explanation, ds *DimensionSchema, working []int) {
	ex.Core = append([]int(nil), working...)
	for _, i := range working {
		ex.CoreExprs = append(ex.CoreExprs, ds.Sigma[i])
	}
}
