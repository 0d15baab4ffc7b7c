package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// ErrBudgetExceeded reports that a DIMSAT run hit its Options.MaxExpansions
// budget before deciding the query. The Result returned alongside it
// carries the partial Stats of the truncated search. Test with errors.Is.
var ErrBudgetExceeded = errors.New("core: DIMSAT expansion budget exceeded")

// Options configure the DIMSAT search. The zero value enables every
// heuristic, runs without budget or shared cache, and sizes worker pools
// to GOMAXPROCS — exactly the pre-context behavior. The ablation switches
// exist for experiment E6.
type Options struct {
	// DisableIntoPruning turns off the Section 5 heuristic that forces
	// into-constrained edges into every expansion, shrinking the subset
	// loop of EXPAND.
	DisableIntoPruning bool
	// DisableStructurePruning turns off the incremental cycle/shortcut
	// pruning of EXPAND; candidate subhierarchies are then rejected only
	// at CHECK time (Proposition 2 still guarantees correctness).
	DisableStructurePruning bool
	// Tracer, when non-nil, observes every EXPAND and CHECK step. A
	// tracer forces sequential execution on the batch surfaces and
	// bypasses the shared cache, since cache hits would skip the steps
	// the tracer wants to see.
	Tracer Tracer

	// MaxExpansions bounds the EXPAND steps of a single DIMSAT run;
	// 0 means unlimited. A run that exhausts the budget returns
	// ErrBudgetExceeded with the partial Stats accumulated so far.
	MaxExpansions int
	// Deadline, when non-zero, bounds the wall-clock time of a single
	// call: the search context is derived with this deadline and the run
	// returns context.DeadlineExceeded once it passes. Prefer passing a
	// context with a deadline to the ...Context entry points; this knob
	// exists for callers of the non-context wrappers.
	Deadline time.Time
	// Parallelism caps the worker pool of the batch surfaces
	// (SummarizabilityMatrix, MinimalSources, UnsatisfiableCategories,
	// Lint): 0 means GOMAXPROCS, 1 forces serial execution.
	Parallelism int
	// Cache, when non-nil, memoizes satisfiability results across calls,
	// keyed by (schema fingerprint, root category). Safe for concurrent
	// use; share one cache across goroutines and requests to solve
	// repeated roots once.
	Cache *SatCache
	// Faults, when non-nil, arms deterministic fault injection at the
	// instrumented sites (see package faults): the sat-cache lookup, each
	// worker-pool task, and each EXPAND step. Nil in production; tests
	// use it to force exact failure schedules.
	Faults *faults.Injector
	// Checkpoint, when non-nil, makes the DIMSAT search durable: its Sink
	// receives a snapshot of the search position every Every EXPAND steps,
	// and a run aborted by cancellation, deadline, budget, or an injected
	// fault error captures its final position in Result.Checkpoint so the
	// caller can continue it later with ResumeSatisfiableContext.
	Checkpoint *Checkpointing
	// Effort, when non-nil, accumulates the Stats of every DIMSAT run
	// executed under these options — including batch fan-outs and aborted
	// runs, excluding cache hits. The server installs one per request to
	// measure per-request search effort.
	Effort *EffortSink
	// Pool, when non-nil, observes the batch-surface worker pool: batch
	// fan-outs, task starts, and task completions with latency.
	Pool PoolObserver

	// Compiled, when non-nil, is a prebuilt compiled form of the schema
	// (see Compile) for the search to run on; when nil, each entry point
	// compiles the schema for that call. It must stem from the same
	// dimension schema passed alongside it — verified by pointer or by
	// fingerprint, with ErrCompiledMismatch on disagreement. Callers that
	// run many queries on one schema compile once and pass the handle.
	Compiled *Compiled

	// Provenance, when set, makes the search accumulate its touched set —
	// the categories, edges and Σ indices it actually consulted — into
	// Result.Provenance. Provenance-enabled runs bypass the shared cache
	// (like traced runs: a hit would skip the steps being observed). Costs
	// one pointer test per marking site when unset.
	Provenance bool
	// ShrinkObserver, when non-nil, observes every unsat-core shrink
	// probe executed by ExplainContext: which Σ index the probe tried to
	// drop, whether it was proven redundant, and the probe's effort and
	// timing. Ignored by every other entry point. The server installs one
	// per /explain request to emit per-probe spans and metrics.
	ShrinkObserver func(ShrinkProbe)
}

// ErrCompiledMismatch reports that Options.Compiled was built from a
// different schema than the one passed to the call. Test with errors.Is.
var ErrCompiledMismatch = errors.New("core: compiled schema does not match the dimension schema")

// compiledFor resolves the compiled form a call runs on. A nil
// opts.Compiled compiles ds for this call (failing with ds.Validate's
// error on an invalid schema); a prebuilt one is accepted by pointer
// identity and otherwise must agree on the schema fingerprint. Batch
// entry points resolve it once and pass it down their fan-out.
func compiledFor(ds *DimensionSchema, opts Options) (*Compiled, error) {
	cs := opts.Compiled
	if cs == nil {
		return Compile(ds)
	}
	if cs.src == ds {
		return cs, nil
	}
	if cs.Fingerprint() != schemaFingerprint(ds) {
		return nil, fmt.Errorf("%w: compiled %.12s.. vs schema %.12s..",
			ErrCompiledMismatch, cs.Fingerprint(), schemaFingerprint(ds))
	}
	return cs, nil
}

// Tracer observes a DIMSAT execution; used to reproduce the Figure 7 trace
// and to debug schemas.
type Tracer interface {
	// Expand is called after ctop has been expanded with parents R.
	Expand(g *frozen.Subhierarchy, ctop string, R []string)
	// Check is called when a complete subhierarchy is tested; induced
	// reports whether it induced a frozen dimension.
	Check(g *frozen.Subhierarchy, induced bool)
}

// Stats counts the work performed by one DIMSAT run.
type Stats struct {
	// Expansions counts EXPAND steps (edge-set extensions explored).
	Expansions int
	// Checks counts complete subhierarchies handed to CHECK.
	Checks int
	// DeadEnds counts expansions abandoned by the pruning rules.
	DeadEnds int
}

// Add accumulates t into s; used to aggregate effort across runs.
func (s *Stats) Add(t Stats) {
	s.Expansions += t.Expansions
	s.Checks += t.Checks
	s.DeadEnds += t.DeadEnds
}

// Result reports the outcome of a satisfiability or implication query.
type Result struct {
	// Satisfiable reports whether the queried category is satisfiable
	// (for Implies, whether the counterexample category was satisfiable).
	Satisfiable bool
	// Witness is a frozen dimension witnessing satisfiability, nil when
	// unsatisfiable.
	Witness *frozen.Frozen
	// Stats describes the search effort.
	Stats Stats
	// Checkpoint, when non-nil, is the resumable position at which the run
	// aborted. It is captured only when Options.Checkpoint is installed and
	// the abort was orderly (context cancellation, deadline, budget, or an
	// injected fault error — not a panic); pass it to
	// ResumeSatisfiableContext to continue the search.
	Checkpoint *Checkpoint
	// Provenance is the touched set of the run, collected only when
	// Options.Provenance is set; nil otherwise. Aborted runs carry the
	// partial touched set accumulated before the abort.
	Provenance *Provenance
}

// Satisfiable decides category satisfiability with the DIMSAT algorithm
// (Figure 6): it explores cycle- and shortcut-free subhierarchies of G
// rooted at c, pruning with into constraints, and tests each complete
// subhierarchy with CHECK (Proposition 2). By Theorem 3, c is satisfiable
// iff some subhierarchy induces a frozen dimension.
//
// Satisfiable is SatisfiableContext with a background context.
func Satisfiable(ds *DimensionSchema, c string, opts Options) (Result, error) {
	return SatisfiableContext(context.Background(), ds, c, opts)
}

// SatisfiableContext is Satisfiable under a context: the search checks
// cancellation and the Options budget before every EXPAND step, so a
// canceled context or an exhausted MaxExpansions budget aborts the run
// within one step, returning ctx.Err() or ErrBudgetExceeded together with
// the partial Stats accumulated so far. With opts.Cache set (and no
// Tracer), results are memoized by (schema fingerprint, root category) and
// concurrent calls for the same key solve it once. A panic anywhere in the
// search is recovered and returned as an *InternalError (ErrInternal).
func SatisfiableContext(ctx context.Context, ds *DimensionSchema, c string, opts Options) (_ Result, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(c) {
		return Result{}, fmt.Errorf("core: unknown category %q", c)
	}
	if c == schema.All {
		// Proposition 1: the trivial instance witnesses satisfiability.
		g := frozen.NewSubhierarchy(schema.All)
		res := Result{Satisfiable: true, Witness: &frozen.Frozen{G: g, Assign: frozen.Assignment{}}}
		if opts.Provenance {
			res.Provenance = trivialProvenance()
		}
		return res, nil
	}
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return Result{}, err
	}
	ctx, cancel := withOptionsDeadline(ctx, opts)
	defer cancel()
	if opts.Cache != nil && opts.Tracer == nil && !opts.Provenance {
		if err := opts.Faults.Hit(faults.SiteCacheLookup); err != nil {
			return Result{}, fmt.Errorf("core: sat-cache: %w", err)
		}
		return opts.Cache.satisfiable(ctx, cs.Fingerprint(), c, func() (Result, error) {
			return runSatisfiable(ctx, cs, c, opts)
		})
	}
	return runSatisfiable(ctx, cs, c, opts)
}

// withOptionsDeadline derives a context carrying opts.Deadline when set.
// The returned cancel func is always non-nil.
func withOptionsDeadline(ctx context.Context, opts Options) (context.Context, context.CancelFunc) {
	if opts.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, opts.Deadline)
}

// EnumerateFrozen lists every frozen dimension of ds with the given root
// using the DIMSAT search (pruned, hence much faster than the naive
// enumeration in package frozen). Assignments are canonicalized to the
// categories mentioned by surviving equality atoms.
//
// EnumerateFrozen is EnumerateFrozenContext with a background context.
func EnumerateFrozen(ds *DimensionSchema, root string, opts Options) ([]*frozen.Frozen, error) {
	return EnumerateFrozenContext(context.Background(), ds, root, opts)
}

// EnumerateFrozenContext is EnumerateFrozen under a context and the
// Options budget; a truncated enumeration returns the error with nil
// results.
func EnumerateFrozenContext(ctx context.Context, ds *DimensionSchema, root string, opts Options) (_ []*frozen.Frozen, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(root) {
		return nil, fmt.Errorf("core: unknown category %q", root)
	}
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return nil, err
	}
	ctx, cancel := withOptionsDeadline(ctx, opts)
	defer cancel()
	s := newCSearch(ctx, cs, root, opts)
	sigma := make([]constraint.Expr, len(s.sigmaIdx))
	for i, idx := range s.sigmaIdx {
		sigma[i] = cs.sigma[idx].expr
	}
	seen := map[string]bool{}
	var out []*frozen.Frozen
	// Every complete subhierarchy counts as a CHECK, as in the
	// satisfiability search; the induced frozen dimensions are collected
	// instead of stopping at the first.
	s.complete = func() bool {
		s.stats.Checks++
		s.epoch++
		if !s.acyclic() || !s.shortcutFree() {
			return true
		}
		g := s.materialize()
		residual, ok := frozen.Circle(sigma, g)
		if !ok {
			return true
		}
		for _, a := range frozen.EnumerateAssignments(residual, cs.consts) {
			f := &frozen.Frozen{G: g, Assign: a}
			if !seen[f.Key()] {
				seen[f.Key()] = true
				out = append(out, f)
			}
		}
		return true
	}
	s.walkFrom(nil, 0)
	opts.Effort.add(s.stats)
	if s.err != nil {
		return nil, s.err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}
