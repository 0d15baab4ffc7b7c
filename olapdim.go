// Package olapdim reasons about heterogeneous OLAP dimensions with
// dimension constraints, implementing Hurtado & Mendelzon, "OLAP Dimension
// Constraints" (PODS 2002).
//
// A dimension schema is a hierarchy graph of categories (Store -> City ->
// Country -> All) plus dimension constraints: Boolean combinations of path
// atoms (Store_City_Province), composed rollup atoms (Store.SaleRegion),
// through atoms (Store.City.Country) and equality atoms
// (Store.Country="Canada"). The package answers three questions about such
// schemas, each valid for every dimension instance the schema admits:
//
//   - Satisfiable: can a category ever hold members? (Theorem 3: yes iff a
//     frozen dimension with that root exists; found by the DIMSAT
//     backtracking search of Section 5.)
//   - Implies: does every instance satisfy a given constraint?
//     (Theorem 2: yes iff the root is unsatisfiable with the negation.)
//   - Summarizable: can the cube view for a category be computed exactly
//     from precomputed cube views of other categories? (Theorem 1 reduces
//     this to constraint implication.)
//
// # Quick start
//
//	ds, err := olapdim.Parse(`
//	    schema location
//	    edge Store -> City -> Country -> All
//	    constraint Store_City
//	`)
//	ctx := context.Background()
//	res, err := olapdim.SatisfiableContext(ctx, ds, "Store", olapdim.Options{})
//	rep, err := olapdim.SummarizableContext(ctx, ds, "Country", []string{"City"}, olapdim.Options{})
//
// # Compiled schemas and the migration to the Compile API
//
// Compile builds a one-time compiled form of a dimension schema —
// category names interned to dense integers, the hierarchy and its
// reachability closure packed into bitsets, constraints pre-analyzed per
// root — so the EXPAND/CHECK steps of DIMSAT become bitwise operations
// over pooled frames with near-zero per-step allocation:
//
//	cs, err := olapdim.Compile(ds)
//	res, err := olapdim.SatisfiableContext(ctx, ds, "Store", olapdim.Options{Compiled: cs})
//
// Every entry point runs on the compiled form. With Options.Compiled nil
// it compiles the schema for that call (an invalid schema gets the error
// of DimensionSchema.Validate); with a CompiledSchema in
// Options.Compiled it reuses it. Migrate callers that run many queries
// on one schema by compiling once where the schema is built and
// threading the CompiledSchema through the Options they already pass.
// A CompiledSchema pinned to one schema is refused with
// ErrCompiledMismatch when passed alongside a different one.
//
// # Contexts, budgets and the migration from the context-free API
//
// DIMSAT is NP-complete (Theorem 4), so every reasoning entry point has a
// context-aware variant — SatisfiableContext, ImpliesContext,
// SummarizableContext, EnumerateFrozenContext, SummarizabilityMatrixContext,
// MinimalSourcesContext, UnsatisfiableCategoriesContext, LintContext and
// SelectViewsContext — that checks cancellation before every EXPAND step
// and honors the Options budget (MaxExpansions, Deadline). A canceled or
// over-budget run returns ctx.Err() or ErrBudgetExceeded together with the
// partial search Stats. The original context-free names remain as thin
// wrappers over context.Background() and behave exactly as before; migrate
// by switching to the ...Context name and passing your request context.
// Batch surfaces (matrix, minimal sources, category sweeps, lint) fan out
// over a worker pool sized by Options.Parallelism, and a shared
// Options.Cache memoizes satisfiability across calls and goroutines. The
// matrix and minimal sources run one walk per bottom category instead of
// one search per question, and the cache retains each finished walk, so
// a repeated matrix or minimal-sources call runs no search.
//
// # Robustness
//
// Every entry point contains panics: a panic anywhere in the search — a
// worker-pool task, a cache compute, the facade itself — is recovered and
// returned as an *InternalError matching ErrInternal, so a poisoned input
// can never crash the caller. SummarizabilityMatrixPartialContext degrades
// instead of failing: cells left undecided by a walk that exhausts the
// budget or deadline are reported in Matrix.Unknown. For robustness tests, Options.Faults
// accepts a deterministic fault injector (NewFaultInjector) that forces
// errors, latency, or panics at the engine's instrumented sites. See
// docs/OPERATIONS.md for the serving-tier failure model built on these.
//
// The subpackages under internal implement the full system: hierarchy
// schemas, dimension instances with the (C1)-(C7) conditions, the
// constraint language and parser, frozen dimensions, DIMSAT, an OLAP
// substrate (fact tables, cube views, aggregate navigation), related-work
// baseline transformations, and workload generators. This root package is
// the stable facade.
package olapdim

import (
	"context"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
	"olapdim/internal/jobs"
	"olapdim/internal/parser"
	"olapdim/internal/schema"
)

// DimensionSchema is a dimension schema ds = (G, Σ): a hierarchy schema
// plus dimension constraints.
type DimensionSchema = core.DimensionSchema

// Options configure the DIMSAT search; the zero value enables every
// heuristic, runs unbudgeted and uncached, compiles the schema per call,
// and sizes worker pools to GOMAXPROCS.
type Options = core.Options

// Result reports a satisfiability or implication outcome with its witness
// frozen dimension and search statistics.
type Result = core.Result

// Stats counts DIMSAT search effort.
type Stats = core.Stats

// Provenance is the touched set of a DIMSAT run — the categories, edges
// and Σ indices the search actually consulted — collected into
// Result.Provenance when Options.Provenance is set. Provenance-enabled
// runs bypass the shared cache, like traced runs.
type Provenance = core.Provenance

// Explanation is the verdict provenance assembled by Explain: the
// outcome plus witness or minimal unsat core, touched set, frontier and
// shrink-probe effort.
type Explanation = core.Explanation

// ShrinkProbe describes one unsat-core deletion probe to
// Options.ShrinkObserver.
type ShrinkProbe = core.ShrinkProbe

// SatCache memoizes satisfiability results and finished bottom-category
// walks across calls and goroutines, keyed by schema fingerprint and
// category. Install one in Options.Cache to solve repeated roots, and
// walk each bottom category, once.
type SatCache = core.SatCache

// CacheStats snapshots a SatCache: hit/miss counters, retained entries
// and cumulative search effort, walks included.
type CacheStats = core.CacheStats

// NewSatCache returns an empty concurrency-safe satisfiability cache.
func NewSatCache() *SatCache { return core.NewSatCache() }

// NewSatCacheSize returns a bounded satisfiability cache retaining at
// most maxEntries computed results, verdicts and walks alike (oldest
// evicted first); maxEntries <= 0 means unbounded. The right shape for
// servers fed a stream of distinct schemas.
func NewSatCacheSize(maxEntries int) *SatCache { return core.NewSatCacheSize(maxEntries) }

// EffortSink accumulates the search Stats of every DIMSAT run made with
// it installed in Options.Effort — a concurrency-safe per-request or
// per-batch effort meter. Cache hits contribute nothing: the effort was
// attributed to the run that computed the entry.
type EffortSink = core.EffortSink

// StructuredTracer extends Tracer observation with depth- and
// heuristic-carrying callbacks (EXPAND, CHECK, pruning dead ends).
// Install any Options.Tracer that also implements this interface and
// the search feeds both. A traced search skips the SatCache and runs
// serially, so tracing is an explicit opt-in of the caller.
type StructuredTracer = core.StructuredTracer

// SchemaFingerprint canonically identifies a dimension schema by the
// SHA-256 of its textual rendering — the key used by SatCache,
// Checkpoint pinning, and the serving layer's traces and slow-search
// log lines.
func SchemaFingerprint(ds *DimensionSchema) string { return core.Fingerprint(ds) }

// ErrBudgetExceeded reports that a search hit its Options.MaxExpansions
// budget; test with errors.Is.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// ErrInternal is the sentinel matched by every InternalError: a panic
// recovered inside the reasoner and converted to an error, so library
// consumers never crash on a poisoned input. Test with errors.Is.
var ErrInternal = core.ErrInternal

// InternalError wraps a panic recovered at a containment boundary (a
// worker-pool task, a cache compute, or a ...Context entry point),
// carrying the panic value and the goroutine stack.
type InternalError = core.InternalError

// Fault injection (package internal/faults): seeded, deterministic
// error/latency/panic injection at the reasoner's instrumented sites, for
// robustness tests. Install an injector in Options.Faults.

// FaultInjector evaluates fault rules at the instrumented sites; nil
// injects nothing.
type FaultInjector = faults.Injector

// FaultRule arms one fault (error, latency or panic) at one site.
type FaultRule = faults.Rule

// Fault kinds and injection sites.
const (
	FaultError       = faults.Error
	FaultLatency     = faults.Latency
	FaultPanic       = faults.Panic
	SiteCacheLookup  = faults.SiteCacheLookup
	SitePoolTask     = faults.SitePoolTask
	SiteDimsatExpand = faults.SiteExpand
	SiteCoreShrink   = faults.SiteCoreShrink
)

// NewFaultInjector builds a deterministic fault injector (seed 1).
func NewFaultInjector(rules ...FaultRule) *FaultInjector { return faults.New(rules...) }

// NewSeededFaultInjector builds a fault injector whose probabilistic
// rules draw from per-site generators derived from seed. Both
// constructors panic on a rule naming an unknown injection site (see
// CheckFaultRules for the error-returning validation).
func NewSeededFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return faults.NewSeeded(seed, rules...)
}

// CheckFaultRules validates a fault plan without installing it: an error
// wrapping ErrUnknownFaultSite is returned when a rule names an injection
// site no instrumented package owns.
func CheckFaultRules(rules ...FaultRule) error { return faults.Check(rules...) }

// ErrUnknownFaultSite reports a fault rule naming an unregistered
// injection site; test with errors.Is.
var ErrUnknownFaultSite = faults.ErrUnknownSite

// Durable, resumable search (package internal/core + internal/jobs): a
// DIMSAT run with Options.Checkpoint installed snapshots its position so
// it can be suspended — by budget, deadline, cancellation, or a crash —
// and continued later with ResumeSatisfiableContext; OpenJobStore wraps
// the whole cycle in a crash-recovering asynchronous job store.

// Checkpoint is a resumable DIMSAT search position: the decision stack of
// the deterministic EXPAND recursion plus cumulative Stats, pinned to a
// schema fingerprint and the pruning switches.
type Checkpoint = core.Checkpoint

// Checkpointing configures durable progress for a DIMSAT run; install in
// Options.Checkpoint.
type Checkpointing = core.Checkpointing

// CheckpointSink receives periodic checkpoints during a search.
type CheckpointSink = core.CheckpointSink

// ErrBadCheckpoint reports a structurally unusable checkpoint (wrong
// version, missing pins, a decision stack that does not replay); test
// with errors.Is.
var ErrBadCheckpoint = core.ErrBadCheckpoint

// ErrCheckpointMismatch reports a well-formed checkpoint presented with a
// different schema or different search options; test with errors.Is.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch

// DecodeCheckpoint parses and validates an encoded checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return core.DecodeCheckpoint(data) }

// ResumeSatisfiable continues a suspended satisfiability search from cp,
// returning exactly what the uninterrupted run would have returned.
func ResumeSatisfiable(ds *DimensionSchema, cp *Checkpoint, opts Options) (Result, error) {
	return core.ResumeSatisfiable(ds, cp, opts)
}

// ResumeSatisfiableContext is ResumeSatisfiable under a context. The
// Options budget bounds the cumulative Stats across all attempts, so a
// resume needs a higher MaxExpansions ceiling than the checkpoint's
// Stats.Expansions to make progress.
func ResumeSatisfiableContext(ctx context.Context, ds *DimensionSchema, cp *Checkpoint, opts Options) (Result, error) {
	return core.ResumeSatisfiableContext(ctx, ds, cp, opts)
}

// JobStore is a durable, crash-recovering store of asynchronous reasoning
// jobs: submissions persist before they run, long searches checkpoint
// their position to disk, and jobs interrupted by a crash or shutdown are
// re-enqueued and resumed on the next Open.
type JobStore = jobs.Store

// JobStoreConfig configures a JobStore.
type JobStoreConfig = jobs.Config

// JobRequest describes the reasoning a job performs (kind "sat" or
// "implies").
type JobRequest = jobs.Request

// JobStatus is a point-in-time snapshot of a job.
type JobStatus = jobs.Status

// JobCounters are a store's cumulative counters (submitted, recovered,
// resumed, corrupt-rejected, ...).
type JobCounters = jobs.Counters

// ErrCorruptSnapshot reports a job-store file that failed its checksum;
// the store quarantines such files rather than trusting them. Test with
// errors.Is.
var ErrCorruptSnapshot = jobs.ErrCorruptSnapshot

// OpenJobStore loads (or creates) a durable job store rooted at
// cfg.Dir, re-enqueuing any jobs a previous process left unfinished.
// Call Start to begin executing and Close to suspend.
func OpenJobStore(cfg JobStoreConfig) (*JobStore, error) { return jobs.Open(cfg) }

// SummarizabilityReport details a summarizability test per bottom
// category.
type SummarizabilityReport = core.SummarizabilityReport

// Constraint is a dimension constraint expression.
type Constraint = constraint.Expr

// Frozen is a frozen dimension: a minimal homogeneous instance structure
// admitted by a schema (Section 3.2 of the paper).
type Frozen = frozen.Frozen

// HierarchySchema is the category graph of a dimension.
type HierarchySchema = schema.Schema

// All is the distinguished top category of every hierarchy schema.
const All = schema.All

// Parse builds a validated dimension schema from the textual syntax
// (see DESIGN.md: schema/category/edge/constraint lines).
func Parse(src string) (*DimensionSchema, error) { return core.Parse(src) }

// ParseConstraint parses a single dimension constraint expression, e.g.
// `City="Washington" <-> City_Country`.
func ParseConstraint(src string) (Constraint, error) { return parser.ParseConstraint(src) }

// NewHierarchy returns an empty hierarchy schema containing only All.
func NewHierarchy(name string) *HierarchySchema { return schema.New(name) }

// NewDimensionSchema bundles a hierarchy schema with constraints.
func NewDimensionSchema(g *HierarchySchema, sigma ...Constraint) *DimensionSchema {
	return core.NewDimensionSchema(g, sigma...)
}

// Satisfiable decides category satisfiability with DIMSAT.
func Satisfiable(ds *DimensionSchema, category string, opts Options) (Result, error) {
	return core.Satisfiable(ds, category, opts)
}

// SatisfiableContext is Satisfiable under a context: cancellation or an
// exhausted Options budget aborts the search within one EXPAND step,
// returning ctx.Err() or ErrBudgetExceeded with partial Stats.
func SatisfiableContext(ctx context.Context, ds *DimensionSchema, category string, opts Options) (Result, error) {
	return core.SatisfiableContext(ctx, ds, category, opts)
}

// Implies decides whether every instance of ds satisfies alpha
// (Theorem 2 reduction to category satisfiability).
func Implies(ds *DimensionSchema, alpha Constraint, opts Options) (bool, Result, error) {
	return core.Implies(ds, alpha, opts)
}

// ImpliesContext is Implies under a context and the Options budget.
func ImpliesContext(ctx context.Context, ds *DimensionSchema, alpha Constraint, opts Options) (bool, Result, error) {
	return core.ImpliesContext(ctx, ds, alpha, opts)
}

// Explain explains the satisfiability verdict for a category: the
// touched set of the deciding run plus, on UNSAT, a minimal unsat core —
// a smallest-by-deletion subset of Σ still forcing the verdict, verified
// so that removing any single member makes the category satisfiable —
// and the frontier categories where every branch died. Each shrink probe
// derives its Σ subset from the compiled schema's tables, one compile per
// probe, and with Options.Cache its verdict is memoized across calls.
func Explain(ds *DimensionSchema, category string, opts Options) (*Explanation, error) {
	return core.Explain(ds, category, opts)
}

// ExplainContext is Explain under a context and the Options budget,
// applied to the whole call (initial run plus shrink probes): an
// exhausted budget or deadline returns the current working set as a
// partial core together with the typed error.
func ExplainContext(ctx context.Context, ds *DimensionSchema, category string, opts Options) (*Explanation, error) {
	return core.ExplainContext(ctx, ds, category, opts)
}

// Summarizable tests whether the cube view for target can be computed from
// the cube views for the categories in from, in every instance of ds
// (Theorem 1).
func Summarizable(ds *DimensionSchema, target string, from []string, opts Options) (*SummarizabilityReport, error) {
	return core.Summarizable(ds, target, from, opts)
}

// SummarizableContext is Summarizable under a context and the Options
// budget, applied per bottom walk.
func SummarizableContext(ctx context.Context, ds *DimensionSchema, target string, from []string, opts Options) (*SummarizabilityReport, error) {
	return core.SummarizableContext(ctx, ds, target, from, opts)
}

// EnumerateFrozen lists every frozen dimension of ds with the given root,
// the structures Figure 4 of the paper depicts.
func EnumerateFrozen(ds *DimensionSchema, root string, opts Options) ([]*Frozen, error) {
	return core.EnumerateFrozen(ds, root, opts)
}

// EnumerateFrozenContext is EnumerateFrozen under a context and the
// Options budget.
func EnumerateFrozenContext(ctx context.Context, ds *DimensionSchema, root string, opts Options) ([]*Frozen, error) {
	return core.EnumerateFrozenContext(ctx, ds, root, opts)
}

// UnsatisfiableCategories returns the categories no instance of ds can
// populate; the paper recommends dropping them at design time.
func UnsatisfiableCategories(ds *DimensionSchema) ([]string, error) {
	return core.UnsatisfiableCategories(ds)
}

// UnsatisfiableCategoriesContext is UnsatisfiableCategories under a
// context, deciding the per-category satisfiability queries on a worker
// pool sized by Options.Parallelism.
func UnsatisfiableCategoriesContext(ctx context.Context, ds *DimensionSchema, opts Options) ([]string, error) {
	return core.UnsatisfiableCategoriesContext(ctx, ds, opts)
}

// Matrix records single-source summarizability between every category
// pair.
type Matrix = core.Matrix

// SummarizabilityMatrix computes single-source summarizability between
// every pair of categories — the design-stage overview of Section 6. One
// DIMSAT walk per bottom category enumerates the subhierarchies that
// induce frozen dimensions and answers every cell, with the verdict
// Summarizable gives; Options.Cache retains each finished walk, so a
// repeat runs no search.
func SummarizabilityMatrix(ds *DimensionSchema, opts Options) (*Matrix, error) {
	return core.SummarizabilityMatrix(ds, opts)
}

// SummarizabilityMatrixContext is SummarizabilityMatrix under a context:
// the walks, one per bottom category, run on a worker pool sized by
// Options.Parallelism; cancellation, the budget (which bounds each walk)
// or the deadline fails the matrix.
func SummarizabilityMatrixContext(ctx context.Context, ds *DimensionSchema, opts Options) (*Matrix, error) {
	return core.SummarizabilityMatrixContext(ctx, ds, opts)
}

// SummarizabilityMatrixPartialContext is the overload-safe matrix: a walk
// that exhausts the Options budget or deadline leaves the cells it had
// not yet falsified in Matrix.Unknown instead of failing the whole
// computation — the cells whose Summarizable would fail.
func SummarizabilityMatrixPartialContext(ctx context.Context, ds *DimensionSchema, opts Options) (*Matrix, error) {
	return core.SummarizabilityMatrixPartialContext(ctx, ds, opts)
}

// MinimalSources enumerates every minimal source set (up to maxSize
// categories) from which target is summarizable in all instances of ds.
// It certifies every candidate set against the walks of the matrix, one
// per bottom category, with no further search.
func MinimalSources(ds *DimensionSchema, target string, maxSize int, opts Options) ([][]string, error) {
	return core.MinimalSources(ds, target, maxSize, opts)
}

// MinimalSourcesContext is MinimalSources under a context; the walks run
// on the Options worker pool, and a maxSize below 1 returns no sets
// without searching.
func MinimalSourcesContext(ctx context.Context, ds *DimensionSchema, target string, maxSize int, opts Options) ([][]string, error) {
	return core.MinimalSourcesContext(ctx, ds, target, maxSize, opts)
}

// LintReport collects design-stage findings: dead categories, redundant
// constraints, shortcuts, cycles.
type LintReport = core.LintReport

// Lint analyzes a dimension schema for design problems.
func Lint(ds *DimensionSchema, opts Options) (*LintReport, error) {
	return core.Lint(ds, opts)
}

// LintContext is Lint under a context; the satisfiability sweep and the
// per-constraint redundancy tests run on the Options worker pool.
func LintContext(ctx context.Context, ds *DimensionSchema, opts Options) (*LintReport, error) {
	return core.LintContext(ctx, ds, opts)
}

// SplitConstraint compiles a split constraint (the authors' earlier
// constraint class, Section 1.3) into a dimension constraint: members of
// root must roll up to exactly one of the allowed category sets within the
// universe.
func SplitConstraint(root string, universe []string, allowed [][]string) (Constraint, error) {
	return constraint.Split(root, universe, allowed)
}
