package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"olapdim/internal/schema"
)

// Matrix records, for every ordered pair of categories (target, source),
// whether the target's cube view is computable from the source's alone in
// every instance of the schema — the design-stage overview Section 6 of
// the paper motivates.
type Matrix struct {
	// Categories lists the non-All categories, sorted.
	Categories []string
	// From[target][source] reports single-source summarizability.
	From map[string]map[string]bool
	// Unknown[target][source] marks cells a partial computation could not
	// decide within its budget or deadline (see
	// SummarizabilityMatrixPartialContext); nil or empty for complete
	// matrices. An unknown cell's From value is meaningless.
	Unknown map[string]map[string]bool
}

// Complete reports whether every cell was decided.
func (m *Matrix) Complete() bool {
	for _, row := range m.Unknown {
		if len(row) > 0 {
			return false
		}
	}
	return true
}

// SummarizabilityMatrix computes single-source summarizability between
// every pair of categories of ds. Each cell is one Theorem 1 implication
// per bottom category, decided by DIMSAT; the N² independent cells are
// computed on a worker pool sized by opts.Parallelism (default
// GOMAXPROCS; a Tracer in opts forces sequential execution, since tracers
// are not required to be safe for concurrent use).
//
// SummarizabilityMatrix is SummarizabilityMatrixContext with a background
// context.
func SummarizabilityMatrix(ds *DimensionSchema, opts Options) (*Matrix, error) {
	return SummarizabilityMatrixContext(context.Background(), ds, opts)
}

// SummarizabilityMatrixContext is SummarizabilityMatrix under a context:
// cancellation or a per-cell budget error stops the fan-out and returns
// the first error. Sharing opts.Cache across calls lets repeated cells be
// answered without re-running DIMSAT.
func SummarizabilityMatrixContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *Matrix, err error) {
	defer recoverAsInternal(&err)
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	m := newMatrixShell(ds)
	n := len(m.Categories)
	results := make([]bool, n*n)
	err = runPool(ctx, n*n, opts, func(ctx context.Context, idx int) error {
		rep, err := SummarizableContext(ctx, ds, m.Categories[idx/n], []string{m.Categories[idx%n]}, opts)
		if err != nil {
			return err
		}
		results[idx] = rep.Summarizable()
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.fill(results, nil)
	return m, nil
}

// SummarizabilityMatrixPartialContext is the overload-safe variant of
// SummarizabilityMatrixContext: cells whose DIMSAT run exhausts the
// Options budget or the deadline are reported as unknown in
// Matrix.Unknown instead of failing the whole matrix, so a serving tier
// can degrade one expensive cell rather than the entire response. Other
// errors (cancellation by the client, contained panics) still abort.
func SummarizabilityMatrixPartialContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *Matrix, err error) {
	defer recoverAsInternal(&err)
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	m := newMatrixShell(ds)
	n := len(m.Categories)
	results := make([]bool, n*n)
	unknown := make([]bool, n*n)
	decided := make([]bool, n*n)
	err = runPool(ctx, n*n, opts, func(ctx context.Context, idx int) error {
		rep, err := SummarizableContext(ctx, ds, m.Categories[idx/n], []string{m.Categories[idx%n]}, opts)
		switch {
		case err == nil:
			results[idx] = rep.Summarizable()
		case errors.Is(err, ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded):
			unknown[idx] = true
		default:
			return err
		}
		decided[idx] = true
		return nil
	})
	if err != nil {
		// A passed deadline also stops the fan-out itself; the cells it
		// never reached are unknown, not a failure.
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrBudgetExceeded) {
			return nil, err
		}
	}
	for idx := range decided {
		if !decided[idx] {
			unknown[idx] = true
		}
	}
	m.fill(results, unknown)
	return m, nil
}

// newMatrixShell lists the non-All categories of ds into an empty matrix.
func newMatrixShell(ds *DimensionSchema) *Matrix {
	m := &Matrix{From: map[string]map[string]bool{}}
	for _, c := range ds.G.SortedCategories() {
		if c != schema.All {
			m.Categories = append(m.Categories, c)
		}
	}
	return m
}

// fill populates From (and Unknown, when unknown is non-nil) from the
// row-major cell slices.
func (m *Matrix) fill(results, unknown []bool) {
	n := len(m.Categories)
	for idx, ok := range results {
		target := m.Categories[idx/n]
		if m.From[target] == nil {
			m.From[target] = map[string]bool{}
		}
		m.From[target][m.Categories[idx%n]] = ok
		if unknown != nil && unknown[idx] {
			if m.Unknown == nil {
				m.Unknown = map[string]map[string]bool{}
			}
			if m.Unknown[target] == nil {
				m.Unknown[target] = map[string]bool{}
			}
			m.Unknown[target][m.Categories[idx%n]] = true
		}
	}
}

// String renders the matrix as a table: rows are targets, columns sources,
// a "+" marking summarizable pairs and a "?" marking undecided cells of a
// partial matrix.
func (m *Matrix) String() string {
	width := 6
	for _, c := range m.Categories {
		if len(c) > width {
			width = len(c)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", width+2, "from:")
	for _, src := range m.Categories {
		fmt.Fprintf(&b, " %-*s", width, src)
	}
	b.WriteByte('\n')
	for _, target := range m.Categories {
		fmt.Fprintf(&b, "%-*s", width+2, target)
		for _, src := range m.Categories {
			mark := "."
			if m.From[target][src] {
				mark = "+"
			}
			if m.Unknown[target][src] {
				mark = "?"
			}
			fmt.Fprintf(&b, " %-*s", width, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SummarizableSources returns the sources from which target is
// single-source summarizable, sorted.
func (m *Matrix) SummarizableSources(target string) []string {
	var out []string
	for src, ok := range m.From[target] {
		if ok {
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return out
}

// MinimalSources enumerates every minimal source set (up to maxSize
// categories) from which target is summarizable in all instances of ds: a
// certified set none of whose proper subsets is certified. Candidates are
// all categories except All, the target included: the singleton {target}
// is always certified (a cube view is computable from itself), so it is
// reported among the size-1 results. Supersets of certified sets are
// skipped — summarizability is not monotone, but a superset of a
// certified set is never *minimal*.
//
// MinimalSources is MinimalSourcesContext with a background context.
func MinimalSources(ds *DimensionSchema, target string, maxSize int, opts Options) ([][]string, error) {
	return MinimalSourcesContext(context.Background(), ds, target, maxSize, opts)
}

// MinimalSourcesContext is MinimalSources under a context. The search is
// level-synchronous: all candidate sets of one size are independent (a
// certified set cannot be a proper subset of another set of the same
// size), so each level is tested on the Options worker pool; supersets of
// smaller certified sets are filtered before the fan-out. Results are
// identical to the serial enumeration, in the same order.
func MinimalSourcesContext(ctx context.Context, ds *DimensionSchema, target string, maxSize int, opts Options) (_ [][]string, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(target) {
		return nil, fmt.Errorf("core: unknown category %q", target)
	}
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	var cands []string
	for _, c := range ds.G.SortedCategories() {
		if c != schema.All {
			cands = append(cands, c)
		}
	}
	var out [][]string
	isSuperset := func(set []string) bool {
		for _, m := range out {
			if containsAll(set, m) {
				return true
			}
		}
		return false
	}
	for size := 1; size <= maxSize && size <= len(cands); size++ {
		var level [][]string
		var rec func(cur []string, start int)
		rec = func(cur []string, start int) {
			if len(cur) == size {
				if !isSuperset(cur) {
					level = append(level, append([]string(nil), cur...))
				}
				return
			}
			for i := start; i < len(cands); i++ {
				rec(append(cur, cands[i]), i+1)
			}
		}
		rec(nil, 0)
		certified := make([]bool, len(level))
		err := runPool(ctx, len(level), opts, func(ctx context.Context, i int) error {
			rep, err := SummarizableContext(ctx, ds, target, level[i], opts)
			if err != nil {
				return err
			}
			certified[i] = rep.Summarizable()
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, set := range level {
			if certified[i] {
				out = append(out, set)
			}
		}
	}
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsAll(xs, ys []string) bool {
	for _, y := range ys {
		if !contains(xs, y) {
			return false
		}
	}
	return true
}
