package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"olapdim/internal/faults"
	"olapdim/internal/frozen"
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
// every pair of categories of ds, with SummarizableContext's verdict in
// every cell.
//
// Cell (t, s) is Theorem 1's implication Σ ⊨ cb.t ⊃ ⊙{cb.s.t} for every
// bottom category cb. The constraint has only path atoms, so by Theorem 3
// it holds iff every subhierarchy g rooted at cb that induces a frozen
// dimension satisfies it: if t is in g, s reaches t in g. One DIMSAT walk
// per bottom category enumerates those subhierarchies (walkBottoms) and
// answers all N² cells; the walks run on a worker pool sized by
// opts.Parallelism (default GOMAXPROCS; a Tracer in opts forces
// sequential execution, since tracers are not required to be safe for
// concurrent use). With opts.Cache set (and no Tracer), each finished
// walk is retained there, so a repeated matrix, or MinimalSources on the
// same schema, answers from the cache and runs no search.
//
// SummarizabilityMatrix is SummarizabilityMatrixContext with a background
// context.
func SummarizabilityMatrix(ds *DimensionSchema, opts Options) (*Matrix, error) {
	return SummarizabilityMatrixContext(context.Background(), ds, opts)
}

// SummarizabilityMatrixContext is SummarizabilityMatrix under a context:
// cancellation, or a walk cut short by the opts.MaxExpansions budget or
// the deadline, fails the matrix with that error. The budget bounds each
// bottom category's walk, which takes exactly the EXPAND steps of a
// diagonal cell's search, so the matrix fails exactly when some cell's
// SummarizableContext would. A walk retained in opts.Cache answers
// whatever the budget and deadline, as a retained verdict does.
func SummarizabilityMatrixContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *Matrix, err error) {
	defer recoverAsInternal(&err)
	walks, cs, err := walkBottoms(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	for _, w := range walks {
		// A cut walk leaves at least the diagonal cells unknown: no
		// subhierarchy falsifies t ⊃ t.t.
		if w.err != nil {
			return nil, w.err
		}
	}
	return newMatrix(cs, walks), nil
}

// SummarizabilityMatrixPartialContext is the overload-safe variant of
// SummarizabilityMatrixContext: a bottom category whose walk exhausts the
// Options budget or the deadline leaves a cell unknown in Matrix.Unknown,
// unless a subhierarchy it enumerated before the cut already falsified
// the cell, instead of failing the whole matrix, so a serving tier can
// degrade the cells it could not decide rather than the entire response.
// These are exactly the cells whose SummarizableContext would fail with
// that error. Other errors (cancellation by the client, contained panics)
// still abort.
func SummarizabilityMatrixPartialContext(ctx context.Context, ds *DimensionSchema, opts Options) (_ *Matrix, err error) {
	defer recoverAsInternal(&err)
	walks, cs, err := walkBottoms(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	return newMatrix(cs, walks), nil
}

// newMatrix evaluates every cell on the walks: (t, s) holds iff s lies in
// every reaching set of t, and is unknown iff s lies in every reaching set
// of t that some cut walk saw.
func newMatrix(cs *Compiled, walks []*bottomWalk) *Matrix {
	n := len(cs.names) - 1 // every category but All
	m := &Matrix{From: make(map[string]map[string]bool, n), Categories: make([]string, 0, n)}
	for _, c := range cs.names {
		if c != schema.All {
			m.Categories = append(m.Categories, c)
		}
	}
	src := make([]uint64, cs.words)
	for _, target := range m.Categories {
		row := make(map[string]bool, n)
		m.From[target] = row
		for _, source := range m.Categories {
			bitZero(src)
			bitSet(src, cs.ids[source])
			holds, unknown := true, false
			for _, w := range walks {
				ok := exactlyOne(w.reaching[cs.ids[target]], src)
				holds = holds && ok
				unknown = unknown || (ok && w.err != nil)
			}
			row[source] = holds && !unknown
			if unknown {
				if m.Unknown == nil {
					m.Unknown = map[string]map[string]bool{}
				}
				if m.Unknown[target] == nil {
					m.Unknown[target] = map[string]bool{}
				}
				m.Unknown[target][source] = true
			}
		}
	}
	return m
}

// exactlyOne reports whether |S ∩ R| = 1 for every row R of rows, the
// Theorem 1 condition on a subhierarchy where R is the target's reaching
// set.
func exactlyOne(rows, S []uint64) bool {
	for off := 0; off < len(rows); off += len(S) {
		n := 0
		for i, x := range S {
			n += bits.OnesCount64(x & rows[off+i])
		}
		if n != 1 {
			return false
		}
	}
	return true
}

// bottomWalk is what one bottom category's DIMSAT walk saw of the
// subhierarchies g rooted at it that induce a frozen dimension of
// (G, Σ). err is the error that cut the walk short (ErrBudgetExceeded or
// a passed deadline), in which case only the subhierarchies enumerated
// before the cut are folded in; nil when the walk is complete. A walk is
// not modified once returned, apart from the witnesses built under mu,
// so a SatCache can share a complete one.
type bottomWalk struct {
	// reaching[t] concatenates the distinct reaching sets
	// R_g(t) = {s : s ↗*_g t} over the induced g containing t, in the
	// order the walk first saw them.
	reaching [][]uint64
	// adder[t][k] is the retained subhierarchy that added the k-th set of
	// reaching[t]. A g is retained when it adds some (t, R): its out-edge
	// rows (n×words per g, in edges) and its c-assignment.
	adder  [][]int32
	edges  []uint64
	assign []frozen.Assignment
	err    error

	mu        sync.Mutex
	witnesses []*frozen.Frozen // retained g as a frozen dimension, built on first read
}

// falsifier returns the retained subhierarchy that added the first
// reaching set R of t with |S ∩ R| ≠ 1, or -1 when there is none. It is
// the first induced g in walk order that falsifies Theorem 1's
// cb.t ⊃ ⊙_{s ∈ S} cb.s.t: a g seen earlier with the same R_g(t) would
// falsify it too.
func (w *bottomWalk) falsifier(t int32, S []uint64) int32 {
	rows := w.reaching[t]
	for k := 0; k*len(S) < len(rows); k++ {
		if !exactlyOne(rows[k*len(S):(k+1)*len(S)], S) {
			return w.adder[t][k]
		}
	}
	return -1
}

// witness returns retained subhierarchy g of the walk rooted at bottom
// as a frozen dimension, materializing it on first read.
func (w *bottomWalk) witness(cs *Compiled, bottom string, g int32) *frozen.Frozen {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.witnesses[g] == nil {
		n := len(cs.names)
		rows := w.edges[int(g)*n*cs.words : int(g+1)*n*cs.words]
		sub := frozen.NewSubhierarchy(bottom)
		for c := 0; c < n; c++ {
			bitForEach(rows[c*cs.words:(c+1)*cs.words], func(p int32) {
				sub.AddEdge(cs.names[c], cs.names[p])
			})
		}
		w.witnesses[g] = &frozen.Frozen{G: sub, Assign: w.assign[g]}
	}
	return w.witnesses[g]
}

// walkFold is the state in which a walk folds its induced
// subhierarchies; index and scratch do not outlive the walk.
type walkFold struct {
	walk *bottomWalk
	// index maps the foldHash of a category t and a reaching set of t to
	// the position in reaching[t] of the first folded set with that hash.
	index   map[uint64]int32
	scratch []uint64 // n rows of R_g under construction
}

// foldHash mixes category t and the words of a reaching set r of t into
// 64 bits. It is one to one on the sets of one word of a given t, and
// the sets of two categories collide only by chance.
func foldHash(t int32, r []uint64) uint64 {
	h := uint64(t+1) * 0xbf58476d1ce4e5b9
	for _, x := range r {
		h = (h ^ x) * 0x9e3779b97f4a7c15
	}
	return h
}

// folded reports whether reaching[t] already holds the set r, and
// indexes r as the set about to be added when it does not.
func (f *walkFold) folded(t int32, r []uint64) bool {
	rows, words := f.walk.reaching[t], len(r)
	h := foldHash(t, r)
	k, ok := f.index[h]
	if !ok {
		f.index[h] = int32(len(rows) / words)
		return false
	}
	if end := int(k+1) * words; end <= len(rows) && slices.Equal(rows[end-words:end], r) {
		return true
	}
	// r shares its hash with another set, of t or of another category:
	// compare r with each set of t.
	for i := 0; i < len(rows); i += words {
		if slices.Equal(rows[i:i+words], r) {
			return true
		}
	}
	return false
}

// fold adds R_g(t) for every category t of the induced subhierarchy g
// held by s, built from the closure rows of g's members, and retains g
// with its c-assignment a when it adds a set not seen before.
func (f *walkFold) fold(s *csearch, a frozen.Assignment) {
	w := f.walk
	row := func(t int32) []uint64 { return f.scratch[int(t)*s.words : (int(t)+1)*s.words] }
	bitForEach(s.cats, func(t int32) { bitZero(row(t)) })
	bitForEach(s.cats, func(src int32) {
		bitForEach(s.closureRow(src), func(t int32) { bitSet(row(t), src) })
	})
	g := int32(-1)
	bitForEach(s.cats, func(t int32) {
		if f.folded(t, row(t)) {
			return
		}
		if g < 0 {
			g = int32(len(w.assign))
			w.assign = append(w.assign, a)
			w.edges = append(w.edges, s.outW...)
		}
		w.reaching[t] = append(w.reaching[t], row(t)...)
		w.adder[t] = append(w.adder[t], g)
	})
}

// newBottomWalk returns a walk over cs's categories that has seen
// nothing yet, with err.
func newBottomWalk(cs *Compiled, err error) *bottomWalk {
	return &bottomWalk{
		reaching: make([][]uint64, len(cs.names)),
		adder:    make([][]int32, len(cs.names)),
		err:      err,
	}
}

// walkBottom enumerates the subhierarchies rooted at bottom with the
// DIMSAT search and folds every one that induces a frozen dimension,
// returning the walk and its effort. Its visit hook never stops the
// search, so the walk visits, in order, every subhierarchy that the
// search of any Theorem 1 implication rooted at bottom would.
func walkBottom(ctx context.Context, cs *Compiled, bottom string, opts Options) (*bottomWalk, Stats) {
	s := acquireSearch(ctx, cs, bottom, opts)
	defer s.release()
	f := &walkFold{
		walk:    newBottomWalk(cs, nil),
		index:   map[uint64]int32{},
		scratch: make([]uint64, len(cs.names)*cs.words),
	}
	s.visit = func() bool {
		a, induced := s.induces()
		if induced {
			f.fold(s, a)
		}
		return induced
	}
	s.walkFrom(nil, 0)
	opts.Effort.add(s.stats)
	f.walk.err = s.err
	f.walk.witnesses = make([]*frozen.Frozen, len(f.walk.assign))
	return f.walk, s.stats
}

// walkBottoms runs walkBottom for every bottom category of ds on the
// Options worker pool, one task per bottom, under opts.Deadline. With
// opts.Cache set (and no Tracer), a bottom whose finished walk the cache
// retains is answered from it first, without blocking; the pool walks
// only the others, each through the cache's singleflight, and starts no
// batch when every bottom hits. A retained walk answers whatever the
// call's budget and deadline. A walk cut short by the budget or the
// deadline comes back with its error and is not retained; a passed
// deadline also stops the pool, and a bottom it never reached comes back
// as a cut walk that saw nothing. Any other error aborts.
func walkBottoms(ctx context.Context, ds *DimensionSchema, opts Options) (_ []*bottomWalk, _ *Compiled, err error) {
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, nil, err
	}
	cs := opts.Compiled
	cache := opts.Cache
	if opts.Tracer != nil {
		cache = nil // a hit would skip the steps the tracer wants to see
	}
	if cache != nil {
		if err := opts.Faults.Hit(faults.SiteCacheLookup); err != nil {
			return nil, nil, fmt.Errorf("core: sat-cache: %w", err)
		}
	}
	bottoms := ds.G.Bottoms()
	walks := make([]*bottomWalk, len(bottoms))
	var todo []int // indices of the bottoms to walk
	for i, b := range bottoms {
		if cache != nil {
			if e := cache.peek(satCacheKey{schema: cs.Fingerprint(), root: b, walk: true}); e != nil {
				walks[i] = e.walk
				continue
			}
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return walks, cs, nil
	}
	ctx, cancel := withDeadline(ctx, opts.Deadline)
	defer cancel()
	err = runPool(ctx, len(todo), opts, func(ctx context.Context, j int) error {
		i := todo[j]
		compute := func() (*bottomWalk, Stats) { return walkBottom(ctx, cs, bottoms[i], opts) }
		var w *bottomWalk
		var err error
		if cache != nil {
			w, err = cache.walk(ctx, cs.Fingerprint(), bottoms[i], compute)
		} else {
			w, _ = compute()
			err = w.err
		}
		if err != nil && !cutShort(err) {
			return err
		}
		if w == nil {
			// The deadline passed while another call walked this bottom.
			w = newBottomWalk(cs, err)
		}
		walks[i] = w
		return nil
	})
	if err != nil && !cutShort(err) {
		return nil, nil, err
	}
	for i, w := range walks {
		if w == nil {
			walks[i] = newBottomWalk(cs, err)
		}
	}
	return walks, cs, nil
}

// cutShort reports whether err cut a walk short, leaving its cells
// unknown rather than failing a partial matrix.
func cutShort(err error) bool {
	return errors.Is(err, ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded)
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
// certified set is never *minimal*. Sets come smallest first, each sorted,
// in lexicographic order within a size.
//
// A set S is certified, as by SummarizableContext, iff |S ∩ R| = 1 for
// every reaching set R of target that the walks of the summarizability
// matrix see (one DIMSAT walk per bottom category, on the Options worker
// pool, and retained in opts.Cache as for the matrix); every candidate
// set is tested against those sets, with no further search.
//
// MinimalSources is MinimalSourcesContext with a background context.
func MinimalSources(ds *DimensionSchema, target string, maxSize int, opts Options) ([][]string, error) {
	return MinimalSourcesContext(context.Background(), ds, target, maxSize, opts)
}

// MinimalSourcesContext is MinimalSources under a context: cancellation,
// or a walk cut short by the budget or the deadline, fails it with that
// error. A maxSize below 1 returns no sets without searching.
func MinimalSourcesContext(ctx context.Context, ds *DimensionSchema, target string, maxSize int, opts Options) (_ [][]string, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(target) {
		return nil, fmt.Errorf("core: unknown category %q", target)
	}
	if opts.Compiled, err = compiledFor(ds, opts); err != nil {
		return nil, err
	}
	if maxSize < 1 {
		return nil, nil
	}
	walks, cs, err := walkBottoms(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	// reaching concatenates every reaching set of target, over all walks.
	var reaching []uint64
	for _, w := range walks {
		if w.err != nil {
			return nil, w.err
		}
		reaching = append(reaching, w.reaching[cs.ids[target]]...)
	}
	var out [][]string
	var found [][]uint64 // the certified sets
	var rec func(set []uint64, names []string, next int32, size int)
	rec = func(set []uint64, names []string, next int32, size int) {
		if len(names) < size {
			for c := next; c < int32(len(cs.names)); c++ {
				if c != cs.allID {
					bitSet(set, c)
					rec(set, append(names, cs.names[c]), c+1, size)
					bitClear(set, c)
				}
			}
			return
		}
		for _, f := range found {
			if !bitAnyAndNot(f, set) {
				return // a superset of a certified set
			}
		}
		if exactlyOne(reaching, set) {
			found = append(found, slices.Clone(set))
			out = append(out, slices.Clone(names))
		}
	}
	for size := 1; size <= maxSize && size < len(cs.names); size++ {
		rec(make([]uint64, cs.words), nil, 0, size)
	}
	return out, nil
}
