package core

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// csearch is one DIMSAT run (Figure 6) over the bitset representation
// built by Compile: the EXPAND recursion of walkFrom and the CHECK of
// Proposition 2, as bitwise operations over per-depth scratch frames
// that are reused across the whole run. Its scratch is recycled across
// runs through searches: acquireSearch resets every field for a new run
// and release returns it.
type csearch struct {
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), polled without taking ctx's lock
	cs   *Compiled
	root int32
	opts Options

	// sigmaIdx indexes cs.sigma with Σ(ds, root) (constraint.SigmaFor).
	sigmaIdx []int32
	// decider is the circle operator's decider over the live bitsets,
	// bound once when the scratch is allocated.
	decider constraint.Decider

	stats   Stats
	witness *frozen.Frozen
	err     error
	path    []uint64
	cp      *Checkpoint
	fp      string
	// prov collects the touched set; nil unless Options.Provenance.
	// Marked with interned ids resolved to names.
	prov *provCollector
	// visit, when non-nil, replaces CHECK's induction test at every
	// complete subhierarchy and never stops the search: it reports
	// whether the subhierarchy induces a frozen dimension, which CHECK
	// counts and traces as usual. EnumerateFrozenContext installs one to
	// collect every induced frozen dimension, and walkBottom one to fold
	// every induced subhierarchy into the matrix's reaching sets.
	visit func() bool

	// Mutable subhierarchy state: category set, flat out/in adjacency
	// rows, and out-degrees (a category with outdeg 0 is a top).
	words  int
	cats   []uint64
	outW   []uint64
	inW    []uint64
	outdeg []int32

	// shadow mirrors the subhierarchy as a *frozen.Subhierarchy, updated
	// in lockstep with the bitsets, so Tracer callbacks observe the live
	// graph. Maintained only when a Tracer is installed; nil on the
	// production path.
	shadow *frozen.Subhierarchy

	// frames holds per-depth scratch reused across sibling expansions.
	frames []*cframe

	// Scratch for traversals and CHECK: the DFS stack of EXPAND's
	// reachability sets; the closure rows and per-member walk states of
	// CHECK's structure pass (the rows stay valid until the next CHECK);
	// the value stack of the constraints' programs; a path atom's ids as
	// the decider resolves them; and the residual-constraint buffer.
	stack    []int32
	closure  []uint64
	state    []uint8
	values   []tri
	pathIDs  []int32
	residual []constraint.Expr
}

// cframe is the scratch of one EXPAND frame: the backward-reachability
// set of ctop, the surviving candidate parents with their frame-entry
// forward-reachability rows, the free (not into-forced) candidates, and
// the subset buffers of the mask loop.
type cframe struct {
	reaching   []uint64
	candidates []int32
	hasRow     []bool
	rows       []uint64
	free       []int32
	R          []int32
	rbits      []uint64
	newCat     []bool
}

// searches recycles search scratch across runs, so a schema whose every
// question is a new search allocates its bitsets and frames once per
// worker rather than once per search.
var searches = sync.Pool{New: func() any {
	s := &csearch{}
	s.decider = s.decide
	return s
}}

// acquireSearch returns search scratch set up for a fresh run rooted at
// root on cs; the caller releases it once the run's results are read.
func acquireSearch(ctx context.Context, cs *Compiled, root string, opts Options) *csearch {
	s := searches.Get().(*csearch)
	n := len(cs.names)
	rid := cs.ids[root]
	s.ctx, s.done, s.cs, s.root, s.opts = ctx, ctx.Done(), cs, rid, opts
	s.sigmaIdx = cs.sigmaFor[rid]
	s.stats = Stats{}
	s.path = s.path[:0]
	s.words = cs.words
	s.cats = zeroed(s.cats, cs.words)
	s.outW = zeroed(s.outW, n*cs.words)
	s.inW = zeroed(s.inW, n*cs.words)
	s.outdeg = zeroed(s.outdeg, n)
	s.closure = zeroed(s.closure, n*cs.words)
	s.state = zeroed(s.state, n)
	for _, f := range s.frames {
		f.reaching = zeroed(f.reaching, cs.words)
		f.rbits = zeroed(f.rbits, cs.words)
	}
	bitSet(s.cats, rid)
	if opts.Checkpoint != nil {
		s.fp = cs.Fingerprint()
	}
	if opts.Provenance {
		s.prov = newProvCollector(root)
	}
	if opts.Tracer != nil {
		s.shadow = frozen.NewSubhierarchy(root)
	}
	return s
}

// release returns s to searches. It drops every reference a run set, so
// the pool holds on to no schema, context, tracer or result.
func (s *csearch) release() {
	s.ctx, s.done, s.cs, s.opts, s.sigmaIdx = nil, nil, nil, Options{}, nil
	s.witness, s.err, s.cp, s.fp = nil, nil, nil, ""
	s.prov, s.visit, s.shadow = nil, nil, nil
	clear(s.residual[:cap(s.residual)])
	s.residual = s.residual[:0]
	searches.Put(s)
}

// zeroed returns b resized to n elements, all zero, reusing its array
// when it is large enough.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// runSatisfiable executes one uncached DIMSAT search for c on cs.
func runSatisfiable(ctx context.Context, cs *Compiled, c string, opts Options) (Result, error) {
	s := acquireSearch(ctx, cs, c, opts)
	defer s.release()
	s.walkFrom(nil, 0)
	opts.Effort.add(s.stats)
	var prov *Provenance
	if s.prov != nil {
		prov = s.prov.finalize()
	}
	if s.err != nil {
		return Result{Stats: s.stats, Checkpoint: s.cp, Provenance: prov}, s.err
	}
	return Result{Satisfiable: s.witness != nil, Witness: s.witness, Stats: s.stats, Provenance: prov}, nil
}

func (s *csearch) outRow(c int32) []uint64 { return s.outW[int(c)*s.words : (int(c)+1)*s.words] }
func (s *csearch) inRow(c int32) []uint64  { return s.inW[int(c)*s.words : (int(c)+1)*s.words] }

func (s *csearch) closureRow(c int32) []uint64 {
	return s.closure[int(c)*s.words : (int(c)+1)*s.words]
}

// frame returns the reusable scratch frame for the given depth.
func (s *csearch) frame(depth int) *cframe {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, &cframe{
			reaching: make([]uint64, s.words),
			rbits:    make([]uint64, s.words),
		})
	}
	return s.frames[depth]
}

// addEdge adds the edge c -> p to the subhierarchy. c is always the
// current ctop (already a member); p may be new.
func (s *csearch) addEdge(c, p int32) {
	bitSet(s.cats, p)
	bitSet(s.outRow(c), p)
	bitSet(s.inRow(p), c)
	s.outdeg[c]++
	if s.shadow != nil {
		s.shadow.AddEdge(s.cs.names[c], s.cs.names[p])
	}
}

func (s *csearch) removeEdge(c, p int32, dropCategory bool) {
	bitClear(s.outRow(c), p)
	bitClear(s.inRow(p), c)
	s.outdeg[c]--
	if dropCategory {
		bitClear(s.cats, p)
	}
	if s.shadow != nil {
		s.shadow.RemoveEdge(s.cs.names[c], s.cs.names[p], dropCategory)
	}
}

// deadEnd counts an abandoned branch and reports it to the tracer with
// the heuristic that pruned it.
func (s *csearch) deadEnd(ctop, heuristic string) {
	s.stats.DeadEnds++
	if s.prov != nil {
		s.prov.markFrontier(ctop)
	}
	if s.opts.Tracer != nil {
		s.opts.Tracer.Prune(len(s.path), ctop, heuristic)
	}
}

// snapshot captures the current search position: the decision stack plus
// the next mask to try in the innermost frame.
func (s *csearch) snapshot(next uint64) *Checkpoint {
	return &Checkpoint{
		Version:          CheckpointVersion,
		Schema:           s.fp,
		Root:             s.cs.names[s.root],
		IntoPruning:      !s.opts.DisableIntoPruning,
		StructurePruning: !s.opts.DisableStructurePruning,
		Path:             append([]uint64(nil), s.path...),
		Next:             next,
		Stats:            s.stats,
	}
}

// abort records why the search stopped and, when checkpointing is
// installed, the resumable position it stopped at.
func (s *csearch) abort(err error, next uint64) {
	s.err = err
	if s.opts.Checkpoint != nil {
		s.cp = s.snapshot(next)
	}
}

// maybeCheckpoint feeds the periodic sink; called right after an EXPAND
// step is counted, when the position is (s.path, next mask 0). A sink
// failure aborts the search — durable progress that cannot be persisted is
// not progress — with the unsaved snapshot in Result.Checkpoint.
func (s *csearch) maybeCheckpoint() bool {
	ck := s.opts.Checkpoint
	if ck == nil || ck.Sink == nil || ck.Every <= 0 || s.stats.Expansions%ck.Every != 0 {
		return true
	}
	cp := s.snapshot(0)
	if err := ck.Sink(cp); err != nil {
		s.err = fmt.Errorf("core: checkpoint sink: %w", err)
		s.cp = cp
		return false
	}
	return true
}

// overBudget consults the fault injector, the context and the expansion
// budget; it is called before every EXPAND step so an abort takes effect
// within one step. next is the mask the caller was about to try, completing
// the checkpointable position. The abort reason is recorded in s.err and
// the whole search unwinds. The injector runs first: an injected latency
// stalls the step and the context check below then observes a passed
// deadline, which is exactly the "search stalls" scenario robustness tests
// force.
func (s *csearch) overBudget(next uint64) bool {
	if s.err != nil {
		return true
	}
	if err := s.opts.Faults.Hit(faults.SiteExpand); err != nil {
		s.abort(err, next)
		return true
	}
	// A non-blocking receive on the cached Done channel: ctx.Err takes the
	// context's mutex, which every worker of a batch fan-out would contend
	// on at each step. Err is consulted only once the channel is closed.
	select {
	case <-s.done:
		s.abort(s.ctx.Err(), next)
		return true
	default:
	}
	if s.opts.MaxExpansions > 0 && s.stats.Expansions >= s.opts.MaxExpansions {
		s.abort(fmt.Errorf("%w after %d expansions", ErrBudgetExceeded, s.stats.Expansions), next)
		return true
	}
	return false
}

// failResume aborts the search because a checkpoint's decision stack does
// not replay against this schema: a mask that is out of range, lands on a
// pruned or empty subset, or descends past a complete subhierarchy. The
// fingerprint pin makes this unreachable for honest checkpoints; it guards
// against storage corruption below the checksum layer.
func (s *csearch) failResume(format string, args ...any) bool {
	s.err = fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	return false
}

// walkFrom implements the EXPAND procedure of Figure 6 over the
// subhierarchy held in s (cats/outW/inW/outdeg), calling check at every
// complete subhierarchy (Top = {All}). It returns false to abort the
// whole search.
//
// replay and next give a resume position: replay holds the masks of the
// expansions between here and the suspended frame, outermost first; each
// is re-applied silently (edges added, no stats, no tracer, no
// checkpoints) before the enumeration continues past it, and next is the
// first mask to try in the frame below the last replayed expansion. A
// fresh walk passes (nil, 0).
func (s *csearch) walkFrom(replay []uint64, next uint64) bool {
	replaying := len(replay) > 0
	start := next
	if replaying {
		start = replay[0]
	}
	if s.overBudget(start) {
		return false
	}
	// The lexicographically first unexpanded category is the first id in
	// ascending order: ids were interned in sorted-name order.
	ctop := int32(-1)
	n := int32(len(s.cs.names))
	for id := int32(0); id < n; id++ {
		if id != s.cs.allID && bitTest(s.cats, id) && s.outdeg[id] == 0 {
			ctop = id
			break
		}
	}
	if ctop < 0 {
		if bitTest(s.cats, s.cs.allID) && s.outdeg[s.cs.allID] == 0 {
			if replaying {
				return s.failResume("path descends past a complete subhierarchy")
			}
			return s.check()
		}
		// Every category has out-edges but All is absent: only reachable
		// with structure pruning disabled, when a cycle swallowed the
		// frontier. Dead end.
		if replaying {
			return s.failResume("path descends into a cyclic dead end")
		}
		s.deadEnd(schema.All, "cycle-frontier")
		return true
	}

	outG := s.cs.out[ctop]
	f := s.frame(len(s.path))
	f.candidates = f.candidates[:0]
	pruning := !s.opts.DisableStructurePruning
	if !pruning {
		f.candidates = append(f.candidates, outG...)
	} else {
		// One backward traversal answers both structural vetoes of
		// Figure 6 lines (11)-(12): reaching = {b : b ↗'* ctop}.
		s.reachingInto(ctop, f.reaching)
		for _, c := range outG {
			if bitTest(f.reaching, c) {
				continue // cycle: c already reaches ctop
			}
			if bitAnyAnd(s.inRow(c), f.reaching) {
				continue // shortcut: some b ↗'* ctop has the edge b -> c
			}
			f.candidates = append(f.candidates, c)
		}
		// Frame-entry forward-reachability rows for candidates already in
		// the subhierarchy, used to veto sibling pairs (r1, r2) with
		// r1 ↗'* r2, where the new edge (ctop, r2) would be a shortcut via
		// r1. Figure 6 omits this case; see DESIGN.md.
		f.hasRow = zeroed(f.hasRow, len(f.candidates))
		f.rows = zeroed(f.rows, len(f.candidates)*s.words)
		for i, c := range f.candidates {
			f.hasRow[i] = bitTest(s.cats, c)
			if f.hasRow[i] {
				s.reachableInto(c, f.rows[i*s.words:(i+1)*s.words])
			}
		}
	}

	into := s.cs.into[ctop]
	if s.opts.DisableIntoPruning {
		into = nil
	}
	// Line (15) of Figure 6: a forced edge that was pruned, or no legal
	// parents at all, is a dead end.
	if len(f.candidates) == 0 || !containsAllIDs(f.candidates, into) {
		if replaying {
			return s.failResume("path descends into a dead end at %s", s.cs.names[ctop])
		}
		s.deadEnd(s.cs.names[ctop], "into")
		return true
	}

	f.free = f.free[:0]
	for _, c := range f.candidates {
		if !containsID(into, c) {
			f.free = append(f.free, c)
		}
	}

	// Enumerate R = S' ∪ Into over subsets S' ⊆ free; R must be non-empty.
	// The subhierarchy is mutated in place and reverted after each branch;
	// aborting the search (walkFrom returning false) skips the revert,
	// which is safe because the whole search unwinds immediately and the
	// witness is materialized into its own subhierarchy.
	nf := len(f.free)
	limit := uint64(1) << uint(nf)
	if start >= limit && start > 0 {
		return s.failResume("mask %d out of range at %s (%d free candidates)", start, s.cs.names[ctop], nf)
	}
	for mask := start; mask < limit; mask++ {
		// The first iteration of a resumed frame replays the recorded
		// decision silently; every later mask is explored normally.
		silent := replaying && mask == start
		f.R = append(f.R[:0], into...)
		for i := 0; i < nf; i++ {
			if mask&(1<<uint(i)) != 0 {
				f.R = append(f.R, f.free[i])
			}
		}
		if len(f.R) == 0 {
			if silent {
				return s.failResume("path records an empty expansion at %s", s.cs.names[ctop])
			}
			continue
		}
		if pruning && s.conflictingPair(f) {
			if silent {
				return s.failResume("path records a pruned expansion at %s", s.cs.names[ctop])
			}
			s.deadEnd(s.cs.names[ctop], "sibling-shortcut")
			continue
		}
		if !silent && s.overBudget(mask) {
			return false
		}
		f.newCat = f.newCat[:0]
		for _, p := range f.R {
			f.newCat = append(f.newCat, !bitTest(s.cats, p))
			s.addEdge(ctop, p)
			if s.prov != nil {
				s.prov.markEdge(s.cs.names[ctop], s.cs.names[p])
			}
		}
		s.path = append(s.path, mask)
		if silent {
			if !s.walkFrom(replay[1:], next) {
				return false
			}
		} else {
			s.stats.Expansions++
			if s.opts.Tracer != nil {
				R := make([]string, len(f.R))
				for i, p := range f.R {
					R[i] = s.cs.names[p]
				}
				s.opts.Tracer.Expand(s.shadow, len(s.path), s.cs.names[ctop], R)
			}
			if !s.maybeCheckpoint() {
				return false
			}
			if !s.walkFrom(nil, 0) {
				return false
			}
		}
		s.path = s.path[:len(s.path)-1]
		for i := len(f.R) - 1; i >= 0; i-- {
			s.removeEdge(ctop, f.R[i], f.newCat[i])
		}
	}
	return true
}

// conflictingPair reports whether R contains distinct r1, r2 with
// r1 ↗'* r2 at frame entry.
func (s *csearch) conflictingPair(f *cframe) bool {
	bitZero(f.rbits)
	for _, c := range f.R {
		bitSet(f.rbits, c)
	}
	for i, c := range f.candidates {
		if !f.hasRow[i] || !bitTest(f.rbits, c) {
			continue
		}
		row := f.rows[i*s.words : (i+1)*s.words]
		for w, rw := range f.rbits {
			x := row[w] & rw
			if int32(w) == c>>6 {
				x &^= 1 << uint(c&63)
			}
			if x != 0 {
				return true
			}
		}
	}
	return false
}

// reachingInto fills dst with {b : b ↗'* target}.
func (s *csearch) reachingInto(target int32, dst []uint64) {
	bitZero(dst)
	bitSet(dst, target)
	s.stack = append(s.stack[:0], target)
	for len(s.stack) > 0 {
		cur := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		row := s.inRow(cur)
		for w, word := range row {
			base := int32(w) << 6
			for word != 0 {
				b := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				if !bitTest(dst, b) {
					bitSet(dst, b)
					s.stack = append(s.stack, b)
				}
			}
		}
	}
}

// reachableInto fills dst with {p : c ↗'* p}; c must be a member of the
// subhierarchy.
func (s *csearch) reachableInto(c int32, dst []uint64) {
	bitZero(dst)
	bitSet(dst, c)
	s.stack = append(s.stack[:0], c)
	for len(s.stack) > 0 {
		cur := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		row := s.outRow(cur)
		for w, word := range row {
			base := int32(w) << 6
			for word != 0 {
				p := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				if !bitTest(dst, p) {
					bitSet(dst, p)
					s.stack = append(s.stack, p)
				}
			}
		}
	}
}

// check implements CHECK (Figure 6) via Proposition 2. It returns false to
// abort the search once a witness is found; under a visit hook it never
// does.
func (s *csearch) check() bool {
	s.stats.Checks++
	if s.visit != nil {
		s.traceCheck(s.visit())
		return true
	}
	if s.prov != nil {
		// A relevant constraint is consulted by this CHECK unless it is
		// vacuously true because its root is outside g (Definition 4).
		for _, idx := range s.sigmaIdx {
			cc := &s.cs.sigma[idx]
			if cc.root < 0 || bitTest(s.cats, cc.root) {
				s.prov.markSigma(int(idx))
			}
		}
	}
	a, ok := s.induces()
	s.traceCheck(ok)
	if !ok {
		return true
	}
	s.witness = &frozen.Frozen{G: s.materialize(), Assign: a}
	return false
}

// traceCheck reports a CHECK verdict to the installed tracer.
func (s *csearch) traceCheck(induced bool) {
	if s.opts.Tracer != nil {
		s.opts.Tracer.Check(s.shadow, len(s.path), induced)
	}
}

// induces is frozen.Induces over the bitsets, returning the c-assignment
// of the induced frozen dimension; only check materializes the witness.
func (s *csearch) induces() (frozen.Assignment, bool) {
	if !s.circle() {
		return nil, false
	}
	return frozen.FindAssignment(s.residual, s.cs.consts)
}

// circle is the first half of Proposition 2 over the bitsets: it reports
// whether the subhierarchy is acyclic and shortcut-free and no relevant
// constraint folds to false under the circle operator (frozen.Circle),
// leaving the residual Σ∘g in s.residual for a c-assignment to satisfy.
// After the structure pass, each relevant constraint's program decides
// it unless an equality or order atom leaves it unknown. Only those
// constraints go through constraint.Reduce with the circle decider,
// which decides exactly when Kleene's logic does, so the residual is
// frozen.Circle's.
func (s *csearch) circle() bool {
	if !s.structure() {
		return false
	}
	s.residual = s.residual[:0]
	for _, idx := range s.sigmaIdx {
		cc := &s.cs.sigma[idx]
		if cc.root >= 0 && !bitTest(s.cats, cc.root) {
			continue // vacuously true: root not in g (Definition 4)
		}
		switch s.run(cc.prog) {
		case triFalse:
			return false
		case triTrue:
			continue
		}
		r := constraint.Reduce(cc.expr, s.decider)
		if _, isFalse := r.(constraint.False); isFalse {
			return false
		}
		if _, isTrue := r.(constraint.True); isTrue {
			continue
		}
		s.residual = append(s.residual, r)
	}
	return true
}

// Walk states of the structure pass.
const (
	unvisited uint8 = iota
	onPath          // entered, its parents not all finished
	finished        // its closure row is complete
)

// structure is CHECK's one pass over the subhierarchy's shape: a
// depth-first walk from the root that reports whether the subhierarchy
// is acyclic and shortcut-free (Subhierarchy.Acyclic and ShortcutFree)
// and fills the closure row {p : c ↗'* p} of every member c. EXPAND adds
// a category only as a parent of a member, so every member is reachable
// from the root and the walk sees all of them. reaches, and through it
// the programs and the decider, and walkFold.fold read the rows until
// the next CHECK.
func (s *csearch) structure() bool {
	clear(s.state)
	return s.finish(s.root)
}

// finish finishes c after its parents and fills c's closure row: c, its
// parents and their closure rows. A parent still on the walk's path
// closes a cycle; a parent that another parent of c reaches makes the
// edge to it a shortcut.
func (s *csearch) finish(c int32) bool {
	s.state[c] = onPath
	row := s.closureRow(c)
	bitZero(row)
	out := s.outRow(c)
	for w, word := range out {
		base := int32(w) << 6
		for word != 0 {
			p := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			switch s.state[p] {
			case onPath:
				return false // a cycle
			case unvisited:
				if !s.finish(p) {
					return false
				}
			}
			// Or in what p reaches other than p: without a cycle, a
			// parent of c lands in row only when another parent reaches
			// it.
			pw := int(p >> 6)
			for i, x := range s.closureRow(p) {
				if i == pw {
					x &^= 1 << uint(p&63)
				}
				row[i] |= x
			}
		}
	}
	if bitAnyAnd(row, out) {
		return false // a shortcut
	}
	for i, x := range out {
		row[i] |= x
	}
	bitSet(row, c)
	s.state[c] = finished
	return true
}

// reaches mirrors Subhierarchy.Reaches (both members, reflexive) on the
// closure rows of the last structure pass; an id of -1 names a category
// outside the schema.
func (s *csearch) reaches(a, b int32) bool {
	if a < 0 || b < 0 || !bitTest(s.cats, a) || !bitTest(s.cats, b) {
		return false
	}
	return bitTest(s.closureRow(a), b)
}

// isPath mirrors Subhierarchy.IsPath over interned ids.
func (s *csearch) isPath(ids []int32) bool {
	if len(ids) == 0 || ids[0] < 0 || !bitTest(s.cats, ids[0]) {
		return false
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < 0 || !bitTest(s.outRow(ids[i-1]), ids[i]) {
			return false
		}
	}
	return true
}

// tri is a truth value of Kleene's three-valued logic.
type tri uint8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// run evaluates a constraint's program on the subhierarchy: the truth
// value the circle operator gives the constraint, unknown when it
// depends on the value of a category the root reaches.
func (s *csearch) run(prog []cstep) tri {
	v := s.values[:0]
	for i := range prog {
		st := &prog[i]
		switch st.op {
		case opTrue:
			v = append(v, triTrue)
		case opFalse:
			v = append(v, triFalse)
		case opPath:
			v = append(v, triOf(s.isPath(st.ids)))
		case opRollup:
			v = append(v, triOf(s.reaches(st.ids[0], st.ids[1])))
		case opThrough:
			v = append(v, triOf(s.reaches(st.ids[0], st.ids[1]) && s.reaches(st.ids[1], st.ids[2])))
		case opValue:
			if s.reaches(st.ids[0], st.ids[1]) {
				v = append(v, triUnknown)
			} else {
				v = append(v, triFalse)
			}
		case opNot:
			if x := v[len(v)-1]; x != triUnknown {
				v[len(v)-1] = triOf(x == triFalse)
			}
		case opAnd, opOr, opOne:
			k := len(v) - int(st.n)
			var t, u int32 // operands true, unknown
			for _, x := range v[k:] {
				switch x {
				case triTrue:
					t++
				case triUnknown:
					u++
				}
			}
			r := triUnknown
			switch {
			case st.op == opAnd && t == st.n, st.op == opOr && t > 0, st.op == opOne && t == 1 && u == 0:
				r = triTrue
			case st.op == opAnd && t+u < st.n, st.op == opOr && u == 0, st.op == opOne && (t > 1 || u == 0):
				r = triFalse
			}
			v = append(v[:k], r)
		default: // opImplies, opIff, opXor
			a, b := v[len(v)-2], v[len(v)-1]
			v = v[:len(v)-1]
			r := triUnknown
			switch {
			case st.op == opImplies && (a == triFalse || b == triTrue):
				r = triTrue
			case st.op == opImplies:
				if a == triTrue && b == triFalse {
					r = triFalse
				}
			case a != triUnknown && b != triUnknown:
				r = triOf((a == b) == (st.op == opIff))
			}
			v[len(v)-1] = r
		}
	}
	s.values = v
	return v[0]
}

// decide is the circle operator's decider (Definition 8) over the
// bitsets, for the constraints whose program leaves them unknown: it
// decides path, rollup and through atoms, and equality and order atoms
// whose category the root does not reach.
func (s *csearch) decide(a constraint.Atom) (bool, bool) {
	cs := s.cs
	switch a := a.(type) {
	case constraint.PathAtom:
		s.pathIDs = s.pathIDs[:0]
		for _, c := range a.Cats {
			s.pathIDs = append(s.pathIDs, cs.id(c))
		}
		return s.isPath(s.pathIDs), true
	case constraint.RollupAtom:
		return s.reaches(cs.id(a.RootCat), cs.id(a.Cat)), true
	case constraint.ThroughAtom:
		return s.reaches(cs.id(a.RootCat), cs.id(a.Via)) && s.reaches(cs.id(a.Via), cs.id(a.Cat)), true
	case constraint.EqAtom:
		return false, !s.reaches(cs.id(a.RootCat), cs.id(a.Cat))
	case constraint.CmpAtom:
		return false, !s.reaches(cs.id(a.RootCat), cs.id(a.Cat))
	}
	return false, false
}

// materialize builds an owned *frozen.Subhierarchy from the bitsets, for
// witnesses and enumerated frozen dimensions.
func (s *csearch) materialize() *frozen.Subhierarchy {
	g := frozen.NewSubhierarchy(s.cs.names[s.root])
	bitForEach(s.cats, func(c int32) {
		bitForEach(s.outRow(c), func(p int32) {
			g.AddEdge(s.cs.names[c], s.cs.names[p])
		})
	})
	return g
}

func containsID(xs []int32, x int32) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsAllIDs(xs, ys []int32) bool {
	for _, y := range ys {
		if !containsID(xs, y) {
			return false
		}
	}
	return true
}
