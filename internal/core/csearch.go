package core

import (
	"context"
	"fmt"
	"math/bits"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// csearch is one DIMSAT run (Figure 6) over the bitset representation
// built by Compile: the EXPAND recursion of walkFrom and the CHECK of
// Proposition 2, as bitwise operations over per-depth scratch frames
// that are reused across the whole run.
type csearch struct {
	ctx  context.Context
	done <-chan struct{} // ctx.Done(), polled without taking ctx's lock
	cs   *Compiled
	root int32
	opts Options

	// sigmaIdx indexes cs.sigma with Σ(ds, root) (constraint.SigmaFor).
	sigmaIdx []int32
	decider  constraint.Decider

	stats      Stats
	witness    *frozen.Frozen
	structured StructuredTracer
	err        error
	path       []uint64
	cp         *Checkpoint
	fp         string
	// prov collects the touched set; nil unless Options.Provenance.
	// Marked with interned ids resolved to names.
	prov *provCollector
	// complete, when non-nil, replaces check at every complete
	// subhierarchy; it returns false to stop the search.
	// EnumerateFrozenContext installs one to collect every induced
	// frozen dimension.
	complete func() bool

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

	// Scratch for traversals and CHECK: DFS stack, Kahn queue and
	// in-degrees for the acyclicity test, an epoch-stamped forward-closure
	// memo (valid within one CHECK), and the residual-constraint buffer.
	stack        []int32
	queue        []int32
	indeg        []int32
	closure      []uint64
	closureEpoch []uint64
	epoch        uint64
	residual     []constraint.Expr
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

func newCSearch(ctx context.Context, cs *Compiled, root string, opts Options) *csearch {
	n := len(cs.names)
	rid := cs.ids[root]
	s := &csearch{
		ctx:          ctx,
		done:         ctx.Done(),
		cs:           cs,
		root:         rid,
		opts:         opts,
		sigmaIdx:     cs.sigmaFor[rid],
		words:        cs.words,
		cats:         make([]uint64, cs.words),
		outW:         make([]uint64, n*cs.words),
		inW:          make([]uint64, n*cs.words),
		outdeg:       make([]int32, n),
		indeg:        make([]int32, n),
		closure:      make([]uint64, n*cs.words),
		closureEpoch: make([]uint64, n),
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
	s.structured, _ = opts.Tracer.(StructuredTracer)
	s.decider = func(a constraint.Atom) (bool, bool) {
		switch a := a.(type) {
		case constraint.PathAtom:
			return s.isPath(a.Cats), true
		case constraint.RollupAtom:
			return s.reachesNames(a.RootCat, a.Cat), true
		case constraint.ThroughAtom:
			return s.reachesNames(a.RootCat, a.Via) && s.reachesNames(a.Via, a.Cat), true
		case constraint.EqAtom:
			if !s.reachesNames(a.RootCat, a.Cat) {
				return false, true
			}
			return false, false
		case constraint.CmpAtom:
			if !s.reachesNames(a.RootCat, a.Cat) {
				return false, true
			}
			return false, false
		}
		return false, false
	}
	return s
}

// runSatisfiable executes one uncached DIMSAT search for c on cs.
func runSatisfiable(ctx context.Context, cs *Compiled, c string, opts Options) (Result, error) {
	s := newCSearch(ctx, cs, c, opts)
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

// deadEnd counts an abandoned branch and reports it to the structured
// tracer with the heuristic that pruned it.
func (s *csearch) deadEnd(ctop, heuristic string) {
	s.stats.DeadEnds++
	if s.prov != nil {
		s.prov.markFrontier(ctop)
	}
	if s.structured != nil {
		s.structured.PruneStep(len(s.path), ctop, heuristic)
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
// subhierarchy held in s (cats/outW/inW/outdeg), calling check (or the
// complete hook) at every complete subhierarchy (Top = {All}). It
// returns false to abort the whole search.
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
			if s.complete != nil {
				return s.complete()
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
		if cap(f.hasRow) < len(f.candidates) {
			f.hasRow = make([]bool, len(f.candidates))
			f.rows = make([]uint64, len(f.candidates)*s.words)
		}
		f.hasRow = f.hasRow[:len(f.candidates)]
		f.rows = f.rows[:len(f.candidates)*s.words]
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
				s.opts.Tracer.Expand(s.shadow, s.cs.names[ctop], R)
				if s.structured != nil {
					s.structured.ExpandStep(len(s.path), s.cs.names[ctop], R)
				}
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
// abort the search once a witness is found.
func (s *csearch) check() bool {
	s.stats.Checks++
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
	f, ok := s.induces()
	if s.opts.Tracer != nil {
		s.opts.Tracer.Check(s.shadow, ok)
	}
	if s.structured != nil {
		s.structured.CheckStep(len(s.path), ok)
	}
	if !ok {
		return true
	}
	s.witness = f
	return false
}

// induces is frozen.Induces over the bitsets. Constraints without
// equality or order atoms are fully decided by the circle operator on a
// complete subhierarchy, so they are evaluated directly (s implements
// constraint.Valuation against the live bitsets); the rest go through
// constraint.Reduce with the circle decider and their residuals feed the
// unchanged c-assignment solver.
func (s *csearch) induces() (*frozen.Frozen, bool) {
	s.epoch++
	if !s.acyclic() || !s.shortcutFree() {
		return nil, false
	}
	s.residual = s.residual[:0]
	for _, idx := range s.sigmaIdx {
		cc := &s.cs.sigma[idx]
		if cc.root >= 0 && !bitTest(s.cats, cc.root) {
			continue // vacuously true: root not in g (Definition 4)
		}
		if cc.structural {
			if !constraint.Eval(cc.expr, s) {
				return nil, false
			}
			continue
		}
		r := constraint.Reduce(cc.expr, s.decider)
		if _, isFalse := r.(constraint.False); isFalse {
			return nil, false
		}
		if _, isTrue := r.(constraint.True); isTrue {
			continue
		}
		s.residual = append(s.residual, r)
	}
	a, ok := frozen.FindAssignment(s.residual, s.cs.consts)
	if !ok {
		return nil, false
	}
	return &frozen.Frozen{G: s.materialize(), Assign: a}, true
}

// acyclic runs Kahn's algorithm over the subhierarchy: it is acyclic iff
// every member category can be peeled at in-degree zero. Boolean-
// equivalent to Subhierarchy.Acyclic's 3-color DFS.
func (s *csearch) acyclic() bool {
	total, done := 0, 0
	s.queue = s.queue[:0]
	for w, word := range s.cats {
		base := int32(w) << 6
		for word != 0 {
			id := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			total++
			d := int32(bitCount(s.inRow(id)))
			s.indeg[id] = d
			if d == 0 {
				s.queue = append(s.queue, id)
			}
		}
	}
	for len(s.queue) > 0 {
		cur := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		done++
		row := s.outRow(cur)
		for w, word := range row {
			base := int32(w) << 6
			for word != 0 {
				p := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				s.indeg[p]--
				if s.indeg[p] == 0 {
					s.queue = append(s.queue, p)
				}
			}
		}
	}
	return done == total
}

// shortcutFree mirrors Subhierarchy.ShortcutFree: no sibling pair
// (mid, p) of the same child with mid ↗'* p.
func (s *csearch) shortcutFree() bool {
	for w, word := range s.cats {
		base := int32(w) << 6
		for word != 0 {
			c := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if s.outdeg[c] < 2 {
				continue
			}
			row := s.outRow(c)
			for mw, mword := range row {
				mbase := int32(mw) << 6
				for mword != 0 {
					mid := mbase + int32(bits.TrailingZeros64(mword))
					mword &= mword - 1
					cl := s.closureRow(mid)
					for i := 0; i < s.words; i++ {
						x := cl[i] & row[i]
						if int32(i) == mid>>6 {
							x &^= 1 << uint(mid&63)
						}
						if x != 0 {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// closureRow returns {p : c ↗'* p} in the current subhierarchy, memoized
// for the duration of one CHECK (the epoch is bumped per CHECK; the
// graph does not change within one).
func (s *csearch) closureRow(c int32) []uint64 {
	row := s.closure[int(c)*s.words : (int(c)+1)*s.words]
	if s.closureEpoch[c] == s.epoch {
		return row
	}
	bitZero(row)
	bitSet(row, c)
	s.stack = append(s.stack[:0], c)
	for len(s.stack) > 0 {
		cur := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		or := s.outRow(cur)
		for w, word := range or {
			base := int32(w) << 6
			for word != 0 {
				p := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				if !bitTest(row, p) {
					bitSet(row, p)
					s.stack = append(s.stack, p)
				}
			}
		}
	}
	s.closureEpoch[c] = s.epoch
	return row
}

// reaches mirrors Subhierarchy.Reaches (both members, reflexive).
func (s *csearch) reaches(a, b int32) bool {
	if !bitTest(s.cats, a) || !bitTest(s.cats, b) {
		return false
	}
	return bitTest(s.closureRow(a), b)
}

func (s *csearch) reachesNames(a, b string) bool {
	ai, ok := s.cs.ids[a]
	if !ok {
		return false
	}
	bi, ok := s.cs.ids[b]
	if !ok {
		return false
	}
	return s.reaches(ai, bi)
}

// isPath mirrors Subhierarchy.IsPath.
func (s *csearch) isPath(cats []string) bool {
	if len(cats) == 0 {
		return false
	}
	c, ok := s.cs.ids[cats[0]]
	if !ok || !bitTest(s.cats, c) {
		return false
	}
	for i := 1; i < len(cats); i++ {
		p, ok := s.cs.ids[cats[i]]
		if !ok || !bitTest(s.outRow(c), p) {
			return false
		}
		c = p
	}
	return true
}

// Valuation methods: direct structural evaluation for constraints the
// circle operator fully decides. Eq and Cmp are unreachable — only
// structural constraints are routed through Eval.
func (s *csearch) Path(a constraint.PathAtom) bool { return s.isPath(a.Cats) }
func (s *csearch) Eq(a constraint.EqAtom) bool     { return false }
func (s *csearch) Cmp(a constraint.CmpAtom) bool   { return false }
func (s *csearch) Rollup(a constraint.RollupAtom) bool {
	return s.reachesNames(a.RootCat, a.Cat)
}
func (s *csearch) Through(a constraint.ThroughAtom) bool {
	return s.reachesNames(a.RootCat, a.Via) && s.reachesNames(a.Via, a.Cat)
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
