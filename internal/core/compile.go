package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

// Compiled is a dimension schema compiled for the bitset DIMSAT search.
//
// Compile interns the category names of ds.G to dense int32 ids (in
// sorted-name order, so id order is the lexicographic order in which
// EXPAND picks the next category), flattens the graph and its
// reflexive-transitive closure into []uint64 bitset rows, and
// pre-resolves the per-root constraint indexes: the forced into-edges
// and the relevant-constraint sets of constraint.SigmaFor. Every search
// runs on a Compiled; passing one via Options.Compiled lets
// SatisfiableContext, ResumeSatisfiableContext and everything layered on
// them (Implies, Summarizable, Lint, ...) reuse it instead of compiling
// the schema per call.
//
// A Compiled is immutable after construction and safe for concurrent
// use by any number of searches.
type Compiled struct {
	src *DimensionSchema

	names []string         // id -> category name, sorted (names[allID] == schema.All)
	ids   map[string]int32 // category name -> id
	allID int32
	words int // words per bitset row: bitWords(len(names))

	out   [][]int32 // id -> child ids, in schema insertion order (mirrors G.Out)
	reach []uint64  // flat n×words reflexive-transitive closure of G
	into  [][]int32 // id -> forced parents (into-edges), ascending ids
	edges int

	sigma    []compiledConstraint
	sigmaFor [][]int32 // root id -> indexes into sigma relevant for that root
	consts   map[string][]string

	// A derived schema records how its Σ was built from base's: the
	// members of base.sigma at the ascending indexes keep (all of them,
	// in place, when keep is nil), then the constraints the derive added.
	// The rendering reuses base's for the kept members. base is nil for a
	// Compile result.
	base *Compiled
	keep []int

	textOnce sync.Once
	text     *rendering

	// fp is preset by satisfiableDerived and ImpliesReduction when a
	// cache peek already hashed the derived schema's text
	// (derivedFingerprint); otherwise Fingerprint hashes on first use.
	fpOnce sync.Once
	fp     string

	// Fingerprints of Theorem 2 reduction schemas (Σ ∪ {¬α}), keyed by
	// ¬α's string form and evicted FIFO, so a cache peek that hits
	// neither renders nor hashes.
	negMu    sync.Mutex
	negFP    map[string]string
	negOrder []string

	met *compileCounters
}

// compiledConstraint is one Σ entry resolved against the interned
// graph: its root id, its program and the G-edges it forces. A derived
// schema shares the compiledConstraint of every member it keeps.
// structural marks constraints built only from path, rollup and through
// atoms and connectives: on a complete subhierarchy the circle operator
// decides every atom, so their program always decides them.
type compiledConstraint struct {
	expr       constraint.Expr
	root       int32 // -1 when the constraint has no atoms
	prog       []cstep
	forced     [][2]int32 // the G-edges (child, parent) it forces (constraint.IntoEdges)
	structural bool
}

// cop is the operation of one step of a constraint's program.
type cop uint8

const (
	opTrue cop = iota
	opFalse
	opPath    // ids: the path's categories
	opRollup  // ids: the root, the category
	opThrough // ids: the root, the via category, the category
	opValue   // an equality or order atom; ids: the root, the category
	opNot     // negates the last value
	opAnd     // replaces the last n values by their conjunction
	opOr      // ... by their disjunction
	opOne     // ... by whether exactly one of them holds
	opImplies // replaces the last two values a, b by a → b
	opIff     // ... by a ↔ b
	opXor     // ... by a ⊕ b
)

// cstep is one step of a constraint's postfix program, the circle
// operator over interned ids: each atom pushes its truth value on a
// subhierarchy, and a connective folds its operands' values into one,
// so the program of a constraint leaves exactly one value. The values
// are Kleene's three: an equality or order atom whose category the root
// reaches is unknown until a c-assignment gives that category a value.
type cstep struct {
	op  cop
	n   int32   // a connective's operands
	ids []int32 // an atom's categories; -1 for a name outside the schema
}

// rendering is a compiled schema's source text in pieces: the hierarchy
// schema, then one constraintLine per Σ member. The pieces concatenate to
// DimensionSchema.String, so a derived schema can share its parent's
// pieces instead of rendering the whole schema again.
type rendering struct {
	graph string
	lines []string
}

// fingerprint is schemaFingerprint of the rendered schema with its
// constraint lines restricted to the ascending indexes keep (all of them
// when keep is nil) and extra (zero or more constraint lines) appended:
// the text of the schema derive(keep, ·) builds.
func (r *rendering) fingerprint(keep []int, extra string) string {
	lines := r.lines
	if keep != nil {
		lines = make([]string, len(keep))
		for j, i := range keep {
			lines[j] = r.lines[i]
		}
	}
	n := len(r.graph) + len(extra)
	for _, l := range lines {
		n += len(l)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, r.graph...)
	for _, l := range lines {
		buf = append(buf, l...)
	}
	buf = append(buf, extra...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// compileCounters aggregates compile-time metrics. The counters are
// shared between a Compiled schema and every schema derived from it so a
// server can export one set of olapdim_compile_* series per schema.
type compileCounters struct {
	compiles    atomic.Uint64
	compileNano atomic.Int64
}

// CompiledStats is a point-in-time snapshot of a compiled schema's shape
// and of the compile activity since Compile.
type CompiledStats struct {
	Categories  int // categories in the schema graph, including All
	Edges       int // child→parent edges in the schema graph
	Constraints int // constraints in Σ

	Compiles       uint64  // compilations performed: Compile, plus one per schema derived from it
	CompileSeconds float64 // cumulative wall-clock compile time

	// DeriveHits, DeriveMisses and DeriveEvictions always read 0: derived
	// schemas are built per call and never cached. They stay only while
	// perfbench still reads them.
	DeriveHits      uint64
	DeriveMisses    uint64
	DeriveEvictions uint64
}

// negFingerprintMax bounds the per-schema memo of reduction fingerprints.
const negFingerprintMax = 256

// Compile builds the compiled bitset form of ds. The schema must
// validate; the error of ds.Validate is returned otherwise. The result
// is pinned to ds by pointer and by fingerprint — passing it alongside a
// different schema fails with ErrCompiledMismatch.
func Compile(ds *DimensionSchema) (*Compiled, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return compileValidated(ds, &compileCounters{})
}

// compileValidated compiles a schema already known to validate, charging
// the work to met.
func compileValidated(ds *DimensionSchema, met *compileCounters) (*Compiled, error) {
	start := time.Now()
	names := ds.G.SortedCategories()
	n := len(names)
	cs := &Compiled{
		src:   ds,
		names: names,
		ids:   make(map[string]int32, n),
		words: bitWords(n),
		met:   met,
	}
	for i, name := range names {
		cs.ids[name] = int32(i)
	}
	cs.allID = cs.ids[schema.All]

	// Each table's rows are carved out of one array.
	cs.out = make([][]int32, n)
	edges := make([]int32, 0, ds.G.NumEdges())
	for i, name := range names {
		start := len(edges)
		for _, p := range ds.G.Out(name) {
			edges = append(edges, cs.ids[p])
		}
		if len(edges) > start {
			cs.out[i] = edges[start:len(edges):len(edges)]
		}
	}
	cs.edges = len(edges)

	// Reflexive-transitive closure of G, one DFS per source.
	cs.reach = make([]uint64, n*cs.words)
	stack := make([]int32, 0, n)
	for c := int32(0); c < int32(n); c++ {
		row := cs.reach[int(c)*cs.words : (int(c)+1)*cs.words]
		bitSet(row, c)
		stack = append(stack[:0], c)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range cs.out[cur] {
				if !bitTest(row, p) {
					bitSet(row, p)
					stack = append(stack, p)
				}
			}
		}
	}

	cs.sigma = make([]compiledConstraint, len(ds.Sigma))
	progIDs := 0
	for _, e := range ds.Sigma {
		progIDs += atomIDs(e)
	}
	ids := make([]int32, 0, progIDs)
	for i, e := range ds.Sigma {
		cc, err := cs.compileConstraint(e, &ids)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		cs.sigma[i] = cc
	}
	cs.into = make([][]int32, n)
	cs.fillInto(nil)

	// Σ(ds, c) per root category (constraint.SigmaFor).
	cs.sigmaFor = make([][]int32, n)
	relevant := 0
	for c := int32(0); c < int32(n); c++ {
		for i := range cs.sigma {
			if cs.relevant(c, cs.sigma[i].root) {
				relevant++
			}
		}
	}
	rows := make([]int32, 0, relevant)
	for c := int32(0); c < int32(n); c++ {
		start := len(rows)
		for i := range cs.sigma {
			if cs.relevant(c, cs.sigma[i].root) {
				rows = append(rows, int32(i))
			}
		}
		if len(rows) > start {
			cs.sigmaFor[c] = rows[start:len(rows):len(rows)]
		}
	}

	cs.consts = constraint.ValueDomains(ds.Sigma)

	met.compiles.Add(1)
	met.compileNano.Add(time.Since(start).Nanoseconds())
	return cs, nil
}

// compileConstraint resolves one Σ member against the interned graph:
// its root id, its program and the G-edges it forces. The program's
// category ids are appended to *ids, which atomIDs(e) more ids fit
// without growing.
func (cs *Compiled) compileConstraint(e constraint.Expr, ids *[]int32) (compiledConstraint, error) {
	root, err := constraint.Root(e)
	if err != nil {
		return compiledConstraint{}, err
	}
	cc := compiledConstraint{expr: e, root: -1, prog: cs.appendProg(nil, e, ids)}
	if root != "" {
		cc.root = cs.ids[root]
	}
	cc.structural = !slices.ContainsFunc(cc.prog, func(st cstep) bool { return st.op == opValue })
	// Only edges of G are forced: a non-edge path atom makes its
	// constraint unsatisfiable for populated roots, which CHECK handles;
	// forcing a non-edge would be unsound.
	for _, edge := range constraint.IntoEdges(e) {
		c, p := cs.id(edge[0]), cs.id(edge[1])
		if c >= 0 && p >= 0 && containsID(cs.out[c], p) {
			cc.forced = append(cc.forced, [2]int32{c, p})
		}
	}
	return cc, nil
}

// id returns the interned id of category name, -1 when G lacks it.
func (cs *Compiled) id(name string) int32 {
	if id, ok := cs.ids[name]; ok {
		return id
	}
	return -1
}

// atomIDs counts the category ids the atoms of e name, which its program
// holds.
func atomIDs(e constraint.Expr) int {
	n := 0
	constraint.Walk(e, func(a constraint.Atom) {
		switch a := a.(type) {
		case constraint.PathAtom:
			n += len(a.Cats)
		case constraint.ThroughAtom:
			n += 3
		default:
			n += 2
		}
	})
	return n
}

// appendProg appends the postfix program of e to prog, each atom's
// category ids carved out of *arena.
func (cs *Compiled) appendProg(prog []cstep, e constraint.Expr, arena *[]int32) []cstep {
	ids := func(names ...string) []int32 {
		start := len(*arena)
		for _, name := range names {
			*arena = append(*arena, cs.id(name))
		}
		return (*arena)[start:len(*arena):len(*arena)]
	}
	var op cop
	var xs []constraint.Expr
	switch e := e.(type) {
	case constraint.True:
		return append(prog, cstep{op: opTrue})
	case constraint.False:
		return append(prog, cstep{op: opFalse})
	case constraint.PathAtom:
		return append(prog, cstep{op: opPath, ids: ids(e.Cats...)})
	case constraint.RollupAtom:
		return append(prog, cstep{op: opRollup, ids: ids(e.RootCat, e.Cat)})
	case constraint.ThroughAtom:
		return append(prog, cstep{op: opThrough, ids: ids(e.RootCat, e.Via, e.Cat)})
	case constraint.EqAtom:
		return append(prog, cstep{op: opValue, ids: ids(e.RootCat, e.Cat)})
	case constraint.CmpAtom:
		return append(prog, cstep{op: opValue, ids: ids(e.RootCat, e.Cat)})
	case constraint.Not:
		op, xs = opNot, []constraint.Expr{e.X}
	case constraint.And:
		op, xs = opAnd, e.Xs
	case constraint.Or:
		op, xs = opOr, e.Xs
	case constraint.One:
		op, xs = opOne, e.Xs
	case constraint.Implies:
		op, xs = opImplies, []constraint.Expr{e.A, e.B}
	case constraint.Iff:
		op, xs = opIff, []constraint.Expr{e.A, e.B}
	case constraint.Xor:
		op, xs = opXor, []constraint.Expr{e.A, e.B}
	default:
		panic("core: unknown expression type")
	}
	for _, x := range xs {
		prog = cs.appendProg(prog, x, arena)
	}
	return append(prog, cstep{op: op, n: int32(len(xs))})
}

// fillInto builds the rows of cs's into-edge table from the edges its Σ
// members force: every row when only is nil, else the rows of the
// categories in the bitset only, each replaced by a new slice. A row
// lists its forced parents in ascending id order.
func (cs *Compiled) fillInto(only []uint64) {
	for c := range cs.into {
		if only == nil || bitTest(only, int32(c)) {
			cs.into[c] = nil
		}
	}
	for i := range cs.sigma {
		for _, e := range cs.sigma[i].forced {
			if only == nil || bitTest(only, e[0]) {
				cs.into[e[0]] = append(cs.into[e[0]], e[1])
			}
		}
	}
	for c, row := range cs.into {
		if len(row) > 1 && (only == nil || bitTest(only, int32(c))) {
			slices.Sort(row)
			cs.into[c] = slices.Compact(row)
		}
	}
}

// relevant reports whether a constraint rooted at r belongs to Σ(ds, c)
// (constraint.SigmaFor): it has no atoms (r < 0), or c reaches r in G.
func (cs *Compiled) relevant(c, r int32) bool {
	return r < 0 || bitTest(cs.reach[int(c)*cs.words:(int(c)+1)*cs.words], r)
}

// Source returns the dimension schema this form was compiled from.
func (cs *Compiled) Source() *DimensionSchema { return cs.src }

// rendering returns cs's source text, built on first use. A Compile
// result renders G and Σ; a derived schema takes its parent's pieces for
// the kept constraints and renders only the ones it added.
func (cs *Compiled) rendering() *rendering {
	cs.textOnce.Do(func() {
		r := &rendering{lines: make([]string, 0, len(cs.sigma))}
		if cs.base == nil {
			r.graph = cs.src.G.String()
		} else {
			br := cs.base.rendering()
			r.graph = br.graph
			if cs.keep == nil {
				r.lines = append(r.lines, br.lines...)
			} else {
				for _, i := range cs.keep {
					r.lines = append(r.lines, br.lines[i])
				}
			}
		}
		for _, cc := range cs.sigma[len(r.lines):] {
			r.lines = append(r.lines, constraintLine(cc.expr.String()))
		}
		cs.text = r
	})
	return cs.text
}

// Fingerprint returns the schema fingerprint (identical to
// Fingerprint(cs.Source())), computed once and cached.
func (cs *Compiled) Fingerprint() string {
	cs.fpOnce.Do(func() {
		if cs.fp == "" {
			cs.fp = cs.rendering().fingerprint(nil, "")
		}
	})
	return cs.fp
}

// negFingerprint returns Fingerprint(neg) for the schema obtained by
// appending extra to Σ — the Theorem 2 reduction schema — without
// re-rendering the whole schema: neg renders as the source text plus one
// constraint line, so the hash runs over the cached rendering and the
// line. ImpliesContext uses it to peek the satisfiability cache before
// deciding whether a derive (compile) is needed at all; the derived
// schema then takes its fingerprint from here instead of hashing
// again. Results are memoized per extra-constraint string with FIFO
// eviction: a warm implication then costs a map lookup, not a hash of
// the whole rendering.
func (cs *Compiled) negFingerprint(extra constraint.Expr) string {
	key := extra.String()
	if fp, ok := cs.cachedNegFingerprint(key); ok {
		return fp
	}
	fp := cs.rendering().fingerprint(nil, constraintLine(key))

	cs.negMu.Lock()
	if _, dup := cs.negFP[key]; !dup {
		if cs.negFP == nil {
			cs.negFP = map[string]string{}
		}
		cs.negFP[key] = fp
		cs.negOrder = append(cs.negOrder, key)
		for len(cs.negOrder) > negFingerprintMax {
			delete(cs.negFP, cs.negOrder[0])
			cs.negOrder = cs.negOrder[1:]
		}
	}
	cs.negMu.Unlock()
	return fp
}

// derivedFingerprint returns the Fingerprint of the schema derive(keep,
// extra) builds, hashed from cs's rendering pieces without deriving it:
// the graph, the kept constraint lines and extra's line. A reduction
// schema (keep nil) takes it from negFingerprint's memo.
func (cs *Compiled) derivedFingerprint(keep []int, extra constraint.Expr) string {
	if keep == nil && extra != nil {
		return cs.negFingerprint(extra)
	}
	line := ""
	if extra != nil {
		line = constraintLine(extra.String())
	}
	return cs.rendering().fingerprint(keep, line)
}

// cachedNegFingerprint answers negFingerprint from its cache; key is the
// extra constraint's string form.
func (cs *Compiled) cachedNegFingerprint(key string) (string, bool) {
	cs.negMu.Lock()
	defer cs.negMu.Unlock()
	fp, ok := cs.negFP[key]
	return fp, ok
}

// Stats snapshots the compiled schema's shape and compile activity.
func (cs *Compiled) Stats() CompiledStats {
	return CompiledStats{
		Categories:     len(cs.names),
		Edges:          cs.edges,
		Constraints:    len(cs.sigma),
		Compiles:       cs.met.compiles.Load(),
		CompileSeconds: float64(cs.met.compileNano.Load()) / 1e9,
	}
}

// derive builds the compiled schema whose Σ is the members of cs's Σ at
// the ascending indexes keep (all of them when keep is nil) followed by
// extra (nothing when nil): ImpliesReduction sets only extra (¬α),
// Explain's shrink probes only keep, and Lint's redundancy probes both.
// Nothing caches the result; each call counts one compile. It starts
// from cs's tables and analyses only the constraints that changed —
// extra and the dropped members:
//   - a sigmaFor row is rebuilt only when it lists a member at or past
//     the first dropped one, or extra is relevant for its root;
//   - an into-edge row is rebuilt only when a changed constraint forces
//     an edge out of its category;
//   - the value domains are rebuilt only when a changed constraint has
//     equality or order atoms.
//
// Every other table and row, every kept member's compiled form, and the
// interned graph and closure, is shared with cs.
func (cs *Compiled) derive(keep []int, extra constraint.Expr) (*Compiled, error) {
	start := time.Now()
	d := &Compiled{
		names:  cs.names,
		ids:    cs.ids,
		allID:  cs.allID,
		words:  cs.words,
		out:    cs.out,
		reach:  cs.reach,
		into:   cs.into,
		edges:  cs.edges,
		consts: cs.consts,
		base:   cs,
		met:    cs.met,
	}

	// forcing marks the categories out of which a dropped member or
	// extra forces an edge; structural records whether all of those
	// constraints are.
	var forcing []uint64
	structural := true
	changed := func(cc *compiledConstraint) {
		structural = structural && cc.structural
		for _, e := range cc.forced {
			if forcing == nil {
				forcing = make([]uint64, cs.words)
			}
			bitSet(forcing, e[0])
		}
	}
	// at maps an index of cs's Σ to its index in d's, -1 when dropped;
	// nil when every member keeps its index. Indexes below firstDrop
	// never move.
	var at []int32
	firstDrop := len(cs.sigma)
	if keep == nil {
		d.sigma = make([]compiledConstraint, len(cs.sigma), len(cs.sigma)+1)
		copy(d.sigma, cs.sigma)
	} else {
		d.keep = keep
		d.sigma = make([]compiledConstraint, 0, len(keep))
		at = make([]int32, len(cs.sigma))
		for i := range at {
			at[i] = -1
		}
		for j, i := range keep {
			at[i] = int32(j)
			d.sigma = append(d.sigma, cs.sigma[i])
		}
		for i, j := range at {
			if j < 0 {
				firstDrop = min(firstDrop, i)
				changed(&cs.sigma[i])
			}
		}
	}
	added := int32(-1)
	if extra != nil {
		ids := make([]int32, 0, atomIDs(extra))
		cc, err := cs.compileConstraint(extra, &ids)
		if err != nil {
			return nil, fmt.Errorf("core: derive: %w", err)
		}
		added = int32(len(d.sigma))
		d.sigma = append(d.sigma, cc)
		changed(&cc)
	}
	sigma := make([]constraint.Expr, len(d.sigma))
	for i := range d.sigma {
		sigma[i] = d.sigma[i].expr
	}
	d.src = &DimensionSchema{G: cs.src.G, Sigma: sigma}

	d.sigmaFor = make([][]int32, len(cs.sigmaFor))
	for c, row := range cs.sigmaFor {
		addHere := added >= 0 && cs.relevant(int32(c), d.sigma[added].root)
		if !addHere && (len(row) == 0 || int(row[len(row)-1]) < firstDrop) {
			d.sigmaFor[c] = row
			continue
		}
		next := make([]int32, 0, len(row)+1)
		for _, i := range row {
			if at == nil {
				next = append(next, i)
			} else if j := at[i]; j >= 0 {
				next = append(next, j)
			}
		}
		if addHere {
			next = append(next, added)
		}
		d.sigmaFor[c] = next
	}
	if forcing != nil {
		d.into = slices.Clone(cs.into)
		d.fillInto(forcing)
	}
	if !structural {
		d.consts = constraint.ValueDomains(sigma)
	}

	cs.met.compiles.Add(1)
	cs.met.compileNano.Add(time.Since(start).Nanoseconds())
	return d, nil
}
