package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

	// fp is preset by Derive when a cache peek already hashed the derived
	// schema's text (negFingerprint); otherwise Fingerprint hashes on
	// first use.
	fpOnce sync.Once
	fp     string

	// Fingerprints of derived (negated implication) schemas, keyed by the
	// extra constraint's string form and evicted FIFO. Kept separate from
	// the derived-schema cache so fingerprint lookups (cache peeks) never
	// force a compile.
	negMu    sync.Mutex
	negFP    map[string]string
	negOrder []string

	met *compileCounters

	// Derived compiled schemas for implication queries (the source schema
	// plus one extra constraint), keyed by the extra constraint's string
	// form and evicted FIFO.
	deriveMu    sync.Mutex
	derived     map[string]*Compiled
	deriveOrder []string
	deriveMax   int
}

// compiledConstraint is one Σ entry with its pre-resolved root id.
// structural marks constraints built only from path/rollup/through atoms
// and connectives: on a complete subhierarchy the circle operator decides
// every atom, so CHECK can evaluate them directly over the bitsets
// instead of going through constraint.Reduce.
type compiledConstraint struct {
	expr       constraint.Expr
	root       int32 // -1 when the constraint has no atoms
	structural bool
}

// rendering is a compiled schema's source text in pieces: the hierarchy
// schema, then one constraintLine per Σ member. The pieces concatenate to
// DimensionSchema.String, so a derived schema can share its parent's
// pieces instead of rendering the whole schema again.
type rendering struct {
	graph string
	lines []string
}

// fingerprint is schemaFingerprint of the rendered schema with extra (zero
// or more constraint lines) appended to its text.
func (r *rendering) fingerprint(extra string) string {
	n := len(r.graph) + len(extra)
	for _, l := range r.lines {
		n += len(l)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, r.graph...)
	for _, l := range r.lines {
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
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
}

// CompiledStats is a point-in-time snapshot of a compiled schema's shape
// and of the compile/derive-cache activity since Compile.
type CompiledStats struct {
	Categories  int // categories in the schema graph, including All
	Edges       int // child→parent edges in the schema graph
	Constraints int // constraints in Σ

	Compiles        uint64  // compilations performed (initial + derived)
	CompileSeconds  float64 // cumulative wall-clock compile time
	DeriveHits      uint64  // derived-schema cache hits
	DeriveMisses    uint64  // derived-schema cache misses
	DeriveEvictions uint64  // derived-schema cache evictions
}

// deriveCacheMax bounds the per-schema cache of derived (negated
// implication) compilations.
const deriveCacheMax = 256

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
		src:       ds,
		names:     names,
		ids:       make(map[string]int32, n),
		words:     bitWords(n),
		met:       met,
		deriveMax: deriveCacheMax,
	}
	for i, name := range names {
		cs.ids[name] = int32(i)
	}
	cs.allID = cs.ids[schema.All]

	cs.out = make([][]int32, n)
	for i, name := range names {
		children := ds.G.Out(name)
		if len(children) == 0 {
			continue
		}
		row := make([]int32, len(children))
		for j, p := range children {
			row[j] = cs.ids[p]
		}
		cs.out[i] = row
		cs.edges += len(row)
	}

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

	cs.into = cs.intoTable(ds.Sigma)

	cs.sigma = make([]compiledConstraint, len(ds.Sigma))
	for i, e := range ds.Sigma {
		cc, err := cs.compileConstraint(e)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		cs.sigma[i] = cc
	}

	// Σ(ds, c) per root category (constraint.SigmaFor).
	cs.sigmaFor = make([][]int32, n)
	for c := int32(0); c < int32(n); c++ {
		for i := range cs.sigma {
			if cs.relevant(c, cs.sigma[i].root) {
				cs.sigmaFor[c] = append(cs.sigmaFor[c], int32(i))
			}
		}
	}

	cs.consts = constraint.ValueDomains(ds.Sigma)

	met.compiles.Add(1)
	met.compileNano.Add(time.Since(start).Nanoseconds())
	return cs, nil
}

// compileConstraint resolves one Σ member against the interned graph:
// its root id and whether it is structural.
func (cs *Compiled) compileConstraint(e constraint.Expr) (compiledConstraint, error) {
	root, err := constraint.Root(e)
	if err != nil {
		return compiledConstraint{}, err
	}
	cc := compiledConstraint{expr: e, root: -1, structural: isStructural(e)}
	if root != "" {
		cc.root = cs.ids[root]
	}
	return cc, nil
}

// intoTable resolves the into-edges sigma forces (constraint.IntoEdges)
// to rows of parent ids. Only edges of G are kept: a non-edge path atom
// makes its constraint unsatisfiable for populated roots, which CHECK
// handles; forcing a non-edge would be unsound. IntoEdges returns
// parents sorted by name, which is ascending-id order under the sorted
// interning.
func (cs *Compiled) intoTable(sigma []constraint.Expr) [][]int32 {
	into := make([][]int32, len(cs.names))
	for c, ps := range constraint.IntoEdges(sigma) {
		ci, ok := cs.ids[c]
		if !ok {
			continue
		}
		for _, p := range ps {
			if cs.src.G.HasEdge(c, p) {
				into[ci] = append(into[ci], cs.ids[p])
			}
		}
	}
	return into
}

// relevant reports whether a constraint rooted at r belongs to Σ(ds, c)
// (constraint.SigmaFor): it has no atoms (r < 0), or c reaches r in G.
func (cs *Compiled) relevant(c, r int32) bool {
	return r < 0 || bitTest(cs.reach[int(c)*cs.words:(int(c)+1)*cs.words], r)
}

// isStructural reports whether e mentions no equality or order atoms.
func isStructural(e constraint.Expr) bool {
	structural := true
	constraint.Walk(e, func(a constraint.Atom) {
		switch a.(type) {
		case constraint.EqAtom, constraint.CmpAtom:
			structural = false
		}
	})
	return structural
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
			cs.fp = cs.rendering().fingerprint("")
		}
	})
	return cs.fp
}

// negFingerprint returns Fingerprint(neg) for the schema obtained by
// appending extra to Σ — the Theorem 2 reduction schema — without
// re-rendering the whole schema: neg renders as the source text plus one
// constraint line, so the hash runs over the cached rendering and the
// line. ImpliesContext uses it to peek the satisfiability cache before
// deciding whether a derive (compile) is needed at all; Derive then takes
// the derived schema's fingerprint from here instead of hashing again.
// Results are cached per extra-constraint string with FIFO eviction.
func (cs *Compiled) negFingerprint(extra constraint.Expr) string {
	key := extra.String()
	if fp, ok := cs.cachedNegFingerprint(key); ok {
		return fp
	}
	fp := cs.rendering().fingerprint(constraintLine(key))

	cs.negMu.Lock()
	if _, dup := cs.negFP[key]; !dup {
		if cs.negFP == nil {
			cs.negFP = map[string]string{}
		}
		cs.negFP[key] = fp
		cs.negOrder = append(cs.negOrder, key)
		for len(cs.negOrder) > deriveCacheMax {
			delete(cs.negFP, cs.negOrder[0])
			cs.negOrder = cs.negOrder[1:]
		}
	}
	cs.negMu.Unlock()
	return fp
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
		Categories:      len(cs.names),
		Edges:           cs.edges,
		Constraints:     len(cs.sigma),
		Compiles:        cs.met.compiles.Load(),
		CompileSeconds:  float64(cs.met.compileNano.Load()) / 1e9,
		DeriveHits:      cs.met.hits.Load(),
		DeriveMisses:    cs.met.misses.Load(),
		DeriveEvictions: cs.met.evictions.Load(),
	}
}

// Derive compiles the schema obtained by appending extra to Σ, starting
// from cs's tables and analysing only extra (see derive). The derived
// schema's Source() is content-identical to the negated schema built by
// ImpliesReduction, so fingerprints — and therefore cache and checkpoint
// keys — agree with it. Results are cached per extra-constraint string
// with FIFO eviction.
func (cs *Compiled) Derive(extra constraint.Expr) (*Compiled, error) {
	key := extra.String()
	if d, ok := cs.deriveLookup(key); ok {
		return d, nil
	}
	if err := constraint.Validate(extra, cs.src.G); err != nil {
		return nil, fmt.Errorf("core: derive: %w", err)
	}
	d, err := cs.derive(nil, extra)
	if err != nil {
		return nil, err
	}
	// A cache peek (negFingerprint) has usually hashed Σ ∪ {extra}
	// already; otherwise Fingerprint hashes on first use.
	d.fp, _ = cs.cachedNegFingerprint(key)
	return cs.deriveStore(key, d), nil
}

// deriveSubset compiles the schema whose Σ is the subset of the source Σ
// selected by keep (ascending original indices), sharing cs's tables and
// the Derive cache. ExplainContext's shrink probes use it so a subset
// probed repeatedly — within one call or across requests — compiles once.
// The cache key is prefixed with a NUL byte, which no constraint's
// rendered form starts with, so subset entries cannot collide with
// Derive's per-constraint entries.
func (cs *Compiled) deriveSubset(keep []int) (*Compiled, error) {
	mask := make([]byte, (len(cs.src.Sigma)+7)/8)
	for _, i := range keep {
		mask[i/8] |= 1 << uint(i%8)
	}
	key := "\x00subset:" + hex.EncodeToString(mask)
	if d, ok := cs.deriveLookup(key); ok {
		return d, nil
	}
	// A non-nil copy even when empty: derive reads a nil keep as all of Σ.
	d, err := cs.derive(append(make([]int, 0, len(keep)), keep...), nil)
	if err != nil {
		return nil, err
	}
	return cs.deriveStore(key, d), nil
}

// derive builds the compiled schema whose Σ is the members of cs's Σ at
// the ascending indexes keep (all of them when keep is nil) followed by
// extra (nothing when nil). It starts from cs's tables and analyses only
// the constraints that changed — extra and the dropped members:
//   - a sigmaFor row is rebuilt only when it lists a member at or past
//     the first dropped one, or extra is relevant for its root;
//   - the into-edge table is rebuilt only when a changed constraint
//     forces an into-edge;
//   - the value domains are rebuilt only when a changed constraint has
//     equality or order atoms.
//
// Every other table, and the interned graph and closure, is shared with
// cs.
func (cs *Compiled) derive(keep []int, extra constraint.Expr) (*Compiled, error) {
	start := time.Now()
	d := &Compiled{
		names:     cs.names,
		ids:       cs.ids,
		allID:     cs.allID,
		words:     cs.words,
		out:       cs.out,
		reach:     cs.reach,
		into:      cs.into,
		edges:     cs.edges,
		consts:    cs.consts,
		base:      cs,
		met:       cs.met,
		deriveMax: cs.deriveMax,
	}

	// changed lists the dropped members and extra; structural records
	// whether all of them are.
	var changed []constraint.Expr
	structural := true
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
				changed = append(changed, cs.sigma[i].expr)
				structural = structural && cs.sigma[i].structural
			}
		}
	}
	added := int32(-1)
	if extra != nil {
		cc, err := cs.compileConstraint(extra)
		if err != nil {
			return nil, fmt.Errorf("core: derive: %w", err)
		}
		added = int32(len(d.sigma))
		d.sigma = append(d.sigma, cc)
		changed = append(changed, extra)
		structural = structural && cc.structural
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
	if len(constraint.IntoEdges(changed)) > 0 {
		d.into = d.intoTable(sigma)
	}
	if !structural {
		d.consts = constraint.ValueDomains(sigma)
	}

	cs.met.compiles.Add(1)
	cs.met.compileNano.Add(time.Since(start).Nanoseconds())
	return d, nil
}

// deriveLookup answers a derive-cache probe, counting a hit.
func (cs *Compiled) deriveLookup(key string) (*Compiled, bool) {
	cs.deriveMu.Lock()
	defer cs.deriveMu.Unlock()
	if d, ok := cs.derived[key]; ok {
		cs.met.hits.Add(1)
		return d, true
	}
	return nil, false
}

// deriveStore caches a freshly derived schema under key with FIFO
// eviction and returns the cached entry: d, or the entry of a concurrent
// derive of the same key that got there first.
func (cs *Compiled) deriveStore(key string, d *Compiled) *Compiled {
	cs.deriveMu.Lock()
	defer cs.deriveMu.Unlock()
	if prev, ok := cs.derived[key]; ok {
		// Lost a race with a concurrent Derive; keep the first entry.
		cs.met.hits.Add(1)
		return prev
	}
	cs.met.misses.Add(1)
	if cs.derived == nil {
		cs.derived = make(map[string]*Compiled, cs.deriveMax)
	}
	cs.derived[key] = d
	cs.deriveOrder = append(cs.deriveOrder, key)
	for len(cs.deriveOrder) > cs.deriveMax {
		victim := cs.deriveOrder[0]
		cs.deriveOrder = cs.deriveOrder[1:]
		delete(cs.derived, victim)
		cs.met.evictions.Add(1)
	}
	return d
}
