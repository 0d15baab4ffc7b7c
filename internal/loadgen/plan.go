package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"olapdim/internal/api"
	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/schema"
)

// Request is one planned HTTP request. Everything the executor needs is
// rendered up front — method, path (with query), JSON body — so the
// stream a planner emits is a pure function of the seed and can be
// compared byte for byte across runs.
type Request struct {
	// Index is the position in the stream, starting at 0.
	Index int `json:"index"`
	// Op is the workload operation (OpSat, ...), the key latency is
	// reported under.
	Op string `json:"op"`
	// Method and Path form the request line; Path includes the query.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Body is the JSON request body for POSTs, empty otherwise.
	Body string `json:"body,omitempty"`
}

// Line renders the request as one log line, the unit of the dry-run
// request log and the determinism test.
func (r Request) Line() string {
	if r.Body == "" {
		return fmt.Sprintf("%06d %s %s %s", r.Index, r.Op, r.Method, r.Path)
	}
	return fmt.Sprintf("%06d %s %s %s %s", r.Index, r.Op, r.Method, r.Path, r.Body)
}

// Planner emits the deterministic request stream for one spec. It is not
// safe for concurrent use; the runner consumes it from a single
// producer goroutine, which is also what keeps the stream order
// reproducible.
type Planner struct {
	rng   *rand.Rand
	spec  Spec
	ds    *core.DimensionSchema
	ops   []string // operations with positive weight, canonical order
	cum   []int    // cumulative weights aligned with ops
	total int

	cats      []string            // all categories except All
	nonBottom []string            // non-All, non-bottom categories
	sigma     []string            // rendered schema constraints
	edges     [][2]string         // (child, parent) edges excluding All
	below     map[string][]string // target -> categories that reach it (strictly below)

	n int
}

// NewPlanner builds the planner and the schema it samples from. When
// spec.SchemaText is empty the schema comes from internal/gen with
// spec.Seed threaded into the generator, so one seed pins both the
// schema family instance and the request sampling.
func NewPlanner(spec Spec) (*Planner, error) {
	spec = spec.withDefaults()
	var ds *core.DimensionSchema
	var err error
	if spec.SchemaText != "" {
		ds, err = core.Parse(spec.SchemaText)
		if err != nil {
			return nil, fmt.Errorf("loadgen: parsing schema text: %w", err)
		}
	} else {
		ss := spec.Schema
		ss.Seed = spec.Seed
		ds, err = gen.Schema(ss)
		if err != nil {
			return nil, fmt.Errorf("loadgen: generating schema: %w", err)
		}
	}
	p := &Planner{
		rng:   rand.New(rand.NewSource(spec.Seed)),
		spec:  spec,
		ds:    ds,
		below: map[string][]string{},
	}
	for _, op := range Ops() {
		if w := spec.Mix[op]; w > 0 {
			p.ops = append(p.ops, op)
			p.total += w
			p.cum = append(p.cum, p.total)
		}
	}
	if p.total == 0 {
		return nil, fmt.Errorf("loadgen: workload mix has no positive weights")
	}
	bottoms := map[string]bool{}
	for _, b := range ds.G.Bottoms() {
		bottoms[b] = true
	}
	for _, c := range ds.G.SortedCategories() {
		if c == schema.All {
			continue
		}
		p.cats = append(p.cats, c)
		if !bottoms[c] {
			p.nonBottom = append(p.nonBottom, c)
		}
		for _, parent := range ds.G.Out(c) {
			if parent != schema.All {
				p.edges = append(p.edges, [2]string{c, parent})
			}
		}
	}
	for _, e := range ds.Sigma {
		p.sigma = append(p.sigma, fmt.Sprint(e))
	}
	for _, target := range p.nonBottom {
		var srcs []string
		for _, c := range p.cats {
			if c != target && ds.G.Reaches(c, target) {
				srcs = append(srcs, c)
			}
		}
		sort.Strings(srcs)
		p.below[target] = srcs
	}
	return p, nil
}

// Schema returns the schema the planner samples requests from — the one
// the target server must host for the stream to be valid.
func (p *Planner) Schema() *core.DimensionSchema { return p.ds }

// Next returns the next request in the stream. The planner picks the
// arguments; the read's entry in internal/api renders the request.
func (p *Planner) Next() Request {
	op := p.pickOp()
	req := Request{Index: p.n, Op: op}
	p.n++
	var a api.Args
	switch op {
	case OpSat, OpExplain:
		a.Category = p.pick(p.cats)
	case OpImplies:
		a.Constraint = p.pickConstraint()
	case OpSummarizable:
		a.Target, a.From = p.pickSummarizable()
	case OpSources:
		a.Target, a.Max = p.pickTarget(), p.spec.SourcesMax
	case OpJobs:
		req.Method, req.Path = "POST", "/jobs"
		req.Body = mustJSON(map[string]string{"category": p.pick(p.cats), "kind": "sat"})
		return req
	}
	read := api.Lookup(op)
	if read == nil {
		panic(fmt.Sprintf("loadgen: unknown op %q", op))
	}
	req.Method = read.Method
	req.Path, req.Body = read.Render(a)
	return req
}

// pickOp draws an operation according to the mix weights.
func (p *Planner) pickOp() string {
	r := p.rng.Intn(p.total)
	for i, c := range p.cum {
		if r < c {
			return p.ops[i]
		}
	}
	return p.ops[len(p.ops)-1]
}

func (p *Planner) pick(xs []string) string { return xs[p.rng.Intn(len(xs))] }

// pickTarget prefers non-bottom categories (bottoms have nothing below
// them to summarize from) and falls back to any category.
func (p *Planner) pickTarget() string {
	if len(p.nonBottom) > 0 {
		return p.pick(p.nonBottom)
	}
	return p.pick(p.cats)
}

// pickConstraint draws the implication query: half the time a constraint
// the schema itself states (the implied case), otherwise a path
// constraint synthesized from a real edge (usually not implied), so both
// branches of the Theorem 2 reduction stay exercised.
func (p *Planner) pickConstraint() string {
	if len(p.sigma) > 0 && p.rng.Intn(2) == 0 {
		return p.pick(p.sigma)
	}
	if len(p.edges) == 0 {
		if len(p.sigma) > 0 {
			return p.pick(p.sigma)
		}
		// A trivial tautology; reachable only on degenerate schemas.
		return "true"
	}
	e := p.edges[p.rng.Intn(len(p.edges))]
	return constraint.NewPath(e[0], e[1]).String()
}

// pickSummarizable draws a target and one or two distinct source
// categories strictly below it.
func (p *Planner) pickSummarizable() (string, []string) {
	target := p.pickTarget()
	srcs := p.below[target]
	if len(srcs) == 0 {
		// Bottom-only fallback: query the target from itself, which the
		// engine answers trivially.
		return target, []string{target}
	}
	k := 1
	if len(srcs) > 1 && p.rng.Intn(2) == 0 {
		k = 2
	}
	perm := p.rng.Perm(len(srcs))[:k]
	sort.Ints(perm)
	from := make([]string, k)
	for i, idx := range perm {
		from[i] = srcs[idx]
	}
	return target, from
}

// WriteStream renders the next n requests of the stream as log lines,
// one per request — the dry-run output. Two planners built from equal
// specs produce byte-identical streams; TestPlannerDeterminism holds
// this contract.
func (p *Planner) WriteStream(w io.Writer, n int) error {
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintln(w, p.Next().Line()); err != nil {
			return err
		}
	}
	return nil
}

// mustJSON marshals a value whose keys are plain strings; encoding/json
// sorts map keys, so rendered bodies are deterministic.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshaling request body: %v", err))
	}
	return string(b)
}
