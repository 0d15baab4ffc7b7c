package olap

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"olapdim/internal/core"
	"olapdim/internal/instance"
)

// Oracle answers summarizability questions for the aggregate navigator.
// Two implementations exist: InstanceOracle (Theorem 1 evaluated on one
// dimension instance) and SchemaOracle (constraint implication over the
// dimension schema via DIMSAT, valid for every instance of the schema).
type Oracle interface {
	Summarizable(target string, from []string) bool
}

// ContextOracle is an Oracle that can propagate cancellation and surface
// budget errors. SchemaOracle implements it; context-aware callers (e.g.
// SelectViewsContext) type-assert for it and fall back to the plain
// Oracle method otherwise.
type ContextOracle interface {
	Oracle
	SummarizableContext(ctx context.Context, target string, from []string) (bool, error)
}

// InstanceOracle tests Theorem 1 directly on a dimension instance.
type InstanceOracle struct {
	D *instance.Instance
}

// Summarizable implements Oracle.
func (o InstanceOracle) Summarizable(target string, from []string) bool {
	return core.SummarizableInInstance(o.D, target, from)
}

// SchemaOracle tests summarizability at the schema level: the answer is
// valid for every dimension instance over the schema. Results are memoized
// since DIMSAT runs are considerably more expensive than map lookups; the
// memo is guarded by a mutex, so one oracle may serve concurrent
// goroutines (e.g. the navigator behind a request fan-out). Point Opts at
// a shared core.SatCache to also share the underlying bottom-category
// walks with other oracles and the batch surfaces.
type SchemaOracle struct {
	DS   *core.DimensionSchema
	Opts core.Options

	mu    sync.Mutex
	cache map[string]bool
}

// Summarizable implements Oracle with a background context; errors
// (including budget exhaustion) count as not-certified, keeping the
// navigator on its safe fallback path.
func (o *SchemaOracle) Summarizable(target string, from []string) bool {
	v, _ := o.SummarizableContext(context.Background(), target, from)
	return v
}

// SummarizableContext decides summarizability under a context and the
// oracle's Options budget. Memoized certificates are returned without
// consulting the context; errors are not memoized, so a call with a
// larger budget can later settle the question.
func (o *SchemaOracle) SummarizableContext(ctx context.Context, target string, from []string) (bool, error) {
	key := target + "<=" + strings.Join(from, ",")
	o.mu.Lock()
	if v, ok := o.cache[key]; ok {
		o.mu.Unlock()
		return v, nil
	}
	o.mu.Unlock()
	rep, err := core.SummarizableContext(ctx, o.DS, target, from, o.Opts)
	if err != nil {
		return false, err
	}
	v := rep.Summarizable()
	o.mu.Lock()
	if o.cache == nil {
		o.cache = map[string]bool{}
	}
	o.cache[key] = v
	o.mu.Unlock()
	return v, nil
}

// Plan describes how the navigator answered a query.
type Plan struct {
	// Target is the queried category.
	Target string
	// Sources lists the materialized categories used; empty when the
	// query was answered from the base fact table.
	Sources []string
	// FromBase reports whether the base fact table was scanned.
	FromBase bool
}

func (p Plan) String() string {
	if p.FromBase {
		return fmt.Sprintf("%s from base facts", p.Target)
	}
	return fmt.Sprintf("%s from {%s}", p.Target, strings.Join(p.Sources, ", "))
}

// Navigator is an aggregate navigator (Kimball, Section 1.2 of the paper):
// it answers cube-view queries from materialized cube views when the
// oracle proves the rewriting correct, falling back to the fact table.
type Navigator struct {
	d      *instance.Instance
	f      *FactTable
	oracle Oracle
	views  map[AggFunc]map[string]*CubeView
}

// NewNavigator builds a navigator over one dimension instance and fact
// table.
func NewNavigator(d *instance.Instance, f *FactTable, oracle Oracle) *Navigator {
	return &Navigator{d: d, f: f, oracle: oracle, views: map[AggFunc]map[string]*CubeView{}}
}

// Materialize computes and stores the cube view for (c, af).
func (n *Navigator) Materialize(c string, af AggFunc) *CubeView {
	v := Compute(n.d, n.f, c, af)
	if n.views[af] == nil {
		n.views[af] = map[string]*CubeView{}
	}
	n.views[af][c] = v
	return v
}

// Materialized returns the categories materialized for af, sorted.
func (n *Navigator) Materialized(af AggFunc) []string {
	var out []string
	for c := range n.views[af] {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Query answers the cube view for (c, af): from a stored view if present;
// else from the smallest set of materialized views the oracle certifies;
// else from the base fact table.
func (n *Navigator) Query(c string, af AggFunc) (*CubeView, Plan, error) {
	if v, ok := n.views[af][c]; ok {
		return v, Plan{Target: c, Sources: []string{c}}, nil
	}
	avail := n.Materialized(af)
	if set, ok := n.bestSource(c, avail); ok {
		var views []*CubeView
		for _, ci := range set {
			views = append(views, n.views[af][ci])
		}
		v, err := RollupFrom(n.d, views, c)
		if err != nil {
			return nil, Plan{}, err
		}
		return v, Plan{Target: c, Sources: set}, nil
	}
	return Compute(n.d, n.f, c, af), Plan{Target: c, FromBase: true}, nil
}

// bestSource searches the subsets of the available categories, smallest
// first, for one the oracle certifies c summarizable from. Navigators hold
// few materialized views, so the subset search is cheap in practice.
func (n *Navigator) bestSource(c string, avail []string) ([]string, bool) {
	set, ok, _ := smallestCertified(func(target string, from []string) (bool, error) {
		return n.oracle.Summarizable(target, from), nil
	}, c, avail)
	return set, ok
}
