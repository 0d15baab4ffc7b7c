package core

import (
	"sort"

	"olapdim/internal/schema"
)

// Provenance describes what one DIMSAT run actually consulted: the
// touched set of a search. It is collected only when Options.Provenance
// is set — the search carries a nil collector otherwise, so the default
// path pays one pointer test per marking site.
//
// The touched set is the future delta API's invalidation key: a stored
// verdict only depends on the categories, edges and constraints listed
// here, so a schema edit disjoint from them cannot change it.
type Provenance struct {
	// Categories the search placed in any candidate subhierarchy: the
	// root plus every endpoint of an applied edge. Sorted.
	Categories []string `json:"categories"`
	// Edges applied by EXPAND steps, as [child, parent] pairs in the
	// child-rolls-up-to-parent direction. Sorted lexicographically.
	Edges [][2]string `json:"edges,omitempty"`
	// Sigma holds the indices (into the queried schema's Σ) of the
	// constraints CHECK consulted: a relevant constraint is touched by a
	// CHECK when it is rootless or its root category is in the candidate
	// subhierarchy (anything else is vacuously true by Definition 4 and
	// is skipped without reading the constraint). Sorted ascending.
	Sigma []int `json:"sigma,omitempty"`
	// Frontier lists the categories at which pruning abandoned branches
	// (the ctop of every dead end). For an UNSAT verdict these are the
	// places the search died; schema.All appears when a cycle swallowed
	// the frontier. Sorted.
	Frontier []string `json:"frontier,omitempty"`
}

// provCollector accumulates the touched set during one run, marked with
// category names (interned ids resolved back to strings).
type provCollector struct {
	cats     map[string]bool
	edges    map[[2]string]bool
	sigma    map[int]bool
	frontier map[string]bool
}

func newProvCollector(root string) *provCollector {
	return &provCollector{
		cats:     map[string]bool{root: true},
		edges:    map[[2]string]bool{},
		sigma:    map[int]bool{},
		frontier: map[string]bool{},
	}
}

func (p *provCollector) markEdge(c, parent string) {
	p.cats[c] = true
	p.cats[parent] = true
	p.edges[[2]string{c, parent}] = true
}

func (p *provCollector) markSigma(idx int)       { p.sigma[idx] = true }
func (p *provCollector) markFrontier(cat string) { p.frontier[cat] = true }

// finalize renders the collected sets in deterministic order.
func (p *provCollector) finalize() *Provenance {
	out := &Provenance{
		Categories: sortedKeys(p.cats),
		Frontier:   sortedKeys(p.frontier),
	}
	for e := range p.edges {
		out.Edges = append(out.Edges, e)
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i][0] != out.Edges[j][0] {
			return out.Edges[i][0] < out.Edges[j][0]
		}
		return out.Edges[i][1] < out.Edges[j][1]
	})
	for i := range p.sigma {
		out.Sigma = append(out.Sigma, i)
	}
	sort.Ints(out.Sigma)
	return out
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// trivialProvenance is the touched set of the Proposition 1 fast path:
// c == All is decided without a search, consulting nothing but the root.
func trivialProvenance() *Provenance {
	return &Provenance{Categories: []string{schema.All}}
}
