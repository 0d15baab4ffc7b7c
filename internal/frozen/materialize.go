package frozen

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"olapdim/internal/constraint"
	"olapdim/internal/instance"
	"olapdim/internal/schema"
)

// Frozen is a frozen dimension of a dimension schema with a given root:
// a subhierarchy together with a satisfying c-assignment (Definition 5).
// The injective function φ maps each category to the member named after it.
// A Frozen is not modified once built: String renders it once and returns
// that text from then on.
type Frozen struct {
	G      *Subhierarchy
	Assign Assignment

	// text memoizes String: a witness retained in a satisfiability cache
	// is rendered for every answer that carries it.
	text atomic.Pointer[string]
}

// Phi returns φ(c): the member representing category c in the materialized
// instance. All maps to the fixed member all (condition C4).
func Phi(c string) string {
	if c == schema.All {
		return instance.AllMember
	}
	return "φ" + c
}

// FreshNK returns a constant not mentioned anywhere in sigma, to stand for
// nk during materialization.
func FreshNK(consts map[string][]string) string {
	used := map[string]bool{}
	for _, vs := range consts {
		for _, v := range vs {
			used[v] = true
		}
	}
	nk := "nk"
	for used[nk] {
		nk += "'"
	}
	return nk
}

// ToInstance materializes the frozen dimension as a dimension instance over
// G: one member φ(c) per category of the subhierarchy, child/parent links
// mirroring the subhierarchy edges, and Name given by the c-assignment
// (categories carrying NK receive a fresh constant outside Σ).
func (f *Frozen) ToInstance(G *schema.Schema, consts map[string][]string) (*instance.Instance, error) {
	d := instance.New(G)
	nk := FreshNK(consts)
	for _, c := range f.G.Categories() {
		if c == schema.All {
			continue
		}
		if err := d.AddMember(c, Phi(c)); err != nil {
			return nil, err
		}
		name := f.Assign.Get(c)
		if name == NK {
			name = nk
		}
		if err := d.SetName(Phi(c), name); err != nil {
			return nil, err
		}
	}
	for _, e := range f.G.Edges() {
		if err := d.AddLink(Phi(e[0]), Phi(e[1])); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Key canonically identifies the frozen dimension for deduplication.
// NK entries are dropped: an assignment that maps a category to NK is
// semantically identical to one that omits the category (Get returns NK
// for absent keys).
func (f *Frozen) Key() string {
	return f.G.Key() + "@" + f.Assign.canonical()
}

// String renders the frozen dimension as edges plus non-nk names, matching
// the presentation of Figure 4 of the paper.
func (f *Frozen) String() string {
	if s := f.text.Load(); s != nil {
		return *s
	}
	var names []string
	cats := make([]string, 0, len(f.Assign))
	for c := range f.Assign {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		if v := f.Assign[c]; v != NK {
			names = append(names, fmt.Sprintf("%s=%s", c, v))
		}
	}
	s := f.G.String()
	if len(names) > 0 {
		s += " [" + strings.Join(names, ", ") + "]"
	}
	f.text.Store(&s)
	return s
}

// Induces implements Proposition 2: g induces a frozen dimension of
// (G, sigma) iff g is acyclic and shortcut-free and some c-assignment
// satisfies Σ(ds, root)∘g. On success the witnessing frozen dimension is
// returned. sigma should already be restricted to Σ(ds, root)
// (constraint.SigmaFor); consts is constraint.ConstMap over the full Σ.
func Induces(g *Subhierarchy, sigma []constraint.Expr, consts map[string][]string) (*Frozen, bool) {
	if !g.Acyclic() || !g.ShortcutFree() {
		return nil, false
	}
	residual, ok := Circle(sigma, g)
	if !ok {
		return nil, false
	}
	a, ok := FindAssignment(residual, consts)
	if !ok {
		return nil, false
	}
	return &Frozen{G: g, Assign: a}, true
}
