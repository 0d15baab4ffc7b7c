// Package frozen implements frozen dimensions (Section 3.2 of Hurtado &
// Mendelzon, "OLAP Dimension Constraints", PODS 2002): minimal homogeneous
// dimension instances conveyed by a dimension schema. It provides
// subhierarchies (Definition 7), the circle operator Σ∘g (Definition 8),
// c-assignments, the induction test of Proposition 2, materialization of
// frozen dimensions as instances, and the naive Theorem-3 enumeration that
// serves as a correctness oracle and benchmark baseline for DIMSAT.
package frozen

import (
	"fmt"
	"sort"
	"strings"

	"olapdim/internal/schema"
)

// Subhierarchy is a rooted subgraph (C', ↗') of a hierarchy schema
// (Definition 7): it contains the root and All, and every category is
// reachable from the root and reaches All. Subhierarchies explored by
// DIMSAT additionally have no cycles and no shortcuts; use Acyclic and
// ShortcutFree to test those properties on arbitrary subhierarchies.
type Subhierarchy struct {
	root string
	cats map[string]bool
	out  map[string][]string
}

// NewSubhierarchy returns a subhierarchy containing only the root category.
func NewSubhierarchy(root string) *Subhierarchy {
	return &Subhierarchy{
		root: root,
		cats: map[string]bool{root: true},
		out:  map[string][]string{},
	}
}

// Root returns the root category of the subhierarchy.
func (g *Subhierarchy) Root() string { return g.root }

// AddEdge adds c ↗' p, adding both categories. Duplicates are ignored.
func (g *Subhierarchy) AddEdge(c, p string) {
	g.cats[c] = true
	g.cats[p] = true
	for _, q := range g.out[c] {
		if q == p {
			return
		}
	}
	g.out[c] = append(g.out[c], p)
}

// HasCategory reports whether c ∈ C'.
func (g *Subhierarchy) HasCategory(c string) bool { return g.cats[c] }

// RemoveEdge removes c ↗' p; when dropCategory is true, p is removed from
// the category set as well. Backtracking searches (DIMSAT's EXPAND) undo
// their AddEdge calls with it in LIFO order, passing whether p was new.
func (g *Subhierarchy) RemoveEdge(c, p string, dropCategory bool) {
	out := g.out[c]
	for i, q := range out {
		if q == p {
			g.out[c] = append(out[:i], out[i+1:]...)
			break
		}
	}
	if len(g.out[c]) == 0 {
		delete(g.out, c)
	}
	if dropCategory {
		delete(g.cats, p)
	}
}

// Categories returns C' sorted lexicographically.
func (g *Subhierarchy) Categories() []string {
	out := make([]string, 0, len(g.cats))
	for c := range g.cats {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// NumCategories returns |C'|.
func (g *Subhierarchy) NumCategories() int { return len(g.cats) }

// Out returns the categories directly above c in the subhierarchy.
func (g *Subhierarchy) Out(c string) []string { return g.out[c] }

// HasEdge reports whether c ↗' p.
func (g *Subhierarchy) HasEdge(c, p string) bool {
	for _, q := range g.out[c] {
		if q == p {
			return true
		}
	}
	return false
}

// Edges returns all edges sorted lexicographically.
func (g *Subhierarchy) Edges() [][2]string {
	var out [][2]string
	for c, ps := range g.out {
		for _, p := range ps {
			out = append(out, [2]string{c, p})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Reaches reports c ↗'* p (reflexive-transitive closure within g).
func (g *Subhierarchy) Reaches(c, p string) bool {
	if !g.cats[c] || !g.cats[p] {
		return false
	}
	if c == p {
		return true
	}
	seen := map[string]bool{c: true}
	stack := []string{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.out[cur] {
			if q == p {
				return true
			}
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return false
}

// IsPath reports whether cats is a path of consecutive edges in g
// (the truth value a path atom receives under the circle operator).
func (g *Subhierarchy) IsPath(cats []string) bool {
	if len(cats) == 0 || !g.cats[cats[0]] {
		return false
	}
	for i := 1; i < len(cats); i++ {
		if !g.HasEdge(cats[i-1], cats[i]) {
			return false
		}
	}
	return true
}

// Acyclic reports whether g has no directed cycle.
func (g *Subhierarchy) Acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(c string) bool
	visit = func(c string) bool {
		color[c] = gray
		for _, p := range g.out[c] {
			switch color[p] {
			case gray:
				return false
			case white:
				if !visit(p) {
					return false
				}
			}
		}
		color[c] = black
		return true
	}
	for c := range g.cats {
		if color[c] == white && !visit(c) {
			return false
		}
	}
	return true
}

// ShortcutFree reports whether no edge (c, p) of g is duplicated by a
// longer path from c to p.
func (g *Subhierarchy) ShortcutFree() bool {
	for _, ps := range g.out {
		for _, p := range ps {
			for _, mid := range ps {
				if mid == p {
					continue
				}
				if g.Reaches(mid, p) {
					return false
				}
			}
		}
	}
	return true
}

// Validate checks Definition 7 against the parent schema G: edges of g are
// edges of G, the root and All belong to g, and every category of g is
// reachable from the root and reaches All within g.
func (g *Subhierarchy) Validate(G *schema.Schema) error {
	if !g.cats[g.root] {
		return fmt.Errorf("frozen: subhierarchy missing root %q", g.root)
	}
	if !g.cats[schema.All] {
		return fmt.Errorf("frozen: subhierarchy missing All")
	}
	for c, ps := range g.out {
		for _, p := range ps {
			if !G.HasEdge(c, p) {
				return fmt.Errorf("frozen: edge %s -> %s not in schema %s", c, p, G.Name())
			}
		}
	}
	for c := range g.cats {
		if !g.Reaches(g.root, c) {
			return fmt.Errorf("frozen: category %q not reachable from root %q", c, g.root)
		}
		if !g.Reaches(c, schema.All) {
			return fmt.Errorf("frozen: category %q does not reach All", c)
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Subhierarchy) Clone() *Subhierarchy {
	c := NewSubhierarchy(g.root)
	for cat := range g.cats {
		c.cats[cat] = true
	}
	for cat, ps := range g.out {
		c.out[cat] = append([]string(nil), ps...)
	}
	return c
}

// Key returns a canonical string identity for deduplication.
func (g *Subhierarchy) Key() string {
	var parts []string
	for _, e := range g.Edges() {
		parts = append(parts, e[0]+">"+e[1])
	}
	// Include isolated categories (only the root can be isolated).
	return g.root + "|" + strings.Join(parts, ",")
}

// String renders the subhierarchy as its sorted edge list.
func (g *Subhierarchy) String() string {
	var parts []string
	for _, e := range g.Edges() {
		parts = append(parts, e[0]+"->"+e[1])
	}
	if len(parts) == 0 {
		return "{" + g.root + "}"
	}
	return strings.Join(parts, "; ")
}
