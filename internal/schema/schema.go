// Package schema implements hierarchy schemas as defined in Section 2.1 of
// Hurtado & Mendelzon, "OLAP Dimension Constraints" (PODS 2002).
//
// A hierarchy schema is a directed graph G = (C, ↗) over a finite set of
// categories containing the distinguished category All, such that every
// category reaches All and no category has a self-loop. Unlike classical
// dimension models, hierarchy schemas may have multiple bottom categories,
// cycles, and shortcuts (Definition 1 and Example 4 of the paper).
package schema

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// All is the distinguished top category present in every hierarchy schema.
// Its single member in any dimension instance is the member "all"
// (condition C4 of the paper).
const All = "All"

// Schema is a hierarchy schema G = (C, ↗). The zero value is not useful;
// construct schemas with New and AddEdge, then call Validate (or use
// MustNew in tests).
type Schema struct {
	name string

	// categories in insertion order; All is always present.
	cats []string
	// index of each category in cats.
	index map[string]int
	// out[c] lists the categories c' with c ↗ c', in insertion order.
	out map[string][]string
	// in[c] lists the categories c' with c' ↗ c, in insertion order.
	in map[string][]string
}

// New returns an empty hierarchy schema containing only the category All.
// The name is used for diagnostics only and may be empty.
func New(name string) *Schema {
	s := &Schema{
		name:  name,
		index: make(map[string]int),
		out:   make(map[string][]string),
		in:    make(map[string][]string),
	}
	s.addCategory(All)
	return s
}

// Name returns the schema's diagnostic name.
func (s *Schema) Name() string { return s.name }

// Rename gives the schema the diagnostic name name and lists every In(c)
// in category order. The result equals the schema that New(name) builds
// through AddCategory of each category and then AddEdge of each
// category's edges, both in category order.
func (s *Schema) Rename(name string) {
	s.name = name
	for c, below := range s.in {
		s.in[c] = below[:0]
	}
	for _, c := range s.cats {
		for _, p := range s.out[c] {
			s.in[p] = append(s.in[p], c)
		}
	}
}

func (s *Schema) addCategory(c string) {
	if _, ok := s.index[c]; ok {
		return
	}
	s.index[c] = len(s.cats)
	s.cats = append(s.cats, c)
}

// AddCategory adds category c to the schema. Adding an existing category is
// a no-op. An error is returned for an invalid category name.
func (s *Schema) AddCategory(c string) error {
	if err := CheckName(c); err != nil {
		return err
	}
	s.addCategory(c)
	return nil
}

// CheckName reports whether c is a legal category name:
// a letter followed by letters and digits.
func CheckName(c string) error {
	if c == "" {
		return fmt.Errorf("schema: empty category name")
	}
	for i, r := range c {
		isLetter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		isDigit := r >= '0' && r <= '9'
		if i == 0 && !isLetter {
			return fmt.Errorf("schema: category %q must start with a letter", c)
		}
		if !isLetter && !isDigit {
			return fmt.Errorf("schema: category %q contains invalid character %q", c, r)
		}
	}
	return nil
}

// AddEdge records c ↗ c', adding both categories if absent.
// Self-loops are rejected (Definition 1(b)); edges out of All are rejected
// since All is the unique top. Duplicate edges are ignored.
func (s *Schema) AddEdge(c, parent string) error {
	if err := CheckName(c); err != nil {
		return err
	}
	if err := CheckName(parent); err != nil {
		return err
	}
	if c == parent {
		return fmt.Errorf("schema: self-loop on category %q", c)
	}
	if c == All {
		return fmt.Errorf("schema: category All cannot have parents")
	}
	s.addCategory(c)
	s.addCategory(parent)
	for _, p := range s.out[c] {
		if p == parent {
			return nil
		}
	}
	s.out[c] = append(s.out[c], parent)
	s.in[parent] = append(s.in[parent], c)
	return nil
}

// HasCategory reports whether c is a category of the schema.
func (s *Schema) HasCategory(c string) bool {
	_, ok := s.index[c]
	return ok
}

// HasEdge reports whether c ↗ c' is an edge of the schema.
func (s *Schema) HasEdge(c, parent string) bool {
	for _, p := range s.out[c] {
		if p == parent {
			return true
		}
	}
	return false
}

// Categories returns the categories in insertion order (All first).
// The returned slice must not be modified.
func (s *Schema) Categories() []string { return s.cats }

// SortedCategories returns the categories in lexicographic order.
func (s *Schema) SortedCategories() []string {
	out := append([]string(nil), s.cats...)
	sort.Strings(out)
	return out
}

// NumCategories returns |C|, including All.
func (s *Schema) NumCategories() int { return len(s.cats) }

// NumEdges returns |↗|.
func (s *Schema) NumEdges() int {
	n := 0
	for _, ps := range s.out {
		n += len(ps)
	}
	return n
}

// Out returns the categories directly above c (the targets of c's edges)
// in insertion order. The returned slice must not be modified.
func (s *Schema) Out(c string) []string { return s.out[c] }

// In returns the categories directly below c in insertion order.
// The returned slice must not be modified.
func (s *Schema) In(c string) []string { return s.in[c] }

// Bottoms returns the bottom categories: those with no incoming edges,
// in insertion order. All is excluded unless it is isolated, which Validate
// rejects anyway for schemas with other categories.
func (s *Schema) Bottoms() []string {
	var out []string
	for _, c := range s.cats {
		if len(s.in[c]) == 0 && c != All {
			out = append(out, c)
		}
	}
	return out
}

// Reaches reports whether c ↗* c' (reflexive-transitive closure).
func (s *Schema) Reaches(c, target string) bool {
	if !s.HasCategory(c) || !s.HasCategory(target) {
		return false
	}
	if c == target {
		return true
	}
	seen := map[string]bool{c: true}
	stack := []string{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.out[cur] {
			if p == target {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// ReachableFrom returns the set of categories reachable from c, including c.
func (s *Schema) ReachableFrom(c string) map[string]bool {
	seen := map[string]bool{}
	if !s.HasCategory(c) {
		return seen
	}
	seen[c] = true
	stack := []string{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.out[cur] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Validate checks Definition 1: every category reaches All, and no category
// has a self-loop (enforced structurally by AddEdge, re-checked here).
// The categories that reach All are those one walk down the edges from
// All meets.
func (s *Schema) Validate() error {
	reaches := make([]bool, len(s.cats))
	stack := make([]int, 1, len(s.cats))
	stack[0] = s.index[All]
	reaches[stack[0]] = true
	for len(stack) > 0 {
		c := s.cats[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, below := range s.in[c] {
			if i := s.index[below]; !reaches[i] {
				reaches[i] = true
				stack = append(stack, i)
			}
		}
	}
	for i, c := range s.cats {
		for _, p := range s.out[c] {
			if p == c {
				return fmt.Errorf("schema %s: self-loop on %q", s.name, c)
			}
		}
		if !reaches[i] {
			return fmt.Errorf("schema %s: category %q does not reach All (Definition 1(a))", s.name, c)
		}
	}
	return nil
}

// IsShortcut reports whether the pair (c, c') forms a shortcut: c ↗ c' and
// there is a path from c to c' passing through some third category.
func (s *Schema) IsShortcut(c, parent string) bool {
	if !s.HasEdge(c, parent) {
		return false
	}
	// Look for a path c -> x -> ... -> parent with x != parent.
	for _, x := range s.out[c] {
		if x == parent {
			continue
		}
		if s.Reaches(x, parent) {
			return true
		}
	}
	return false
}

// Shortcuts returns all shortcut pairs (c, c') of the schema, ordered by
// category insertion order.
func (s *Schema) Shortcuts() [][2]string {
	var out [][2]string
	for _, c := range s.cats {
		for _, p := range s.out[c] {
			if s.IsShortcut(c, p) {
				out = append(out, [2]string{c, p})
			}
		}
	}
	return out
}

// HasCycle reports whether the schema graph contains a directed cycle.
// Cycles are legal in hierarchy schemas (Example 4 of the paper) but cannot
// appear in dimension instances or subhierarchies.
func (s *Schema) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(s.cats))
	var visit func(c string) bool
	visit = func(c string) bool {
		color[c] = gray
		for _, p := range s.out[c] {
			switch color[p] {
			case gray:
				return true
			case white:
				if visit(p) {
					return true
				}
			}
		}
		color[c] = black
		return false
	}
	for _, c := range s.cats {
		if color[c] == white && visit(c) {
			return true
		}
	}
	return false
}

// SimplePaths returns all simple paths (no repeated category) from c to
// target, each path including both endpoints. Paths are returned in
// depth-first order following edge insertion order. If c == target the
// single zero-length path [c] is returned.
func (s *Schema) SimplePaths(c, target string) [][]string {
	if !s.HasCategory(c) || !s.HasCategory(target) {
		return nil
	}
	if c == target {
		return [][]string{{c}}
	}
	var out [][]string
	onPath := map[string]bool{c: true}
	path := []string{c}
	var dfs func(cur string)
	dfs = func(cur string) {
		for _, p := range s.out[cur] {
			if onPath[p] {
				continue
			}
			path = append(path, p)
			if p == target {
				out = append(out, append([]string(nil), path...))
			} else {
				onPath[p] = true
				dfs(p)
				delete(onPath, p)
			}
			path = path[:len(path)-1]
		}
	}
	dfs(c)
	return out
}

// IsSimplePath reports whether cats is a simple path in the schema:
// len >= 1, no repeated category, and consecutive categories are edges.
func (s *Schema) IsSimplePath(cats []string) bool {
	if len(cats) == 0 {
		return false
	}
	for i, c := range cats {
		if !s.HasCategory(c) || slices.Contains(cats[:i], c) {
			return false
		}
		if i > 0 && !s.HasEdge(cats[i-1], c) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := New(s.name)
	for _, cat := range s.cats {
		c.addCategory(cat)
	}
	for cat, ps := range s.out {
		c.out[cat] = append([]string(nil), ps...)
	}
	for cat, ps := range s.in {
		c.in[cat] = append([]string(nil), ps...)
	}
	return c
}

// String renders the schema as a deterministic multi-line description.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s\n", s.name)
	cats := s.SortedCategories()
	fmt.Fprintf(&b, "categories %s\n", strings.Join(cats, " "))
	for _, c := range cats {
		ps := append([]string(nil), s.out[c]...)
		sort.Strings(ps)
		for _, p := range ps {
			fmt.Fprintf(&b, "edge %s -> %s\n", c, p)
		}
	}
	return b.String()
}
