package constraint

import (
	"fmt"
	"math"
	"sort"

	"olapdim/internal/schema"
)

// Walk calls fn for every atom in e, in left-to-right order. An atom
// reaches fn as the interface value e holds, so walking allocates
// nothing.
func Walk(e Expr, fn func(Atom)) {
	switch e := e.(type) {
	case True, False:
	case Atom:
		fn(e)
	case Not:
		Walk(e.X, fn)
	case And:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case Or:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case One:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case Implies:
		Walk(e.A, fn)
		Walk(e.B, fn)
	case Iff:
		Walk(e.A, fn)
		Walk(e.B, fn)
	case Xor:
		Walk(e.A, fn)
		Walk(e.B, fn)
	default:
		panic("constraint: unknown expression type")
	}
}

// Atoms returns the atoms of e in left-to-right order (with duplicates).
func Atoms(e Expr) []Atom {
	var out []Atom
	Walk(e, func(a Atom) { out = append(out, a) })
	return out
}

// Root returns the root category shared by all atoms of e. Expressions with
// no atoms have no root and return ("", nil). Mixed roots are an error:
// Definition 3 requires all atoms of a constraint to share one root.
func Root(e Expr) (string, error) {
	root := ""
	var err error
	Walk(e, func(a Atom) {
		r := a.Root()
		switch {
		case root == "":
			root = r
		case root != r && err == nil:
			err = fmt.Errorf("constraint: mixed roots %q and %q in %s", root, r, e)
		}
	})
	return root, err
}

// Validate checks that e is a well-formed dimension constraint over g:
// all atoms share a single root different from All; path atoms are simple
// paths in g; all mentioned categories, the root among them, exist in g.
func Validate(e Expr, g *schema.Schema) error {
	root, err := Root(e)
	if err != nil {
		return err
	}
	if root == schema.All {
		return fmt.Errorf("constraint: root All is not allowed (Definition 3): %s", e)
	}
	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// known checks that category c, named by atom a, is in g.
	known := func(c string, a Atom) {
		if !g.HasCategory(c) {
			check(fmt.Errorf("constraint: unknown category %q in %s", c, a))
		}
	}
	Walk(e, func(atom Atom) {
		switch a := atom.(type) {
		case PathAtom:
			if len(a.Cats) < 2 {
				check(fmt.Errorf("constraint: path atom %s needs at least two categories", a))
				return
			}
			if !g.IsSimplePath(a.Cats) {
				check(fmt.Errorf("constraint: %s is not a simple path in schema %s", a, g.Name()))
			}
		case EqAtom:
			known(a.RootCat, atom)
			known(a.Cat, atom)
			if a.Val == "" {
				check(fmt.Errorf("constraint: empty constant in %s", a))
			}
		case CmpAtom:
			known(a.RootCat, atom)
			known(a.Cat, atom)
			if math.IsNaN(a.Val) || math.IsInf(a.Val, 0) {
				check(fmt.Errorf("constraint: non-finite constant in %s", a))
			}
		case RollupAtom:
			known(a.RootCat, atom)
			known(a.Cat, atom)
		case ThroughAtom:
			known(a.RootCat, atom)
			known(a.Via, atom)
			known(a.Cat, atom)
		}
	})
	return firstErr
}

// Expand rewrites composed atoms (rollup and through) into the Boolean
// combinations of simple path atoms prescribed in Sections 3.1 and 3.3.
// Expansion can be exponential in the schema size; the evaluators in this
// repository interpret composed atoms directly, and Expand exists to
// cross-check that direct interpretation in tests.
func Expand(e Expr, g *schema.Schema) Expr {
	switch e := e.(type) {
	case True, False, PathAtom, EqAtom, CmpAtom:
		return e
	case RollupAtom:
		return expandRollup(e, g)
	case ThroughAtom:
		return expandThrough(e, g)
	case Not:
		return Not{X: Expand(e.X, g)}
	case And:
		return And{Xs: expandSlice(e.Xs, g)}
	case Or:
		return Or{Xs: expandSlice(e.Xs, g)}
	case One:
		return One{Xs: expandSlice(e.Xs, g)}
	case Implies:
		return Implies{A: Expand(e.A, g), B: Expand(e.B, g)}
	case Iff:
		return Iff{A: Expand(e.A, g), B: Expand(e.B, g)}
	case Xor:
		return Xor{A: Expand(e.A, g), B: Expand(e.B, g)}
	}
	panic("constraint: unknown expression type")
}

func expandSlice(xs []Expr, g *schema.Schema) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = Expand(x, g)
	}
	return out
}

func expandRollup(a RollupAtom, g *schema.Schema) Expr {
	// c.c denotes ⊤ (Section 3.1).
	if a.Cat == a.RootCat {
		return True{}
	}
	var xs []Expr
	for _, p := range g.SimplePaths(a.RootCat, a.Cat) {
		xs = append(xs, PathAtom{Cats: p})
	}
	if len(xs) == 0 {
		return False{}
	}
	return Simplify(Or{Xs: xs})
}

func expandThrough(a ThroughAtom, g *schema.Schema) Expr {
	c, ci, cj := a.RootCat, a.Via, a.Cat
	switch {
	case c == ci && ci == cj:
		return True{}
	case c == cj && c != ci:
		return False{}
	case c == ci && c != cj:
		return expandRollup(RollupAtom{RootCat: c, Cat: cj}, g)
	case ci == cj && c != ci:
		return expandRollup(RollupAtom{RootCat: c, Cat: ci}, g)
	}
	// General case: all simple paths from c to cj containing ci.
	var xs []Expr
	for _, p := range g.SimplePaths(c, cj) {
		for _, mid := range p[1 : len(p)-1] {
			if mid == ci {
				xs = append(xs, PathAtom{Cats: p})
				break
			}
		}
	}
	if len(xs) == 0 {
		return False{}
	}
	return Simplify(Or{Xs: xs})
}

// ConstMap computes the function Const_ds of Section 3.2: for each category
// c, the sorted set of constants k such that some constraint contains an
// equality atom ci.c≈k or c≈k. Categories with no constants are absent.
func ConstMap(sigma []Expr) map[string][]string {
	sets := map[string]map[string]bool{}
	for _, e := range sigma {
		Walk(e, func(a Atom) {
			eq, ok := a.(EqAtom)
			if !ok {
				return
			}
			if sets[eq.Cat] == nil {
				sets[eq.Cat] = map[string]bool{}
			}
			sets[eq.Cat][eq.Val] = true
		})
	}
	out := make(map[string][]string, len(sets))
	for c, vs := range sets {
		list := make([]string, 0, len(vs))
		for v := range vs {
			list = append(list, v)
		}
		sort.Strings(list)
		out[c] = list
	}
	return out
}

// IntoEdges returns the edges e forces (Section 5): an into constraint
// c_c' states that every member of c has a parent in c'. A constraint
// that is an unconditional conjunction of atoms forces, for each positive
// path atom c_c1_..._cn in it, the edge (c, c1); in particular the bare
// into constraint c_c' forces (c, c'). The edges come as (c, c1) pairs in
// left-to-right order, a repeated one as often as e repeats it.
func IntoEdges(e Expr) [][2]string {
	var out [][2]string
	var collect func(e Expr)
	collect = func(e Expr) {
		switch e := e.(type) {
		case PathAtom:
			out = append(out, [2]string{e.Cats[0], e.Cats[1]})
		case And:
			for _, x := range e.Xs {
				collect(x)
			}
		}
	}
	collect(e)
	return out
}

// SigmaFor returns the constraints of sigma relevant when finding a frozen
// dimension with root c: those whose root c' satisfies c ↗* c' in g
// (the set Σ(ds, c) of Section 5). Constraints with no atoms are always
// relevant. The relative order of sigma is preserved.
func SigmaFor(sigma []Expr, g *schema.Schema, c string) []Expr {
	var out []Expr
	for _, e := range sigma {
		root, err := Root(e)
		if err != nil {
			continue
		}
		if root == "" || g.Reaches(c, root) {
			out = append(out, e)
		}
	}
	return out
}
