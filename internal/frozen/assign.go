package frozen

import (
	"fmt"
	"sort"
	"strings"

	"olapdim/internal/constraint"
)

// NK is the sentinel value representing the constant nk of Section 3.2:
// a fresh constant not mentioned in Σ. Each category assigned NK stands for
// "any name other than the constants of Const_ds for that category", so NK
// never satisfies an equality atom. Parsed constants are never empty, so
// the empty string is free to serve as the sentinel.
const NK = ""

// Assignment is a c-assignment: it selects, for each category of a
// subhierarchy, either a constant from Const_ds or NK. Categories absent
// from the map implicitly carry NK.
type Assignment map[string]string

// Get returns the value assigned to category c (NK when absent).
func (a Assignment) Get(c string) string { return a[c] }

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// String renders the assignment deterministically, NK as "nk".
func (a Assignment) String() string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		v := a[k]
		if v == NK {
			v = "nk"
		}
		parts = append(parts, fmt.Sprintf("%s=%s", k, v))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// canonical renders only the non-NK entries, sorted — the semantic
// content of the assignment.
func (a Assignment) canonical() string {
	keys := make([]string, 0, len(a))
	for k, v := range a {
		if v != NK {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, a[k]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Satisfies reports whether the assignment decides every remaining atom of
// the residual constraints and satisfies them all. Categories absent from
// the assignment leave their atoms undecided, which counts as failure.
func (a Assignment) Satisfies(residual []constraint.Expr) bool {
	next, ok := foldWith(residual, a)
	return ok && len(next) == 0
}

// assignDecider resolves equality and order atoms against a partial
// assignment: an atom over category cj is decided once cj is assigned.
// An equality atom holds iff the assigned value equals its constant; an
// order atom holds iff the assigned value is numeric and in the stated
// relation to its threshold. NK satisfies no atom.
func assignDecider(a Assignment) constraint.Decider {
	return func(at constraint.Atom) (bool, bool) {
		switch at := at.(type) {
		case constraint.EqAtom:
			v, assigned := a[at.Cat]
			if !assigned {
				return false, false
			}
			return v != NK && v == at.Val, true
		case constraint.CmpAtom:
			v, assigned := a[at.Cat]
			if !assigned {
				return false, false
			}
			if v == NK {
				return false, true
			}
			f, ok := constraint.NumValue(v)
			return ok && at.Op.Holds(f, at.Val), true
		}
		return false, false
	}
}

// eqCategories returns the sorted categories appearing as the attribute
// category of equality or order atoms in the residual expressions.
func eqCategories(residual []constraint.Expr) []string {
	set := map[string]bool{}
	for _, e := range residual {
		constraint.Walk(e, func(at constraint.Atom) {
			switch at := at.(type) {
			case constraint.EqAtom:
				set[at.Cat] = true
			case constraint.CmpAtom:
				set[at.Cat] = true
			}
		})
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// FindAssignment searches for a c-assignment satisfying the residual
// constraints produced by Circle. consts is the per-category symbolic
// value domain (constraint.ValueDomains over the full Σ: Const_ds plus
// the interval representatives required by order atoms). Only categories
// actually mentioned by equality or order atoms are branched on — all
// other categories take NK, which cannot affect the residual truth value.
// The search assigns one category at a time and re-folds the residual,
// pruning as soon as any constraint becomes false.
func FindAssignment(residual []constraint.Expr, consts map[string][]string) (Assignment, bool) {
	if len(residual) == 0 {
		return Assignment{}, true // nothing to satisfy: every category takes NK
	}
	cats := eqCategories(residual)
	a := Assignment{}
	if solveAssignment(residual, cats, consts, a) {
		return a, true
	}
	return nil, false
}

func solveAssignment(residual []constraint.Expr, cats []string, consts map[string][]string, a Assignment) bool {
	if len(residual) == 0 {
		return true
	}
	if len(cats) == 0 {
		// All equality categories assigned: residual must have folded away.
		return false
	}
	c := cats[0]
	candidates := append([]string{NK}, consts[c]...)
	for _, v := range candidates {
		a[c] = v
		next, ok := foldWith(residual, a)
		if ok && solveAssignment(next, cats[1:], consts, a) {
			return true
		}
		delete(a, c)
	}
	return false
}

// foldWith re-folds residual under the partial assignment; ok is false when
// some constraint became false.
func foldWith(residual []constraint.Expr, a Assignment) ([]constraint.Expr, bool) {
	d := assignDecider(a)
	var out []constraint.Expr
	for _, e := range residual {
		r := constraint.Reduce(e, d)
		switch r.(type) {
		case constraint.False:
			return nil, false
		case constraint.True:
		default:
			out = append(out, r)
		}
	}
	return out, true
}

// EnumerateAssignments returns every satisfying c-assignment over the
// categories mentioned by equality atoms in residual, in deterministic
// order. Used to enumerate the distinct frozen dimensions of a schema
// (Figure 4 of the paper).
func EnumerateAssignments(residual []constraint.Expr, consts map[string][]string) []Assignment {
	cats := eqCategories(residual)
	var out []Assignment
	var rec func(residual []constraint.Expr, cats []string, a Assignment)
	rec = func(residual []constraint.Expr, cats []string, a Assignment) {
		if len(cats) == 0 {
			if len(residual) == 0 {
				out = append(out, a.Clone())
			}
			return
		}
		c := cats[0]
		for _, v := range append([]string{NK}, consts[c]...) {
			a[c] = v
			next, ok := foldWith(residual, a)
			if ok {
				rec(next, cats[1:], a)
			}
			delete(a, c)
		}
	}
	rec(residual, cats, Assignment{})
	return out
}
