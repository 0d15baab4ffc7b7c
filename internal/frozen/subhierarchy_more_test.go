package frozen

import (
	"sync"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

func TestOutAndEdges(t *testing.T) {
	g := sub([2]string{"A", "B"}, [2]string{"A", "C"})
	if got := g.Out("A"); len(got) != 2 {
		t.Errorf("Out(A) = %v", got)
	}
	if got := g.Out("B"); len(got) != 0 {
		t.Errorf("Out(B) = %v", got)
	}
	if got := g.Edges(); len(got) != 2 || got[0] != [2]string{"A", "B"} {
		t.Errorf("Edges = %v", got)
	}
}

func TestFrozenString(t *testing.T) {
	f := &Frozen{
		G:      sub([2]string{"A", "B"}),
		Assign: Assignment{"B": "hot", "A": NK},
	}
	if got := f.String(); got != "A->B [B=hot]" {
		t.Errorf("String = %q", got)
	}
	bare := &Frozen{G: sub([2]string{"A", "B"}), Assign: Assignment{}}
	if got := bare.String(); got != "A->B" {
		t.Errorf("String = %q", got)
	}
}

// TestFrozenStringShared renders one frozen dimension from several
// goroutines at once, as concurrent cache hits on a retained witness do:
// every call returns the same text, and under -race the memo is shared
// safely.
func TestFrozenStringShared(t *testing.T) {
	f := &Frozen{
		G:      sub([2]string{"A", "B"}, [2]string{"B", schema.All}),
		Assign: Assignment{"B": "hot"},
	}
	const want = "A->B; B->All [B=hot]"
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.String()
		}()
	}
	wg.Wait()
	for i, s := range append(got, f.String()) {
		if s != want {
			t.Fatalf("call %d: String = %q, want %q", i, s, want)
		}
	}
}

func TestCircleWithCmpAtoms(t *testing.T) {
	g := sub([2]string{"A", "B"}, [2]string{"B", "D"}, [2]string{"D", schema.All})
	sigma := []constraint.Expr{
		constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Lt, Val: 10},                   // D reachable: kept
		constraint.Not{X: constraint.CmpAtom{RootCat: "A", Cat: "C", Op: constraint.Gt, Val: 0}}, // C unreachable: ⊥, ¬⊥=⊤
	}
	residual, ok := Circle(sigma, g)
	if !ok {
		t.Fatal("unexpected failure")
	}
	if len(residual) != 1 || residual[0].String() != "A.D<10" {
		t.Errorf("residual = %v", residual)
	}
	// Unreachable order atom asserted positively fails the circle.
	if _, ok := Circle([]constraint.Expr{constraint.CmpAtom{RootCat: "A", Cat: "C", Op: constraint.Lt, Val: 1}}, g); ok {
		t.Error("unreachable order atom did not fail")
	}
}

func TestFindAssignmentWithCmpAtoms(t *testing.T) {
	sigma := []constraint.Expr{
		constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Ge, Val: 5},
		constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Lt, Val: 7},
		constraint.Not{X: constraint.EqAtom{RootCat: "A", Cat: "D", Val: "6"}},
	}
	domains := constraint.ValueDomains(sigma)
	a, ok := FindAssignment(sigma, domains)
	if !ok {
		t.Fatalf("no assignment found over domain %v", domains["D"])
	}
	v, numeric := constraint.NumValue(a.Get("D"))
	if !numeric || v < 5 || v >= 7 || v == 6 {
		t.Errorf("assignment D = %q does not satisfy the region", a.Get("D"))
	}
	// An empty region is unsatisfiable.
	bad := []constraint.Expr{
		constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Gt, Val: 7},
		constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Lt, Val: 5},
	}
	if _, ok := FindAssignment(bad, constraint.ValueDomains(bad)); ok {
		t.Error("empty region satisfied")
	}
	// NK satisfies negated order atoms.
	neg := []constraint.Expr{
		constraint.Not{X: constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Lt, Val: 5}},
		constraint.Not{X: constraint.CmpAtom{RootCat: "A", Cat: "D", Op: constraint.Ge, Val: 5}},
	}
	a, ok = FindAssignment(neg, constraint.ValueDomains(neg))
	if !ok {
		t.Fatal("non-numeric NK should satisfy both negations")
	}
	if a.Get("D") != NK {
		t.Errorf("assignment D = %q, want NK", a.Get("D"))
	}
}

func TestNaiveSatisfiableWithCmpAtoms(t *testing.T) {
	g := schema.New("cmp")
	for _, e := range [][2]string{{"A", "B"}, {"B", schema.All}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sigma := []constraint.Expr{
		constraint.CmpAtom{RootCat: "A", Cat: "B", Op: constraint.Ge, Val: 5},
		constraint.CmpAtom{RootCat: "A", Cat: "B", Op: constraint.Le, Val: 5},
	}
	ok, err := NaiveSatisfiable(g, sigma, "A")
	if err != nil || !ok {
		t.Errorf("boundary region should be satisfiable: %v %v", ok, err)
	}
	sigma2 := []constraint.Expr{
		constraint.CmpAtom{RootCat: "A", Cat: "B", Op: constraint.Gt, Val: 5},
		constraint.CmpAtom{RootCat: "A", Cat: "B", Op: constraint.Lt, Val: 5},
	}
	ok, err = NaiveSatisfiable(g, sigma2, "A")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty region satisfiable")
	}
}
