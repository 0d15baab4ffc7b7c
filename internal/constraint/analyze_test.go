package constraint

import (
	"reflect"
	"testing"

	"olapdim/internal/schema"
)

// diamond builds A -> B -> D, A -> C -> D, D -> All plus shortcut A -> D.
func diamond(t *testing.T) *schema.Schema {
	t.Helper()
	g := schema.New("diamond")
	for _, e := range [][2]string{
		{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}, {"A", "D"}, {"D", schema.All},
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestValidate(t *testing.T) {
	g := diamond(t)
	valid := []Expr{
		NewPath("A", "B"),
		NewPath("A", "B", "D"),
		NewPath("A", "D"),
		EqAtom{"A", "D", "k"},
		RollupAtom{"A", "D"},
		ThroughAtom{"A", "B", "D"},
		NewAnd(NewPath("A", "B"), RollupAtom{"A", "D"}),
		True{},
	}
	for _, e := range valid {
		if err := Validate(e, g); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", e, err)
		}
	}
	invalid := []Expr{
		NewPath("A", "X"),                               // unknown category
		NewPath("B", "C"),                               // not an edge
		NewPath("A", "B", "C"),                          // B -> C not an edge
		PathAtom{Cats: []string{"A"}},                   // too short
		EqAtom{"A", "X", "k"},                           // unknown category
		EqAtom{"A", "D", ""},                            // empty constant
		RollupAtom{"A", "X"},                            // unknown category
		ThroughAtom{"A", "X", "D"},                      // unknown via
		NewAnd(NewPath("A", "B"), NewPath("B", "D")),    // mixed roots
		NewPath(schema.All, "B"),                        // not an edge and root All
		RollupAtom{"X", "D"},                            // unknown root
		EqAtom{"X", "D", "k"},                           // unknown root
		ThroughAtom{"X", "B", "D"},                      // unknown root
		CmpAtom{RootCat: "X", Cat: "D", Op: Lt, Val: 1}, // unknown root
	}
	for _, e := range invalid {
		if err := Validate(e, g); err == nil {
			t.Errorf("Validate(%s) accepted", e)
		}
	}
}

// TestValidateRejectsUnknownRoot pins the message for a constraint whose
// root is not a category of G: the one any other unknown category gets.
func TestValidateRejectsUnknownRoot(t *testing.T) {
	g := diamond(t)
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{RollupAtom{"X", "D"}, `constraint: unknown category "X" in X.D`},
		{EqAtom{"X", "D", "k"}, `constraint: unknown category "X" in X.D="k"`},
		{NewAnd(RollupAtom{"X", "Y"}, ThroughAtom{"X", "B", "D"}), `constraint: unknown category "X" in X.Y`},
	} {
		err := Validate(tc.e, g)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate(%s) = %v, want %s", tc.e, err, tc.want)
		}
	}
}

func TestValidateRejectsRootAll(t *testing.T) {
	g := schema.New("t")
	if err := g.AddEdge("A", schema.All); err != nil {
		t.Fatal(err)
	}
	// A fictitious rollup atom rooted at All.
	if err := Validate(RollupAtom{RootCat: schema.All, Cat: schema.All}, g); err == nil {
		t.Error("constraint rooted at All accepted")
	}
}

func TestExpandRollup(t *testing.T) {
	g := diamond(t)
	// A.D expands to the disjunction of all simple paths from A to D.
	e := Expand(RollupAtom{"A", "D"}, g)
	want := "A_B_D | A_C_D | A_D"
	if e.String() != want {
		t.Errorf("Expand(A.D) = %q, want %q", e, want)
	}
	// c.c is ⊤.
	if got := Expand(RollupAtom{"A", "A"}, g); !isTrue(got) {
		t.Errorf("Expand(A.A) = %q, want true", got)
	}
	// No path: ⊥.
	if got := Expand(RollupAtom{"B", "C"}, g); !isFalse(got) {
		t.Errorf("Expand(B.C) = %q, want false", got)
	}
}

func TestExpandThroughFiveCases(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		e    Expr
		want string
	}{
		// General case: paths through B.
		{ThroughAtom{"A", "B", "D"}, "A_B_D"},
		// c = ci = cj: ⊤.
		{ThroughAtom{"A", "A", "A"}, "true"},
		// c = cj != ci: ⊥.
		{ThroughAtom{"A", "B", "A"}, "false"},
		// c = ci != cj: rollup c.cj.
		{ThroughAtom{"A", "A", "D"}, "A_B_D | A_C_D | A_D"},
		// ci = cj != c: rollup c.ci.
		{ThroughAtom{"A", "D", "D"}, "A_B_D | A_C_D | A_D"},
	}
	for _, c := range cases {
		if got := Expand(c.e, g).String(); got != c.want {
			t.Errorf("Expand(%s) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestExpandRecursesThroughConnectives(t *testing.T) {
	g := diamond(t)
	e := Implies{A: RollupAtom{"A", "B"}, B: NewOne(ThroughAtom{"A", "B", "D"})}
	got := Expand(e, g).String()
	want := "A_B -> one(A_B_D)"
	if got != want {
		t.Errorf("Expand = %q, want %q", got, want)
	}
}

func TestConstMap(t *testing.T) {
	sigma := []Expr{
		EqAtom{"A", "D", "k2"},
		EqAtom{"A", "D", "k1"},
		EqAtom{"B", "D", "k1"},
		EqAtom{"A", "A", "x"},
		NewPath("A", "B"),
	}
	got := ConstMap(sigma)
	want := map[string][]string{
		"D": {"k1", "k2"},
		"A": {"x"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ConstMap = %v, want %v", got, want)
	}
}

func TestIntoEdges(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		want [][2]string
	}{
		{NewPath("A", "B"), [][2]string{{"A", "B"}}},                                             // into A -> B
		{NewPath("C", "D", "E"), [][2]string{{"C", "D"}}},                                        // forces C -> D
		{NewAnd(NewPath("A", "C"), RollupAtom{"A", "D"}), [][2]string{{"A", "C"}}},               // conjunction: A -> C
		{NewAnd(NewPath("A", "C"), NewPath("A", "B", "C")), [][2]string{{"A", "C"}, {"A", "B"}}}, // in order
		{NewOr(NewPath("X", "Y"), NewPath("X", "Z")), nil},                                       // disjunction: nothing forced
		{Implies{A: NewPath("P", "Q"), B: NewPath("P", "R")}, nil},                               // conditional: nothing forced
		{Not{X: NewPath("P", "Q")}, nil},                                                         // negated: nothing forced
	} {
		if got := IntoEdges(tc.e); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("IntoEdges(%s) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestSigmaFor(t *testing.T) {
	g := diamond(t)
	sigma := []Expr{
		NewPath("A", "B"), // root A
		NewPath("B", "D"), // root B, reachable from A
		NewPath("D", schema.All),
		EqAtom{"C", "D", "k"}, // root C, reachable from A but not from B
	}
	gotA := SigmaFor(sigma, g, "A")
	if len(gotA) != 4 {
		t.Errorf("SigmaFor(A) kept %d constraints, want 4", len(gotA))
	}
	gotB := SigmaFor(sigma, g, "B")
	if len(gotB) != 2 {
		t.Errorf("SigmaFor(B) kept %d constraints, want 2: %v", len(gotB), gotB)
	}
	gotD := SigmaFor(sigma, g, "D")
	if len(gotD) != 1 {
		t.Errorf("SigmaFor(D) kept %d constraints, want 1", len(gotD))
	}
}

func TestWalkOrder(t *testing.T) {
	e := Implies{
		A: NewAnd(NewPath("A", "B"), EqAtom{"A", "D", "k"}),
		B: NewOne(RollupAtom{"A", "C"}, ThroughAtom{"A", "B", "D"}),
	}
	var got []string
	Walk(e, func(a Atom) { got = append(got, a.String()) })
	want := []string{"A_B", `A.D="k"`, "A.C", "A.B.D"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Walk order = %v, want %v", got, want)
	}
	if n := len(Atoms(e)); n != 4 {
		t.Errorf("Atoms = %d, want 4", n)
	}
}
