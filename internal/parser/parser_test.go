package parser

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"olapdim/internal/constraint"
)

func mustParse(t *testing.T, src string) constraint.Expr {
	t.Helper()
	e, err := ParseConstraint(src)
	if err != nil {
		t.Fatalf("ParseConstraint(%q): %v", src, err)
	}
	return e
}

// TestLongConstraintAllocatesForItsTokens parses a constraint just under
// the 1 MiB body cap that holds three tokens: the lexer must size its
// token slice for the tokens found, not reserve one 32-byte token per
// source byte (32 MiB) for every such request.
func TestLongConstraintAllocatesForItsTokens(t *testing.T) {
	const size = 1<<20 - 4
	src := "Store.City" + strings.Repeat(" ", size-len("Store.City"))
	if _, err := ParseConstraint(src); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseConstraint(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ParseConstraint of a %d-byte, three-token constraint allocated %d bytes, want under 1 MiB", size, got)
	}
}

func TestParseAtoms(t *testing.T) {
	cases := []struct {
		src  string
		want constraint.Expr
	}{
		{"Store_City", constraint.NewPath("Store", "City")},
		{"Store_City_Province", constraint.NewPath("Store", "City", "Province")},
		{"Store.SaleRegion", constraint.RollupAtom{RootCat: "Store", Cat: "SaleRegion"}},
		{"Store.City.Country", constraint.ThroughAtom{RootCat: "Store", Via: "City", Cat: "Country"}},
		{`Store.Country="Canada"`, constraint.EqAtom{RootCat: "Store", Cat: "Country", Val: "Canada"}},
		{`City="Washington"`, constraint.EqAtom{RootCat: "City", Cat: "City", Val: "Washington"}},
		{"true", constraint.True{}},
		{"false", constraint.False{}},
		{`C="with \"escape\""`, constraint.EqAtom{RootCat: "C", Cat: "C", Val: `with "escape"`}},
		// Order atoms (Section 6 extension).
		{"Product.Price < 100", constraint.CmpAtom{RootCat: "Product", Cat: "Price", Op: constraint.Lt, Val: 100}},
		{"Product.Price <= 19.5", constraint.CmpAtom{RootCat: "Product", Cat: "Price", Op: constraint.Le, Val: 19.5}},
		{"Product.Price > -3", constraint.CmpAtom{RootCat: "Product", Cat: "Price", Op: constraint.Gt, Val: -3}},
		{"Price >= 0", constraint.CmpAtom{RootCat: "Price", Cat: "Price", Op: constraint.Ge, Val: 0}},
		{"Product.Price<100 <-> Product_Discount", constraint.Iff{
			A: constraint.CmpAtom{RootCat: "Product", Cat: "Price", Op: constraint.Lt, Val: 100},
			B: constraint.NewPath("Product", "Discount"),
		}},
	}
	for _, c := range cases {
		got := mustParse(t, c.src)
		if !constraint.Equal(got, c.want) {
			t.Errorf("ParseConstraint(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseConnectives(t *testing.T) {
	a := constraint.NewPath("A", "B")
	b := constraint.NewPath("A", "C")
	c := constraint.NewPath("A", "D")
	cases := []struct {
		src  string
		want constraint.Expr
	}{
		{"!A_B", constraint.Not{X: a}},
		{"A_B & A_C", constraint.NewAnd(a, b)},
		{"A_B & A_C & A_D", constraint.NewAnd(a, b, c)},
		{"A_B | A_C", constraint.NewOr(a, b)},
		{"A_B ^ A_C", constraint.Xor{A: a, B: b}},
		{"A_B -> A_C", constraint.Implies{A: a, B: b}},
		{"A_B <-> A_C", constraint.Iff{A: a, B: b}},
		{"one(A_B, A_C, A_D)", constraint.NewOne(a, b, c)},
		{"one(A_B)", constraint.NewOne(a)},
		// Precedence.
		{"A_B & A_C | A_D", constraint.NewOr(constraint.NewAnd(a, b), c)},
		{"A_B | A_C -> A_D", constraint.Implies{A: constraint.NewOr(a, b), B: c}},
		{"A_B -> A_C -> A_D", constraint.Implies{A: a, B: constraint.Implies{A: b, B: c}}},
		{"(A_B -> A_C) -> A_D", constraint.Implies{A: constraint.Implies{A: a, B: b}, B: c}},
		{"!A_B & A_C", constraint.NewAnd(constraint.Not{X: a}, b)},
		{"!(A_B & A_C)", constraint.Not{X: constraint.NewAnd(a, b)}},
		{"A_B ^ A_C | A_D", constraint.Xor{A: a, B: constraint.NewOr(b, c)}},
		{"A_B <-> A_C -> A_D", constraint.Iff{A: a, B: constraint.Implies{A: b, B: c}}},
	}
	for _, cse := range cases {
		got := mustParse(t, cse.src)
		if !constraint.Equal(got, cse.want) {
			t.Errorf("ParseConstraint(%q) = %s, want %s", cse.src, got, cse.want)
		}
	}
}

func TestParseComments(t *testing.T) {
	got := mustParse(t, "A_B # trailing comment")
	if !constraint.Equal(got, constraint.NewPath("A", "B")) {
		t.Errorf("got %s", got)
	}
}

func TestParseOneAsCategoryName(t *testing.T) {
	// "one" not followed by '(' is an ordinary category name.
	got := mustParse(t, "one_Two")
	if !constraint.Equal(got, constraint.NewPath("one", "Two")) {
		t.Errorf("got %s", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"A_",
		"A &",
		"& A_B",
		"A_B A_C",
		"(A_B",
		"A_B)",
		`A.B.C="k"`,
		`A="unterminated`,
		"A_B @ A_C",
		"one(A_B,)",
		"one()",
		"A =",
		"A.B=",
		"A..B",
		"!!",
		"A.B.C < 5", // order atoms take two components
		"A.B <",     // missing number
		`A.B < "x"`, // string after comparison
		"A < B",     // category after comparison
		"5 < A.B",   // number cannot start an atom
	}
	for _, src := range bad {
		if _, err := ParseConstraint(src); err == nil {
			t.Errorf("ParseConstraint(%q) accepted", src)
		}
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := ParseConstraint("A_B &\n& A_C")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:1") {
		t.Errorf("error %q should point at line 2 col 1", err)
	}
}

// randomExpr builds a random well-formed expression for round-trip tests.
func randomExpr(rng *rand.Rand, depth int) constraint.Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return constraint.NewPath("A", "B")
		case 1:
			return constraint.NewPath("A", "B", "C")
		case 2:
			return constraint.RollupAtom{RootCat: "A", Cat: "C"}
		case 3:
			return constraint.ThroughAtom{RootCat: "A", Via: "B", Cat: "C"}
		case 4:
			return constraint.EqAtom{RootCat: "A", Cat: "C", Val: "k1"}
		case 5:
			return constraint.CmpAtom{RootCat: "A", Cat: "C",
				Op: constraint.CmpOp(rng.Intn(4)), Val: float64(rng.Intn(41)-20) / 2}
		case 6:
			return constraint.True{}
		default:
			return constraint.False{}
		}
	}
	sub := func() constraint.Expr { return randomExpr(rng, depth-1) }
	switch rng.Intn(7) {
	case 0:
		return constraint.Not{X: sub()}
	case 1:
		return constraint.NewAnd(sub(), sub())
	case 2:
		return constraint.NewOr(sub(), sub(), sub())
	case 3:
		return constraint.Implies{A: sub(), B: sub()}
	case 4:
		return constraint.Iff{A: sub(), B: sub()}
	case 5:
		return constraint.Xor{A: sub(), B: sub()}
	default:
		return constraint.NewOne(sub(), sub())
	}
}

// TestRoundTrip: parsing the String() rendering yields a structurally equal
// expression — printer and parser agree on the grammar, including
// parenthesization and precedence.
func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 5)
		parsed, err := ParseConstraint(e.String())
		if err != nil {
			t.Logf("render %q failed to parse: %v", e.String(), err)
			return false
		}
		if !constraint.Equal(e, parsed) {
			t.Logf("round trip changed %q into %q", e.String(), parsed.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
