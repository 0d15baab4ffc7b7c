package parser

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

// FuzzParseConstraint checks that the constraint parser never panics and
// that anything it accepts round-trips through the printer.
func FuzzParseConstraint(f *testing.F) {
	seeds := []string{
		"Store_City",
		"Store_City_Province",
		"Store.SaleRegion",
		"Store.City.Country",
		`Store.Country="Canada"`,
		`City="Washington" <-> City_Country`,
		"Product.Price < 100 <-> Product_Discount",
		"one(A_B, A_C, A_D)",
		"!(A_B & A_C) | A_D ^ A_B -> A_C",
		"true & false",
		"A.B >= -19.5",
		"((((A_B))))",
		"one(one(A_B), !A_B)",
		"A_B -> A_B -> A_B",
		"_ . = < > <= >= <-> ->",
		`"unclosed`,
		"# only a comment",
		"A..B",
		"0one(A_B)",
		strings.Repeat("(", 50) + "A_B" + strings.Repeat(")", 50),
		strings.Repeat("!A_B & ", 30) + "A_B",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParseConstraint(src)
		if err != nil {
			return
		}
		text := e.String()
		e2, err := ParseConstraint(text)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", src, text, err)
		}
		if !constraint.Equal(e, e2) {
			t.Fatalf("round trip changed %q: %q vs %q", src, text, e2.String())
		}
	})
}

// FuzzParseSchema checks that the schema parser never panics, that an
// accepted schema has the name, categories and edge lists that
// referenceHierarchy builds from the same text, and that its rendering
// re-parses to the same schema.
func FuzzParseSchema(f *testing.F) {
	seeds := []string{
		"edge A -> All",
		"schema s\nedge A -> B -> All\nconstraint A_B",
		"category X Y\nedge X -> All\nedge Y -> All",
		"edge A -> B\nedge B -> A\nedge B -> All",
		"# nothing",
		"schema\n",
		"edge ->",
		"edge A - > B",
		"constraint A_B\nedge A -> B -> All",
		"edge A -> B -> C -> D -> All\nconstraint one(A_B)\nconstraint A.C.D",
		"edge Store -> SaleRegion -> Country -> All\nconstraint !SaleRegion_Country",
		"edge B -> All\nedge A -> All\nschema late\ncategory C\nedge C -> A",
	}
	for _, name := range []string{"location.dims", "pricing.dims"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dimsat", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(src))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, sigma, err := ParseSchema(src)
		if err != nil {
			return
		}
		if diff := sameHierarchy(g, referenceHierarchy(t, src), false); diff != "" {
			t.Fatalf("parsed schema differs from the reference build: %s\n%s", diff, src)
		}
		text := FormatSchema(g, sigma)
		g2, sigma2, err := ParseSchema(text)
		if err != nil {
			t.Fatalf("accepted schema but rejected its rendering: %v\n%s", err, text)
		}
		if diff := sameHierarchy(g, g2, true); diff != "" {
			t.Fatalf("round trip changed the schema: %s\n%s", diff, text)
		}
		if len(sigma2) != len(sigma) {
			t.Fatalf("round trip changed the number of constraints:\n%s", text)
		}
		for i := range sigma {
			if !constraint.Equal(sigma[i], sigma2[i]) {
				t.Fatalf("round trip changed constraint %d: %s vs %s", i, sigma[i], sigma2[i])
			}
		}
	})
}

// referenceHierarchy builds the hierarchy of a schema text that
// ParseSchema accepts the way ParseSchema once built it: every category
// and edge in source order, then, for a named schema, a second build
// under the name with the categories in the first build's order,
// followed by each category's edges.
func referenceHierarchy(t *testing.T, src string) *schema.Schema {
	t.Helper()
	g := schema.New("")
	name := ""
	for _, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		word, rest := splitWord(strings.TrimSpace(line))
		var err error
		switch word {
		case "schema":
			name = rest
		case "category":
			for _, c := range strings.Fields(rest) {
				err = errors.Join(err, g.AddCategory(c))
			}
		case "edge":
			cats := strings.Split(rest, "->")
			for i := 1; i < len(cats); i++ {
				err = errors.Join(err, g.AddEdge(strings.TrimSpace(cats[i-1]), strings.TrimSpace(cats[i])))
			}
		}
		if err != nil {
			t.Fatalf("reference build: %v", err)
		}
	}
	if name == "" {
		return g
	}
	named := schema.New(name)
	for _, c := range g.Categories() {
		if err := named.AddCategory(c); err != nil {
			t.Fatalf("reference rebuild: %v", err)
		}
	}
	for _, c := range g.Categories() {
		for _, p := range g.Out(c) {
			if err := named.AddEdge(c, p); err != nil {
				t.Fatalf("reference rebuild: %v", err)
			}
		}
	}
	return named
}

// sameHierarchy describes the first difference between a and b: their
// names, categories, and each category's Out and In lists. With
// anyOrder, the categories and each In list compare as sets, as a
// rendering sorts them; Out lists always keep their order.
func sameHierarchy(a, b *schema.Schema, anyOrder bool) string {
	order := func(xs []string) []string {
		if anyOrder {
			xs = slices.Clone(xs)
			slices.Sort(xs)
		}
		return xs
	}
	if a.Name() != b.Name() {
		return fmt.Sprintf("name %q vs %q", a.Name(), b.Name())
	}
	if !slices.Equal(order(a.Categories()), order(b.Categories())) {
		return fmt.Sprintf("categories %v vs %v", a.Categories(), b.Categories())
	}
	for _, c := range a.Categories() {
		if !slices.Equal(a.Out(c), b.Out(c)) {
			return fmt.Sprintf("Out(%s) %v vs %v", c, a.Out(c), b.Out(c))
		}
		if !slices.Equal(order(a.In(c)), order(b.In(c))) {
			return fmt.Sprintf("In(%s) %v vs %v", c, a.In(c), b.In(c))
		}
	}
	return ""
}
