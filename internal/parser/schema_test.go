package parser

import (
	"strings"
	"testing"

	"olapdim/internal/schema"
)

const locationSrc = `
# The locationSch schema of Figure 3 of the paper.
schema locationSch
edge Store -> City -> State -> SaleRegion -> Country -> All
edge Store -> SaleRegion
edge City -> Province -> SaleRegion
edge City -> Country
edge State -> Country

constraint Store_City
constraint Store.SaleRegion
constraint City="Washington" <-> City_Country
constraint City="Washington" -> City.Country="USA"
constraint State.Country="Mexico" | State.Country="USA"
constraint State.Country="Mexico" <-> State_SaleRegion
constraint Province.Country="Canada"
`

func TestParseSchemaLocation(t *testing.T) {
	g, sigma, err := ParseSchema(locationSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "locationSch" {
		t.Errorf("name = %q", g.Name())
	}
	if n := g.NumCategories(); n != 7 {
		t.Errorf("categories = %d, want 7", n)
	}
	if n := g.NumEdges(); n != 10 {
		t.Errorf("edges = %d, want 10", n)
	}
	if len(sigma) != 7 {
		t.Errorf("constraints = %d, want 7", len(sigma))
	}
	if !g.HasEdge("Store", "City") || !g.HasEdge("Country", schema.All) {
		t.Error("missing chained edges")
	}
	if !g.IsShortcut("City", "Country") {
		t.Error("City -> Country should be a shortcut (Example 3)")
	}
}

func TestParseSchemaCategoryLine(t *testing.T) {
	g, _, err := ParseSchema("category A B\nedge A -> All\nedge B -> All\n")
	if err != nil {
		t.Fatal(err)
	}
	if n := g.NumCategories(); n != 3 {
		t.Errorf("categories = %d, want 3", n)
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"edge A", "at least one '->'"},
		{"frobnicate A", "unknown declaration"},
		{"schema a\nschema b\nedge A -> All", "duplicate schema"},
		{"schema", "needs a name"},
		{"edge A -> A", "self-loop"},
		{"edge A -> B", "does not reach All"},
		{"edge A -> All\nconstraint B_C", "not a simple path"},
		{"edge A -> All\nconstraint A_", "identifier"},
		{"category 9bad\nedge A -> All", "must start with a letter"},
		{"edge Store -> City -> All\nconstraint Nope.City", `unknown category "Nope" in Nope.City`},
		{"edge Store -> City -> All\nconstraint Nope.City=\"Rome\"", `unknown category "Nope" in Nope.City="Rome"`},
		{"edge Store -> City -> All\nconstraint Store.Nope=\"Rome\"", `unknown category "Nope" in Store.Nope="Rome"`},
	}
	for _, c := range cases {
		_, _, err := ParseSchema(c.src)
		if err == nil {
			t.Errorf("ParseSchema(%q) accepted", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSchema(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestFormatSchemaRoundTrip(t *testing.T) {
	g, sigma, err := ParseSchema(locationSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatSchema(g, sigma)
	g2, sigma2, err := ParseSchema(text)
	if err != nil {
		t.Fatalf("re-parsing formatted schema: %v\n%s", err, text)
	}
	if g2.NumCategories() != g.NumCategories() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip changed the hierarchy schema")
	}
	if len(sigma2) != len(sigma) {
		t.Errorf("round trip changed constraint count: %d vs %d", len(sigma2), len(sigma))
	}
	for i := range sigma {
		if sigma[i].String() != sigma2[i].String() {
			t.Errorf("constraint %d changed: %s vs %s", i, sigma[i], sigma2[i])
		}
	}
}

func TestParseSchemaCommentsAndBlanks(t *testing.T) {
	src := "\n\n# comment only\nedge A -> All # trailing\n\n"
	g, _, err := ParseSchema(src)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge("A", schema.All) {
		t.Error("edge lost")
	}
}
