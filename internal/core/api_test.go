package core

import (
	"errors"
	"strings"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/instance"
)

func TestDimensionSchemaString(t *testing.T) {
	ds := parse(t, "schema d\nedge A -> All\nconstraint A.All\n")
	s := ds.String()
	if !strings.Contains(s, "schema d") || !strings.Contains(s, "constraint A.All") {
		t.Errorf("String = %q", s)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\nconstraint A.D < 10\n")
	ds2, err := Parse(ds.Format())
	if err != nil {
		t.Fatalf("re-parsing Format output: %v\n%s", err, ds.Format())
	}
	if len(ds2.Sigma) != len(ds.Sigma) || ds2.G.NumEdges() != ds.G.NumEdges() {
		t.Error("Format round trip changed the schema")
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse("edge A -> B"); err == nil {
		t.Error("B does not reach All")
	}
	if _, err := Parse("edge A -> All\nconstraint Z_Q"); err == nil {
		t.Error("constraint over unknown categories accepted")
	}
}

func TestCategorySatisfiableWrapper(t *testing.T) {
	ds := parse(t, "edge A -> B -> All\nconstraint !A_B\n")
	ok, err := CategorySatisfiable(ds, "A")
	if err != nil || ok {
		t.Errorf("A should be unsatisfiable: %v %v", ok, err)
	}
	ok, err = CategorySatisfiable(ds, "B")
	if err != nil || !ok {
		t.Errorf("B should be satisfiable: %v %v", ok, err)
	}
	if _, err := CategorySatisfiable(ds, "nope"); err == nil {
		t.Error("unknown category accepted")
	}
}

func TestSummarizableInInstanceDirect(t *testing.T) {
	ds := parse(t, diamondSrc)
	d := instance.New(ds.G)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// a1 routes through B, a2 through C; D is summarizable from {B, C}
	// but not from {B}.
	must(d.AddMember("A", "a1"))
	must(d.AddMember("A", "a2"))
	must(d.AddMember("B", "b"))
	must(d.AddMember("C", "c"))
	must(d.AddMember("D", "d"))
	must(d.AddLink("a1", "b"))
	must(d.AddLink("a2", "c"))
	must(d.AddLink("b", "d"))
	must(d.AddLink("c", "d"))
	must(d.AddLink("d", instance.AllMember))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if !SummarizableInInstance(d, "D", []string{"B", "C"}) {
		t.Error("D should be summarizable from {B, C}")
	}
	if SummarizableInInstance(d, "D", []string{"B"}) {
		t.Error("D should not be summarizable from {B}")
	}
}

func TestSummarizableErrors(t *testing.T) {
	ds := parse(t, diamondSrc)
	if _, err := Summarizable(ds, "nope", []string{"B"}, Options{}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := Summarizable(ds, "D", []string{"nope"}, Options{}); err == nil {
		t.Error("unknown source accepted")
	}
	// Theorem 1's S is a set: a source list naming a category twice is
	// rejected before any search, not read as a list whose ⊙ never holds.
	effort := &EffortSink{}
	for _, S := range [][]string{{"D", "D"}, {"B", "C", "B"}} {
		if _, err := Summarizable(ds, "D", S, Options{Effort: effort}); !errors.Is(err, errRepeatedSource) {
			t.Errorf("Summarizable(D, %v) err = %v, want errRepeatedSource", S, err)
		}
	}
	if effort.Runs() != 0 {
		t.Errorf("rejected calls ran %d searches", effort.Runs())
	}
}

func TestSummarizabilityConstraintDegenerate(t *testing.T) {
	// Empty source set: one() of nothing is ⊥, so the constraint demands
	// that no member rolls up to the target.
	e := SummarizabilityConstraint("A", "D", nil)
	if e.String() != "A.D -> one()" {
		t.Errorf("constraint = %q", e)
	}
	// Folding one() of nothing gives false.
	if constraint.Simplify(e).String() != "!A.D" {
		t.Errorf("simplified = %q", constraint.Simplify(e))
	}
}
