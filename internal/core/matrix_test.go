package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestSummarizabilityMatrixDiamond(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint one(A_B, A_C)
constraint !A_D
`)
	m, err := SummarizabilityMatrix(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Categories, []string{"A", "B", "C", "D"}) {
		t.Fatalf("categories = %v", m.Categories)
	}
	// Every category is summarizable from itself.
	for _, c := range m.Categories {
		if !m.From[c][c] {
			t.Errorf("%s not summarizable from itself", c)
		}
	}
	// D is not summarizable from B alone (members may route through C)…
	if m.From["D"]["B"] {
		t.Error("D should not be summarizable from {B} alone")
	}
	// …and A (a bottom) is summarizable from nothing coarser.
	if m.From["A"]["B"] || m.From["A"]["D"] {
		t.Error("the bottom category cannot be recovered from coarser views")
	}
}

func TestSummarizabilityMatrixForced(t *testing.T) {
	// With every member forced through B, D becomes summarizable from B.
	ds := parse(t, diamondSrc+`
constraint A_B & !A_C & !A_D
`)
	m, err := SummarizabilityMatrix(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.From["D"]["B"] {
		t.Error("D should be summarizable from {B} when all members route via B")
	}
	srcs := m.SummarizableSources("D")
	want := []string{"A", "B", "D"}
	if !reflect.DeepEqual(srcs, want) {
		t.Errorf("sources of D = %v, want %v", srcs, want)
	}
}

func TestMatrixString(t *testing.T) {
	ds := parse(t, diamondSrc)
	m, err := SummarizabilityMatrix(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "from:") || !strings.Contains(s, "+") {
		t.Errorf("rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 1+len(m.Categories) {
		t.Errorf("want %d lines, got %d:\n%s", 1+len(m.Categories), len(lines), s)
	}
}

func TestMinimalSources(t *testing.T) {
	ds := parse(t, diamondSrc+`
constraint one(A_B, A_C)
constraint !A_D
`)
	sets, err := MinimalSources(ds, "D", 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, s := range sets {
		keys[strings.Join(s, "+")] = true
	}
	// D from itself, from A (the bottom), and from {B, C} jointly.
	for _, want := range []string{"D", "A", "B+C"} {
		if !keys[want] {
			t.Errorf("missing minimal source set %q (got %v)", want, sets)
		}
	}
	// Neither {B} nor {C} alone is certified, and no reported set is a
	// superset of another.
	if keys["B"] || keys["C"] {
		t.Errorf("non-certified singleton reported: %v", sets)
	}
	for _, s := range sets {
		for _, other := range sets {
			superset := len(other) < len(s)
			for _, c := range other {
				superset = superset && slices.Contains(s, c)
			}
			if superset {
				t.Errorf("%v is a superset of reported %v", s, other)
			}
		}
	}
	if _, err := MinimalSources(ds, "Ghost", 2, Options{}); err == nil {
		t.Error("unknown target accepted")
	}
}
