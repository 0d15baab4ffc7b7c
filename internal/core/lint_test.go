package core

import (
	"reflect"
	"strings"
	"testing"

	"olapdim/internal/constraint"
)

func TestLintClean(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint one(A_B, A_C)\n")
	rep, err := Lint(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unsatisfiable) != 0 || len(rep.Redundant) != 0 {
		t.Errorf("clean schema flagged: %s", rep)
	}
	// The diamond has the shortcut A -> D.
	if len(rep.Shortcuts) != 1 || rep.Shortcuts[0] != [2]string{"A", "D"} {
		t.Errorf("shortcuts = %v", rep.Shortcuts)
	}
	if rep.Cyclic {
		t.Error("acyclic schema flagged cyclic")
	}
	if !rep.Clean() {
		t.Error("Clean() = false")
	}
}

func TestLintRedundant(t *testing.T) {
	// A_B implies A.D (B's only route is D -> All... via D), so adding
	// A.D after A_B is redundant; A_B itself is not.
	ds := parse(t, diamondSrc+"constraint A_B\nconstraint A.D\n")
	rep, err := Lint(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Redundant) != 1 || rep.Redundant[0] != 1 {
		t.Errorf("redundant = %v, want [1]", rep.Redundant)
	}
	if !strings.Contains(rep.String(), "redundant constraint #2") {
		t.Errorf("rendering: %s", rep)
	}
}

// TestWarmLintDerivesNothing: a repeated Lint on a warm SatCache with a
// prebuilt handle answers every redundancy probe from the cache, so it
// derives no schema (CompiledStats.Compiles stays put), misses the cache
// nowhere and returns the same report as the cold call.
func TestWarmLintDerivesNothing(t *testing.T) {
	ds := parse(t, diamondSrc+"constraint A_B\nconstraint A.D\n")
	cs, err := Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: NewSatCache(), Compiled: cs}
	cold, err := Lint(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	compiles, misses := cs.Stats().Compiles, opts.Cache.Stats().Misses
	warm, err := Lint(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := cs.Stats().Compiles; got != compiles {
		t.Errorf("warm lint compiled %d schemas, want 0", got-compiles)
	}
	if got := opts.Cache.Stats().Misses; got != misses {
		t.Errorf("warm lint missed the cache %d times, want 0", got-misses)
	}
	if !reflect.DeepEqual(warm, cold) || len(warm.Redundant) != 1 {
		t.Errorf("warm report %+v, cold %+v", warm, cold)
	}
}

func TestLintMutuallyRedundant(t *testing.T) {
	// Two copies of the same constraint: each is implied by the other, so
	// both are individually redundant (dropping either one is safe).
	ds := parse(t, diamondSrc+"constraint A_B\nconstraint A_B\n")
	rep, err := Lint(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Redundant) != 2 {
		t.Errorf("redundant = %v, want both", rep.Redundant)
	}
}

func TestLintUnsatisfiable(t *testing.T) {
	ds := parse(t, "edge A -> B -> All\nconstraint !A_B\n")
	rep, err := Lint(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unsatisfiable) != 1 || rep.Unsatisfiable[0] != "A" {
		t.Errorf("unsatisfiable = %v", rep.Unsatisfiable)
	}
	if rep.Clean() {
		t.Error("Clean() = true for a schema with a dead category")
	}
	if !strings.Contains(rep.String(), "unsatisfiable category: A") {
		t.Errorf("rendering: %s", rep)
	}
}

func TestLintCyclic(t *testing.T) {
	ds := parse(t, "edge A -> B\nedge B -> A\nedge A -> All\nedge B -> All\n")
	rep, err := Lint(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Cyclic {
		t.Error("cycle not reported")
	}
}

// TestLintRejectsInvalidSchema: with no compiled handle, Lint compiles
// the schema, so an invalid one fails with Validate's error.
func TestLintRejectsInvalidSchema(t *testing.T) {
	badPath := parse(t, diamondSrc)
	badPath.Sigma = append(badPath.Sigma, constraint.NewPath("A", "C", "B"))
	for _, ds := range []*DimensionSchema{NewDimensionSchema(nil), badPath} {
		want := ds.Validate()
		if want == nil {
			t.Fatalf("schema %v validates", ds.Sigma)
		}
		if _, err := Lint(ds, Options{}); err == nil || err.Error() != want.Error() {
			t.Errorf("Lint err = %v, want Validate's %v", err, want)
		}
	}
}
