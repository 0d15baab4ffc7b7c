package olapdim_test

import (
	"context"
	"errors"
	"testing"

	"olapdim"
)

const compileTestSchema = `
schema travel
edge Trip -> City -> Region -> All
edge Trip -> Carrier -> All
edge City -> Country -> All
constraint Trip_City
constraint City="Lyon" -> City.Country="France"
`

// TestCompileFacade exercises the first-class Compile API: the compiled
// form threads through the Context entry points and answers identically
// to a call that compiles the schema itself.
func TestCompileFacade(t *testing.T) {
	ds, err := olapdim.Parse(compileTestSchema)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := olapdim.Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Fingerprint() != olapdim.SchemaFingerprint(ds) {
		t.Fatal("compiled fingerprint must match the schema fingerprint")
	}
	st := cs.Stats()
	if st.Categories == 0 || st.Edges == 0 || st.Constraints != 2 {
		t.Fatalf("compiled stats: %+v", st)
	}

	ctx := context.Background()
	plain, err := olapdim.SatisfiableContext(ctx, ds, "Trip", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := olapdim.SatisfiableContext(ctx, ds, "Trip", olapdim.Options{Compiled: cs})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Satisfiable != compiled.Satisfiable || plain.Stats != compiled.Stats {
		t.Fatalf("prebuilt handle disagrees with the implicit compile: %+v vs %+v", plain, compiled)
	}
	if plain.Witness.Key() != compiled.Witness.Key() {
		t.Fatal("witnesses differ between the prebuilt handle and the implicit compile")
	}

	alpha, err := olapdim.ParseConstraint("Trip.Country")
	if err != nil {
		t.Fatal(err)
	}
	iPlain, _, err := olapdim.ImpliesContext(ctx, ds, alpha, olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iComp, _, err := olapdim.ImpliesContext(ctx, ds, alpha, olapdim.Options{Compiled: cs})
	if err != nil {
		t.Fatal(err)
	}
	if iPlain != iComp {
		t.Fatalf("implication disagrees: %v vs %v", iPlain, iComp)
	}

	// A compiled form pinned to another schema is refused.
	other, err := olapdim.Parse("schema other\nedge A -> B -> All\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := olapdim.SatisfiableContext(ctx, other, "A", olapdim.Options{Compiled: cs}); !errors.Is(err, olapdim.ErrCompiledMismatch) {
		t.Fatalf("got %v, want ErrCompiledMismatch", err)
	}
}

// TestCompileOnFirstUse pins the context-free wrappers without a
// compiled handle: each call compiles the schema it is given, re-parsed
// copies of one schema answer identically, and a suspended search
// resumes correctly.
func TestCompileOnFirstUse(t *testing.T) {
	ds, err := olapdim.Parse(compileTestSchema)
	if err != nil {
		t.Fatal(err)
	}
	full, err := olapdim.Satisfiable(ds, "Trip", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Satisfiable {
		t.Fatal("Trip should be satisfiable")
	}
	// A second parse of the same text is a distinct pointer with the same
	// fingerprint; it must return identical results.
	ds2, err := olapdim.Parse(compileTestSchema)
	if err != nil {
		t.Fatal(err)
	}
	again, err := olapdim.Satisfiable(ds2, "Trip", olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats != full.Stats || again.Satisfiable != full.Satisfiable {
		t.Fatalf("repeat call diverged: %+v vs %+v", again, full)
	}

	// Budget, suspend, resume through the context-free wrappers.
	res, err := olapdim.Satisfiable(ds, "Trip", olapdim.Options{
		MaxExpansions: 1,
		Checkpoint:    &olapdim.Checkpointing{},
	})
	if !errors.Is(err, olapdim.ErrBudgetExceeded) || res.Checkpoint == nil {
		t.Fatalf("expected a resumable budget abort, got %v", err)
	}
	resumed, err := olapdim.ResumeSatisfiable(ds, res.Checkpoint, olapdim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Satisfiable != full.Satisfiable || resumed.Stats != full.Stats {
		t.Fatalf("resume diverged: %+v vs %+v", resumed, full)
	}
}
