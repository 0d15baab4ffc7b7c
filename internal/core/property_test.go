package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"olapdim/internal/constraint"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// randomDS builds a small random dimension schema with a constraint mix
// covering path, rollup, through and equality atoms under all connectives.
// Kept small so the naive oracle stays tractable.
func randomDS(rng *rand.Rand) *DimensionSchema {
	g := schema.New("prop")
	n := 3 + rng.Intn(3) // 3..5 categories besides All
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	for i, c := range names {
		later := names[i+1:]
		if len(later) == 0 || rng.Intn(4) == 0 {
			g.AddEdge(c, schema.All)
		} else {
			g.AddEdge(c, later[rng.Intn(len(later))])
		}
		for _, p := range later {
			if rng.Intn(3) == 0 {
				g.AddEdge(c, p)
			}
		}
	}
	ds := NewDimensionSchema(g)
	nCons := rng.Intn(4)
	for i := 0; i < nCons; i++ {
		e := randomConstraint(rng, g, names)
		if e != nil && constraint.Validate(e, g) == nil {
			ds.Sigma = append(ds.Sigma, e)
		}
	}
	return ds
}

func randomConstraint(rng *rand.Rand, g *schema.Schema, names []string) constraint.Expr {
	root := names[rng.Intn(len(names))]
	atom := func() constraint.Expr {
		switch rng.Intn(5) {
		case 0:
			outs := g.Out(root)
			p := outs[rng.Intn(len(outs))]
			if p == schema.All {
				return constraint.RollupAtom{RootCat: root, Cat: schema.All}
			}
			return constraint.NewPath(root, p)
		case 1:
			return constraint.RollupAtom{RootCat: root, Cat: names[rng.Intn(len(names))]}
		case 2:
			return constraint.ThroughAtom{
				RootCat: root,
				Via:     names[rng.Intn(len(names))],
				Cat:     names[rng.Intn(len(names))],
			}
		case 3:
			return constraint.EqAtom{
				RootCat: root,
				Cat:     names[rng.Intn(len(names))],
				Val:     []string{"k1", "k2", "5"}[rng.Intn(3)],
			}
		default:
			// Order atoms (the Section 6 extension) join the mix so the
			// naive oracle cross-validates the value-domain machinery.
			return constraint.CmpAtom{
				RootCat: root,
				Cat:     names[rng.Intn(len(names))],
				Op:      constraint.CmpOp(rng.Intn(4)),
				Val:     float64(rng.Intn(3)*5 - 5),
			}
		}
	}
	var build func(depth int) constraint.Expr
	build = func(depth int) constraint.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			return atom()
		}
		switch rng.Intn(6) {
		case 0:
			return constraint.Not{X: build(depth - 1)}
		case 1:
			return constraint.NewAnd(build(depth-1), build(depth-1))
		case 2:
			return constraint.NewOr(build(depth-1), build(depth-1))
		case 3:
			return constraint.Implies{A: build(depth - 1), B: build(depth - 1)}
		case 4:
			return constraint.Iff{A: build(depth - 1), B: build(depth - 1)}
		default:
			return constraint.NewOne(build(depth-1), build(depth-1))
		}
	}
	return build(2)
}

// pruningVariants are the four pruning ablations: every heuristic
// enabled, and each disabled.
var pruningVariants = []Options{
	{},
	{DisableIntoPruning: true},
	{DisableStructurePruning: true},
	{DisableIntoPruning: true, DisableStructurePruning: true},
}

// checkAgainstNaive decides every category of ds but All under each of
// variants and compares the verdict with the brute-force Theorem 3
// enumeration, which shares no pruning or circle-operator code with
// DIMSAT. Every SAT witness must materialize into an instance passing
// (C1)-(C7) and Σ. With budget > 0, a run cut after budget expansions
// must resume from its checkpoint to the uninterrupted verdict, Stats
// and witness. The implication and redundancy verdicts go through
// checkImpliesAgainstNaive, with extra constraints drawn from rng.
func checkAgainstNaive(ds *DimensionSchema, variants []Options, budget int, rng *rand.Rand) error {
	for _, c := range ds.G.Categories() {
		if c == schema.All {
			continue
		}
		want, err := frozen.NaiveSatisfiable(ds.G, ds.Sigma, c)
		if err != nil {
			return fmt.Errorf("naive on %s: %v", c, err)
		}
		for _, opts := range variants {
			res, err := Satisfiable(ds, c, opts)
			if err != nil {
				return fmt.Errorf("dimsat on %s (opts %+v): %v", c, opts, err)
			}
			if res.Satisfiable != want {
				return fmt.Errorf("disagreement on %s (opts %+v): dimsat=%v naive=%v\nschema:\n%s",
					c, opts, res.Satisfiable, want, ds)
			}
			if res.Satisfiable {
				inst, err := res.Witness.ToInstance(ds.G, constraint.ConstMap(ds.Sigma))
				if err != nil || inst.Validate() != nil || !inst.SatisfiesAll(ds.Sigma) {
					return fmt.Errorf("invalid witness for %s: %v\n%s", c, err, ds)
				}
			}
			if budget <= 0 || res.Stats.Expansions <= budget {
				continue
			}
			bopts := opts
			bopts.MaxExpansions = budget
			bopts.Checkpoint = &Checkpointing{}
			cut, err := Satisfiable(ds, c, bopts)
			if !errors.Is(err, ErrBudgetExceeded) || cut.Checkpoint == nil {
				return fmt.Errorf("%s (opts %+v) at budget %d: want a checkpointed abort, got %v", c, opts, budget, err)
			}
			resumed, err := ResumeSatisfiable(ds, cut.Checkpoint, opts)
			if err != nil {
				return fmt.Errorf("resume %s (opts %+v) from budget %d: %v", c, opts, budget, err)
			}
			if resumed.Satisfiable != res.Satisfiable || resumed.Stats != res.Stats ||
				(res.Satisfiable && resumed.Witness.Key() != res.Witness.Key()) {
				return fmt.Errorf("resume %s (opts %+v) from budget %d: got %v %+v, want %v %+v\n%s",
					c, opts, budget, resumed.Satisfiable, resumed.Stats, res.Satisfiable, res.Stats, ds)
			}
		}
	}
	return checkImpliesAgainstNaive(ds, variants, rng)
}

// naiveImplies decides sigma ⊨ alpha over G by Theorem 2 on the naive
// enumeration: the test builds Σ ∪ {¬alpha} itself, and an atom-free
// alpha is its own truth value.
func naiveImplies(G *schema.Schema, sigma []constraint.Expr, alpha constraint.Expr) (bool, error) {
	root, err := constraint.Root(alpha)
	if err != nil {
		return false, err
	}
	if root == "" {
		return constraint.Eval(alpha, nil), nil
	}
	neg := append(append([]constraint.Expr(nil), sigma...), constraint.Not{X: alpha})
	sat, err := frozen.NaiveSatisfiable(G, neg, root)
	return !sat, err
}

// checkImpliesAgainstNaive holds the Theorem 2 verdicts to the naive
// enumeration under each of variants: Implies of every Σ member and of
// three constraints drawn with randomConstraint — with no cache, a fresh
// SatCache, that cache warm, and a prebuilt compiled handle — and Lint's
// redundant set, each σᵢ decided on (G, Σ∖{σᵢ} ∪ {¬σᵢ}).
func checkImpliesAgainstNaive(ds *DimensionSchema, variants []Options, rng *rand.Rand) error {
	var names []string
	for _, c := range ds.G.SortedCategories() {
		if c != schema.All {
			names = append(names, c)
		}
	}
	alphas := append([]constraint.Expr(nil), ds.Sigma...)
	for range 3 {
		if e := randomConstraint(rng, ds.G, names); constraint.Validate(e, ds.G) == nil {
			alphas = append(alphas, e)
		}
	}
	cs, err := Compile(ds)
	if err != nil {
		return err
	}
	for _, alpha := range alphas {
		want, err := naiveImplies(ds.G, ds.Sigma, alpha)
		if err != nil {
			return fmt.Errorf("naive implies %s: %v", alpha, err)
		}
		for _, opts := range variants {
			cached := opts
			cached.Cache = NewSatCache()
			prebuilt := opts
			prebuilt.Compiled = cs
			for _, run := range []struct {
				label string
				opts  Options
			}{{"no cache", opts}, {"fresh cache", cached}, {"warm cache", cached}, {"prebuilt handle", prebuilt}} {
				got, _, err := Implies(ds, alpha, run.opts)
				if err != nil {
					return fmt.Errorf("Implies %s (%s, opts %+v): %v", alpha, run.label, opts, err)
				}
				if got != want {
					return fmt.Errorf("Implies %s (%s, opts %+v): dimsat=%v naive=%v\nschema:\n%s",
						alpha, run.label, opts, got, want, ds)
				}
			}
		}
	}
	var want []int
	for i, sigma := range ds.Sigma {
		rest := append(append([]constraint.Expr(nil), ds.Sigma[:i]...), ds.Sigma[i+1:]...)
		redundant, err := naiveImplies(ds.G, rest, sigma)
		if err != nil {
			return fmt.Errorf("naive redundancy of σ%d: %v", i, err)
		}
		if redundant {
			want = append(want, i)
		}
	}
	for _, opts := range variants {
		rep, err := Lint(ds, opts)
		if err != nil {
			return fmt.Errorf("Lint (opts %+v): %v", opts, err)
		}
		if !slices.Equal(rep.Redundant, want) {
			return fmt.Errorf("Lint (opts %+v): redundant %v, naive %v\nschema:\n%s", opts, rep.Redundant, want, ds)
		}
	}
	return nil
}

// TestDimsatAgreesWithNaive is experiment T3: on random schemas, DIMSAT
// (with every heuristic enabled, and with each disabled) answers category
// satisfiability exactly like the brute-force Theorem 3 enumeration, and
// a run cut after two expansions resumes to the same answer.
func TestDimsatAgreesWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDS(rng)
		if err := ds.Validate(); err != nil {
			return true // skip rare degenerate draws
		}
		if err := checkAgainstNaive(ds, pruningVariants, 2, rng); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	n := 120
	if testing.Short() {
		n = 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDimsatAgainstNaive drives checkAgainstNaive from a fuzzed randomDS
// seed, pruning variant and checkpoint budget; wired into make
// fuzz-smoke.
func FuzzDimsatAgainstNaive(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(1))
	f.Add(int64(7), uint8(2), uint16(3))
	f.Add(int64(42), uint8(3), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, variant uint8, budget uint16) {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDS(rng)
		if err := ds.Validate(); err != nil {
			t.Skip()
		}
		opts := pruningVariants[int(variant)%len(pruningVariants)]
		if err := checkAgainstNaive(ds, []Options{opts}, 1+int(budget%64), rng); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEnumerateAgreesWithNaive: the DIMSAT-driven frozen dimension
// enumeration finds exactly the frozen dimensions the naive edge-subset
// enumeration finds, for every root (All included) under every pruning
// variant.
func TestEnumerateAgreesWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDS(rng)
		if err := ds.Validate(); err != nil {
			return true
		}
		for _, c := range ds.G.Categories() {
			slow, err := frozen.EnumerateFrozen(ds.G, ds.Sigma, c)
			if err != nil {
				return false
			}
			for _, opts := range pruningVariants {
				fast, err := EnumerateFrozen(ds, c, opts)
				if err != nil {
					return false
				}
				if len(fast) != len(slow) {
					t.Logf("enumeration mismatch for %s (opts %+v): dimsat=%d naive=%d\n%s",
						c, opts, len(fast), len(slow), ds)
					return false
				}
				for i := range fast {
					if fast[i].Key() != slow[i].Key() {
						t.Logf("frozen %d differs (opts %+v): %s vs %s", i, opts, fast[i], slow[i])
						return false
					}
					// Every enumerated frozen dimension is a valid Definition 7
					// subhierarchy, acyclic and shortcut-free.
					if err := fast[i].G.Validate(ds.G); err != nil {
						t.Logf("frozen %d invalid: %v", i, err)
						return false
					}
					if !fast[i].G.Acyclic() || !fast[i].G.ShortcutFree() {
						t.Logf("frozen %d has a cycle or shortcut: %s", i, fast[i])
						return false
					}
				}
			}
		}
		return true
	}
	n := 80
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestImpliesConsistency: Theorem 2 sanity on random schemas — for any
// constraint alpha over a satisfiable root, exactly one of "alpha implied"
// and "¬alpha satisfiable together with Σ" holds; and implication is
// reflexive on Σ members.
func TestImpliesConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDS(rng)
		if err := ds.Validate(); err != nil {
			return true
		}
		// Σ members are always implied.
		for _, e := range ds.Sigma {
			implied, _, err := Implies(ds, e, Options{})
			if err != nil {
				continue
			}
			if !implied {
				root, _ := constraint.Root(e)
				res, _ := Satisfiable(ds, root, Options{})
				// A Σ member can only be "not implied" if never vacuous…
				// it cannot: d ⊨ Σ includes e. Fail.
				t.Logf("sigma member %s not implied (root %s sat=%v)\n%s",
					e, root, res.Satisfiable, ds)
				return false
			}
		}
		return true
	}
	n := 120
	if testing.Short() {
		n = 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestSigmaOrderInvariance: satisfiability does not depend on the order of
// the constraints in Σ (the search explores subsets deterministically, but
// the verdict must be order independent).
func TestSigmaOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDS(rng)
		if err := ds.Validate(); err != nil || len(ds.Sigma) < 2 {
			return true
		}
		shuffled := append([]constraint.Expr(nil), ds.Sigma...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		ds2 := NewDimensionSchema(ds.G, shuffled...)
		for _, c := range ds.G.Categories() {
			if c == schema.All {
				continue
			}
			a, err := Satisfiable(ds, c, Options{})
			if err != nil {
				return false
			}
			b, err := Satisfiable(ds2, c, Options{})
			if err != nil {
				return false
			}
			if a.Satisfiable != b.Satisfiable {
				t.Logf("order dependence on %s:\n%s", c, ds)
				return false
			}
		}
		return true
	}
	n := 80
	if testing.Short() {
		n = 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}
