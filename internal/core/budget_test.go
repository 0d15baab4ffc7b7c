package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"olapdim/internal/frozen"
)

// hardUnsatSrc builds a layered hierarchy schema whose root C0 is
// unsatisfiable only because of a contradictory constraint, so DIMSAT must
// exhaust the full (large) subhierarchy space before answering.
func hardUnsatSrc(width, layers int) string {
	var b strings.Builder
	b.WriteString("schema hard\n")
	name := func(l, i int) string { return fmt.Sprintf("L%dx%d", l, i) }
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "edge C0 -> %s\n", name(0, i))
	}
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				fmt.Fprintf(&b, "edge %s -> %s\n", name(l, i), name(l+1, j))
			}
		}
	}
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "edge %s -> All\n", name(layers-1, i))
	}
	// Contradiction on the root: no frozen dimension can satisfy it, so
	// every CHECK fails and the search runs to exhaustion.
	fmt.Fprintf(&b, "constraint C0_%s & !C0_%s\n", name(0, 0), name(0, 0))
	return b.String()
}

func hardSchema(t *testing.T) *DimensionSchema {
	t.Helper()
	// Width 3, two layers: ~1700 expansions — long enough to truncate
	// meaningfully, fast enough for the race detector.
	return parse(t, hardUnsatSrc(3, 2))
}

// hardSearchExpansions pins the full cost of the hard schema so the budget
// tests below are guaranteed to truncate a genuinely longer search.
func hardSearchExpansions(t *testing.T) int {
	t.Helper()
	res, err := Satisfiable(hardSchema(t), "C0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatal("hard schema root should be unsatisfiable")
	}
	return res.Stats.Expansions
}

func TestBudgetExhaustionReturnsPartialStats(t *testing.T) {
	full := hardSearchExpansions(t)
	const budget = 25
	if full <= budget {
		t.Fatalf("hard schema too easy: %d expansions", full)
	}
	res, err := SatisfiableContext(context.Background(), hardSchema(t), "C0", Options{MaxExpansions: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.Stats.Expansions != budget {
		t.Errorf("partial Stats.Expansions = %d, want exactly %d", res.Stats.Expansions, budget)
	}
	if res.Satisfiable || res.Witness != nil {
		t.Errorf("truncated run must not claim a verdict: %+v", res)
	}
}

func TestDeadlineInOptions(t *testing.T) {
	res, err := Satisfiable(hardSchema(t), "C0", Options{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res.Stats.Expansions != 0 {
		t.Errorf("expired deadline still expanded %d times", res.Stats.Expansions)
	}
}

// cancelAfterTracer cancels a context after n EXPAND steps, simulating a
// client that disconnects mid-search.
type cancelAfterTracer struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (tr *cancelAfterTracer) Expand(*frozen.Subhierarchy, int, string, []string) {
	tr.seen++
	if tr.seen == tr.n {
		tr.cancel()
	}
}

func (tr *cancelAfterTracer) Check(*frozen.Subhierarchy, int, bool) {}
func (tr *cancelAfterTracer) Prune(int, string, string)             {}

func TestCancellationAbortsWithinOneExpandStep(t *testing.T) {
	const cancelAt = 10
	if full := hardSearchExpansions(t); full <= cancelAt {
		t.Fatalf("hard schema too easy: %d expansions", full)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterTracer{n: cancelAt, cancel: cancel}
	res, err := SatisfiableContext(ctx, hardSchema(t), "C0", Options{Tracer: tr})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// The cancellation lands during expansion #cancelAt; the search must
	// stop before starting another EXPAND step.
	if res.Stats.Expansions != cancelAt {
		t.Errorf("search ran %d expansions, want abort at %d", res.Stats.Expansions, cancelAt)
	}
}

func TestEnumerateFrozenContextBudget(t *testing.T) {
	_, err := EnumerateFrozenContext(context.Background(), hardSchema(t), "C0", Options{MaxExpansions: 5})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestImpliesContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := parse(t, diamondSrc)
	alpha, err := ParseConstraint("A_B")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ImpliesContext(ctx, ds, alpha, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestBatchSurfacesPropagateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := parse(t, diamondSrc)
	if _, err := SummarizabilityMatrixContext(ctx, ds, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("matrix err = %v, want Canceled", err)
	}
	if _, err := MinimalSourcesContext(ctx, ds, "D", 2, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("minimal sources err = %v, want Canceled", err)
	}
	if _, err := UnsatisfiableCategoriesContext(ctx, ds, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("unsatisfiable categories err = %v, want Canceled", err)
	}
	if _, err := LintContext(ctx, ds, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("lint err = %v, want Canceled", err)
	}
}

func TestZeroOptionsUnbudgeted(t *testing.T) {
	// The zero Options value must preserve the pre-context behavior: no
	// budget, no deadline, search runs to completion.
	res, err := Satisfiable(hardSchema(t), "C0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Error("contradictory schema reported satisfiable")
	}
}
