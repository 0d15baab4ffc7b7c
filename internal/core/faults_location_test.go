package core_test

// Fault tests over the paper's location schema, which package paper
// builds on top of core, so they live in the external test package.

import (
	"context"
	"errors"
	"testing"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/paper"
)

// TestWorkerPanicsOnRow7 arms a panic on the seventh worker-pool task of
// the category sweep over the paper's location schema, one task per
// category, seven in all, and checks containment: the panic comes back
// as a typed *InternalError carrying the injected value and a stack,
// matching ErrInternal — it never escapes to the caller's goroutine.
func TestWorkerPanicsOnRow7(t *testing.T) {
	opts := core.Options{
		Faults: faults.New(faults.Rule{Site: faults.SitePoolTask, Kind: faults.Panic, On: []int{7}}),
	}
	_, err := core.UnsatisfiableCategoriesContext(context.Background(), paper.LocationSch(), opts)
	if !errors.Is(err, core.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *core.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *InternalError", err)
	}
	if len(ie.Stack) == 0 {
		t.Error("contained panic lost its stack")
	}
	pv, ok := ie.Value.(*faults.PanicValue)
	if !ok {
		t.Fatalf("panic value = %T (%v), want *faults.PanicValue", ie.Value, ie.Value)
	}
	if pv.Site != faults.SitePoolTask || pv.Hit != 7 {
		t.Errorf("panic value = %+v, want pool.task hit 7", pv)
	}
}
