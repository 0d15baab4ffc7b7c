package core

import (
	"fmt"
	"strings"

	"olapdim/internal/frozen"
)

// TraceEvent is one step of a recorded DIMSAT execution.
type TraceEvent struct {
	// Kind is "expand" or "check".
	Kind string
	// Ctop is the category expanded (expand events).
	Ctop string
	// R lists the parents added to Ctop (expand events).
	R []string
	// G is the subhierarchy after the step, rendered as its edge list.
	G string
	// Induced reports whether CHECK succeeded (check events).
	Induced bool
}

func (e TraceEvent) String() string {
	switch e.Kind {
	case "expand":
		return fmt.Sprintf("EXPAND %s -> {%s}  g: %s", e.Ctop, strings.Join(e.R, ", "), e.G)
	case "check":
		verdict := "no frozen dimension"
		if e.Induced {
			verdict = "induces frozen dimension"
		}
		return fmt.Sprintf("CHECK  g: %s  => %s", e.G, verdict)
	}
	return "?"
}

// RecordingTracer records every EXPAND and CHECK step of a DIMSAT run; it
// reproduces the execution narrative of Figure 7 of the paper, which
// shows neither depths nor pruned branches.
type RecordingTracer struct {
	Events []TraceEvent
}

// Expand implements Tracer.
func (t *RecordingTracer) Expand(g *frozen.Subhierarchy, _ int, ctop string, R []string) {
	t.Events = append(t.Events, TraceEvent{Kind: "expand", Ctop: ctop, R: append([]string(nil), R...), G: g.String()})
}

// Check implements Tracer.
func (t *RecordingTracer) Check(g *frozen.Subhierarchy, _ int, induced bool) {
	t.Events = append(t.Events, TraceEvent{Kind: "check", G: g.String(), Induced: induced})
}

// Prune implements Tracer; the Figure 7 narrative has no pruned branches.
func (t *RecordingTracer) Prune(int, string, string) {}

// String renders the recorded trace, one step per line.
func (t *RecordingTracer) String() string {
	var b strings.Builder
	for i, e := range t.Events {
		fmt.Fprintf(&b, "%3d %s\n", i+1, e)
	}
	return b.String()
}
