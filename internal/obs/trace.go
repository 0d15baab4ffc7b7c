package obs

import (
	"sort"
	"sync"
	"time"

	"olapdim/internal/frozen"
)

// Event is one step of a recorded per-request DIMSAT search: an EXPAND,
// a CHECK, or a pruning dead end, with the decision depth at which it
// happened. Unlike core.TraceEvent it never renders the subhierarchy, so
// recording is O(1) per step and a trace of a big search stays small.
type Event struct {
	// Seq is the 1-based position of the event in the search.
	Seq int `json:"seq"`
	// Kind is "expand", "check" or "prune".
	Kind string `json:"kind"`
	// Depth is the decision-stack depth (number of EXPAND frames below).
	Depth int `json:"depth"`
	// Category is the expanded category (expand) or the category whose
	// expansion was abandoned (prune).
	Category string `json:"category,omitempty"`
	// Parents lists the parent set R of an expand event.
	Parents []string `json:"parents,omitempty"`
	// Heuristic names the pruning rule behind a prune event: "into",
	// "cycle-frontier" or "sibling-shortcut".
	Heuristic string `json:"heuristic,omitempty"`
	// Induced reports whether a check event found a frozen dimension.
	Induced bool `json:"induced,omitempty"`
}

// Trace is the recorded search activity of one request, the unit stored
// in the ring and served at GET /debug/traces/{id}.
type Trace struct {
	// ID is the request ID (the X-Request-ID response header value).
	ID string `json:"id"`
	// Endpoint is the handler that ran the search, e.g. "/sat".
	Endpoint string `json:"endpoint"`
	// Detail carries the request argument (category, root, target).
	Detail string `json:"detail,omitempty"`
	// Schema is the dimension-schema fingerprint the search ran against.
	Schema string `json:"schema,omitempty"`
	// Start is when the request began.
	Start time.Time `json:"start"`
	// DurationMS is the request wall-clock time in milliseconds.
	DurationMS float64 `json:"durationMs"`
	// Expansions, Checks and DeadEnds are the request's search effort.
	Expansions int `json:"expansions"`
	Checks     int `json:"checks"`
	DeadEnds   int `json:"deadEnds"`
	// Slow marks a request whose effort exceeded the slow-search
	// threshold; it also appears in the slow-search log.
	Slow bool `json:"slow,omitempty"`
	// Truncated reports that the per-trace event cap was hit; Events then
	// holds only the head of the search.
	Truncated bool `json:"truncated,omitempty"`
	// Events is the recorded EXPAND/CHECK/prune sequence.
	Events []Event `json:"events"`
}

// Ring is a bounded, concurrency-safe store of the most recent traces:
// inserting beyond capacity evicts the oldest, so trace memory is capped
// no matter how long the server runs.
type Ring struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ids  []string // insertion order, oldest first
}

// NewRing returns a ring retaining the latest n traces (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{cap: n, byID: map[string]*Trace{}}
}

// Put inserts a trace, evicting the oldest when full. A duplicate ID
// replaces the stored trace without consuming a slot.
func (r *Ring) Put(t *Trace) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[t.ID]; ok {
		r.byID[t.ID] = t
		return
	}
	if len(r.ids) == r.cap {
		oldest := r.ids[0]
		r.ids = r.ids[1:]
		delete(r.byID, oldest)
	}
	r.ids = append(r.ids, t.ID)
	r.byID[t.ID] = t
}

// Get returns the trace for a request ID.
func (r *Ring) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// IDs returns the retained request IDs, newest first.
func (r *Ring) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.ids))
	for i, id := range r.ids {
		out[len(r.ids)-1-i] = id
	}
	return out
}

// Len returns the number of retained traces.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ids)
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.cap }

// SearchTracer adapts core.Tracer into the bounded structured event log
// of a Trace. It implements both core.Tracer (the Figure-7 narrative
// interface; those callbacks are no-ops here) and core.StructuredTracer,
// whose depth- and heuristic-carrying callbacks feed Events. The event
// cap bounds memory for adversarial searches; recording past it only
// flips Truncated.
//
// Methods are mutex-guarded: a search runs on one goroutine, but the
// tracer outlives the search call and may be read while a batch
// surface's search is still running under a shared Options value.
type SearchTracer struct {
	mu        sync.Mutex
	limit     int
	events    []Event
	truncated bool
	seq       int
}

// NewSearchTracer returns a tracer retaining at most limit events
// (limit >= 1).
func NewSearchTracer(limit int) *SearchTracer {
	if limit < 1 {
		limit = 1
	}
	return &SearchTracer{limit: limit}
}

// Expand implements core.Tracer; the structured callback carries the data.
func (t *SearchTracer) Expand(g *frozen.Subhierarchy, ctop string, R []string) {}

// Check implements core.Tracer; the structured callback carries the data.
func (t *SearchTracer) Check(g *frozen.Subhierarchy, induced bool) {}

// ExpandStep implements core.StructuredTracer.
func (t *SearchTracer) ExpandStep(depth int, ctop string, R []string) {
	t.add(Event{Kind: "expand", Depth: depth, Category: ctop, Parents: append([]string(nil), R...)})
}

// CheckStep implements core.StructuredTracer.
func (t *SearchTracer) CheckStep(depth int, induced bool) {
	t.add(Event{Kind: "check", Depth: depth, Induced: induced})
}

// PruneStep implements core.StructuredTracer.
func (t *SearchTracer) PruneStep(depth int, ctop, heuristic string) {
	t.add(Event{Kind: "prune", Depth: depth, Category: ctop, Heuristic: heuristic})
}

func (t *SearchTracer) add(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if len(t.events) >= t.limit {
		t.truncated = true
		return
	}
	e.Seq = t.seq
	t.events = append(t.events, e)
}

// Events returns a copy of the recorded events and whether the cap was
// hit.
func (t *SearchTracer) Events() ([]Event, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...), t.truncated
}

// Counts tallies the recorded events by kind, a cheap cross-check
// against the search Stats (prune events correspond to dead ends).
func (t *SearchTracer) Counts() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for _, e := range t.events {
		out[e.Kind]++
	}
	return out
}

// Heuristics returns the distinct prune heuristics seen, sorted.
func (t *SearchTracer) Heuristics() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := map[string]bool{}
	for _, e := range t.events {
		if e.Kind == "prune" {
			set[e.Heuristic] = true
		}
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
