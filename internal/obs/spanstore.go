package obs

import (
	"hash/maphash"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/api"
)

// SpanStore is a bounded per-node store of finished spans, grouped by
// trace. When the span budget is exceeded the oldest trace is evicted
// whole (partial traces are worse than absent ones); within one trace
// the span count is capped so a single pathological trace cannot evict
// everything else. A trace a histogram's exemplar names is pinned
// (ObserveExemplar): eviction sets its spans aside instead of dropping
// them, so the exemplar → trace hop keeps working however much traffic
// follows the slow request.
//
// NewSpanStore allocates the ring's storage once: span records, trace
// records and an open-addressing index from trace ID to trace, all
// reused as traces are evicted, so adding a span allocates nothing once
// the ring is full. A store that records nothing touches none of it.
type SpanStore struct {
	mu   sync.Mutex
	max  int
	node string

	spans  []spanRec
	traces []traceRec
	// index holds trace slot + 1 at the hash of its trace ID, probing
	// linearly; 0 is an empty cell. It is at most half full.
	index []int32
	seed  maphash.Seed
	// freeSpan and freeTrace head the free lists, linked through next;
	// oldest and newest end the retained traces in arrival order. -1
	// marks an empty list. Slots past usedSpans and usedTraces were never
	// taken, so a store's pages are touched only as it fills.
	freeSpan, freeTrace   int32
	usedSpans, usedTraces int32
	oldest, newest        int32
	total                 int

	// pins are the traces exemplars name, oldest pin first.
	pins []pin

	recorded atomic.Uint64
	dropped  atomic.Uint64
}

// spanRec is one stored span. Its trace ID is its trace's and its node
// the store's; attributes past storedAttrs spill into more.
type spanRec struct {
	spanID, parentID, name, kind, status string
	start                                time.Time
	durationMS                           float64
	attrs                                [storedAttrs]attr
	more                                 []attr
	nattrs                               int32
	next                                 int32
}

// storedAttrs is how many attributes a stored span keeps inline: the
// most any span of a read carries (server.reason's six).
const storedAttrs = 6

// traceRec is one retained trace: its spans, oldest first, linked
// through spanRec.next, and its neighbours in arrival order.
type traceRec struct {
	id         string
	hash       uint64
	head, tail int32
	n          int
	prev, next int32
}

// pin is a trace an exemplar names. refs counts the exemplars naming
// it; it is -1 while a release has overtaken the pin it releases. spans
// holds the trace's spans once the ring has evicted it.
type pin struct {
	id    string
	refs  int
	spans []spanRec
}

// maxSpansPerTrace caps one trace's footprint in the store.
const maxSpansPerTrace = 256

// NewSpanStore builds a store retaining at most maxSpans finished spans;
// node names the process in every span it serves (worker URL or
// "coordinator").
func NewSpanStore(maxSpans int, node string) *SpanStore {
	if maxSpans <= 0 {
		maxSpans = 2048
	}
	// A store past its budget evicts only after adding, and never its
	// newest trace, which may hold up to maxSpansPerTrace spans.
	slots := max(maxSpans, maxSpansPerTrace) + 1
	cells := 1
	for cells < 2*slots {
		cells <<= 1
	}
	return &SpanStore{
		max:       maxSpans,
		node:      node,
		spans:     make([]spanRec, slots),
		traces:    make([]traceRec, slots),
		index:     make([]int32, cells),
		seed:      maphash.MakeSeed(),
		freeSpan:  -1,
		freeTrace: -1,
		oldest:    -1,
		newest:    -1,
	}
}

// Node returns the node name stamped on stored spans.
func (st *SpanStore) Node() string {
	if st == nil {
		return ""
	}
	return st.node
}

// Add records one finished span: its fields and the attributes SetAttr
// or Attrs gave it. Add keeps no reference to sp. Nil-safe: a nil store
// drops silently, so call sites never need a guard.
func (st *SpanStore) Add(sp *Span) {
	if st == nil || sp == nil || sp.TraceID == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	h := maphash.String(st.seed, sp.TraceID)
	t, cell := st.find(sp.TraceID, h)
	if t < 0 {
		if p := st.pinned(sp.TraceID); p != nil && len(p.spans) > 0 {
			// The ring evicted this pinned trace; its spans stay together.
			if len(p.spans) >= maxSpansPerTrace {
				st.dropped.Add(1)
				return
			}
			p.spans = append(p.spans, spanRec{})
			p.spans[len(p.spans)-1].set(sp)
			st.recorded.Add(1)
			return
		}
		t = st.newTrace(sp.TraceID, h, cell)
	} else if st.traces[t].n >= maxSpansPerTrace {
		st.dropped.Add(1)
		return
	}
	s := st.freeSpan
	if s >= 0 {
		st.freeSpan = st.spans[s].next
	} else {
		s = st.usedSpans
		st.usedSpans++
	}
	st.spans[s].set(sp)
	st.spans[s].next = -1
	tr := &st.traces[t]
	if tr.tail < 0 {
		tr.head = s
	} else {
		st.spans[tr.tail].next = s
	}
	tr.tail = s
	tr.n++
	st.total++
	st.recorded.Add(1)
	for st.total > st.max && st.oldest != st.newest {
		st.evict(st.oldest)
	}
}

// evict takes trace slot t out of the ring: a pinned trace's spans are
// set aside in its pin, any other's are dropped.
func (st *SpanStore) evict(t int32) {
	tr := &st.traces[t]
	if p := st.pinned(tr.id); p != nil {
		for s := tr.head; s >= 0; s = st.spans[s].next {
			r := st.spans[s]
			r.more = slices.Clone(r.more)
			p.spans = append(p.spans, r)
		}
	} else {
		st.dropped.Add(uint64(tr.n))
	}
	st.remove(t)
}

// find returns the slot of the retained trace id, whose hash is h, or -1
// and the empty index cell where it would go.
func (st *SpanStore) find(id string, h uint64) (slot int32, cell int) {
	mask := len(st.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		v := st.index[i]
		if v == 0 {
			return -1, i
		}
		if tr := &st.traces[v-1]; tr.hash == h && tr.id == id {
			return v - 1, i
		}
	}
}

// newTrace takes a free trace slot for id as the newest trace and
// indexes it at cell.
func (st *SpanStore) newTrace(id string, h uint64, cell int) int32 {
	t := st.freeTrace
	if t >= 0 {
		st.freeTrace = st.traces[t].next
	} else {
		t = st.usedTraces
		st.usedTraces++
	}
	st.traces[t] = traceRec{id: id, hash: h, head: -1, tail: -1, prev: st.newest, next: -1}
	if st.newest >= 0 {
		st.traces[st.newest].next = t
	} else {
		st.oldest = t
	}
	st.newest = t
	st.index[cell] = t + 1
	return t
}

// remove unlinks and unindexes trace slot t and frees its slots; the
// caller counts its spans.
func (st *SpanStore) remove(t int32) {
	tr := &st.traces[t]
	if tr.prev >= 0 {
		st.traces[tr.prev].next = tr.next
	} else {
		st.oldest = tr.next
	}
	if tr.next >= 0 {
		st.traces[tr.next].prev = tr.prev
	} else {
		st.newest = tr.prev
	}
	_, cell := st.find(tr.id, tr.hash)
	st.unindex(cell)
	for s := tr.head; s >= 0; {
		next := st.spans[s].next
		st.spans[s].reset()
		st.spans[s].next = st.freeSpan
		st.freeSpan = s
		s = next
	}
	st.total -= tr.n
	*tr = traceRec{next: st.freeTrace}
	st.freeTrace = t
}

// unindex empties index cell i, shifting back the entries after it that
// could not otherwise be found, so the index needs no tombstones.
func (st *SpanStore) unindex(i int) {
	mask := len(st.index) - 1
	for j := (i + 1) & mask; st.index[j] != 0; j = (j + 1) & mask {
		home := int(st.traces[st.index[j]-1].hash) & mask
		// An entry whose home lies cyclically in (i, j] is still found
		// past the hole; any other moves into it.
		if (i < j && (home <= i || home > j)) || (i > j && home <= i && home > j) {
			st.index[i] = st.index[j]
			i = j
		}
	}
	st.index[i] = 0
}

// set copies sp into r.
func (r *spanRec) set(sp *Span) {
	r.spanID, r.parentID, r.name, r.kind, r.status = sp.SpanID, sp.ParentID, sp.Name, sp.Kind, sp.Status
	r.start, r.durationMS = sp.Start, sp.DurationMS
	for _, a := range sp.attrs[:sp.nattrs] {
		r.add(a)
	}
	for k, v := range sp.Attrs {
		if r.nattrs < maxSpanAttrs {
			r.add(attr{k, v[:min(len(v), maxAttrLen)]})
		}
	}
}

func (r *spanRec) add(a attr) {
	if r.nattrs < storedAttrs {
		r.attrs[r.nattrs] = a
	} else {
		r.more = append(r.more, a)
	}
	r.nattrs++
}

// reset clears r for reuse, keeping its spill capacity.
func (r *spanRec) reset() {
	clear(r.more)
	*r = spanRec{more: r.more[:0]}
}

// span renders r as a Span of trace traceID on node.
func (r *spanRec) span(traceID, node string) Span {
	sp := Span{
		TraceID: traceID, SpanID: r.spanID, ParentID: r.parentID,
		Name: r.name, Kind: r.kind, Node: node,
		Start: r.start, DurationMS: r.durationMS, Status: r.status,
	}
	if r.nattrs > 0 {
		sp.Attrs = make(map[string]string, r.nattrs)
		for _, a := range r.attrs[:min(r.nattrs, storedAttrs)] {
			sp.Attrs[a.key] = a.value
		}
		for _, a := range r.more {
			sp.Attrs[a.key] = a.value
		}
	}
	return sp
}

// ObserveExemplar records v in h with traceID as its exemplar candidate.
// While traceID is h's exemplar the store keeps the trace: eviction sets
// its spans aside, and spans it records later join them. When h takes a
// larger exemplar, the store releases the trace it displaced. The pinned
// traces are so bounded by the exemplar series the node observes.
// Nil-safe.
func (st *SpanStore) ObserveExemplar(h *Histogram, v float64, traceID string) {
	displaced, took := h.ObserveWithExemplar(v, traceID)
	if !took || st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pin(traceID, 1)
	if displaced != "" {
		st.pin(displaced, -1)
	}
}

// pinned returns the pin of trace id, or nil when no exemplar names it.
func (st *SpanStore) pinned(id string) *pin {
	for i := range st.pins {
		if p := &st.pins[i]; p.id == id && p.refs > 0 {
			return p
		}
	}
	return nil
}

// pin adds delta to the references on trace id. A trace whose last
// reference goes is released: the spans eviction set aside are dropped.
func (st *SpanStore) pin(id string, delta int) {
	i := slices.IndexFunc(st.pins, func(p pin) bool { return p.id == id })
	if i < 0 {
		st.pins = append(st.pins, pin{id: id})
		i = len(st.pins) - 1
	}
	p := &st.pins[i]
	p.refs += delta
	if p.refs == 0 {
		st.dropped.Add(uint64(len(p.spans)))
		st.pins = slices.Delete(st.pins, i, i+1)
	}
}

// Trace returns the stored spans of one trace (nil when unknown).
func (st *SpanStore) Trace(traceID string) []Span {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	t, _ := st.find(traceID, maphash.String(st.seed, traceID))
	if t < 0 {
		p := st.pinned(traceID)
		if p == nil || len(p.spans) == 0 {
			return nil
		}
		out := make([]Span, len(p.spans))
		for i := range p.spans {
			out[i] = p.spans[i].span(traceID, st.node)
		}
		return out
	}
	out := make([]Span, 0, st.traces[t].n)
	for s := st.traces[t].head; s >= 0; s = st.spans[s].next {
		out = append(out, st.spans[s].span(traceID, st.node))
	}
	return out
}

// TraceIDs returns the retained trace IDs: the ring's newest-first, then
// the pinned traces the ring evicted, latest pin first.
func (st *SpanStore) TraceIDs() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := []string{}
	for t := st.newest; t >= 0; t = st.traces[t].prev {
		out = append(out, st.traces[t].id)
	}
	for i := len(st.pins) - 1; i >= 0; i-- {
		if p := st.pins[i]; p.refs > 0 && len(p.spans) > 0 {
			out = append(out, p.id)
		}
	}
	return out
}

// Len returns the stored span count, pinned spans the ring evicted
// included.
func (st *SpanStore) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.total
	for _, p := range st.pins {
		n += len(p.spans)
	}
	return n
}

// Recorded and Dropped expose the store's lifetime counters for the
// olapdim_spans_* metric families.
func (st *SpanStore) Recorded() uint64 {
	if st == nil {
		return 0
	}
	return st.recorded.Load()
}

func (st *SpanStore) Dropped() uint64 {
	if st == nil {
		return 0
	}
	return st.dropped.Load()
}

// spanList is the GET /debug/spans body: which traces this node retains
// spans for, newest first.
type spanList struct {
	Node     string   `json:"node,omitempty"`
	Spans    int      `json:"spans"`
	TraceIDs []string `json:"traceIds"`
}

// spanTrace is the GET /debug/spans/{traceID} body, also the wire format
// the coordinator's GET /cluster/trace/{traceID} fan-out consumes.
type spanTrace struct {
	TraceID string `json:"traceId"`
	Node    string `json:"node,omitempty"`
	Spans   []Span `json:"spans"`
}

// ServeHTTP serves the store on every node: mounted at GET /debug/spans
// it lists the retained traces, at GET /debug/spans/{traceID} it
// answers one trace's spans, or 404 when none are retained. The request
// is untraced.
func (st *SpanStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	Untraced(r.Context())
	id := r.PathValue("traceID")
	if id == "" {
		api.WriteJSON(w, http.StatusOK, spanList{Node: st.Node(), Spans: st.Len(), TraceIDs: st.TraceIDs()})
		return
	}
	spans := st.Trace(id)
	if spans == nil {
		api.WriteError(w, http.StatusNotFound, "no spans retained for trace %q", id)
		return
	}
	api.WriteJSON(w, http.StatusOK, spanTrace{TraceID: id, Node: st.Node(), Spans: spans})
}
