package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/api"
)

// Distributed spans: a dependency-free span model with W3C trace-context
// (`traceparent`) propagation, so one client request keeps a single trace
// ID across the coordinator, its forwards/retries/hedges, the worker that
// answers, and any durable job the request spawns — even across a worker
// crash, because the trace context is persisted in the job snapshot.
//
// The model is deliberately small: a trace is identified by a 16-byte
// (32 hex) trace ID, each operation within it by an 8-byte (16 hex) span
// ID, and causality by the parent span ID. There is no wire protocol
// beyond the traceparent header and no exporter; spans land in a bounded
// in-memory SpanStore served at GET /debug/spans, and the coordinator
// assembles the cross-node tree by fanning the trace ID out to workers.

// traceparentVersion is the only W3C trace-context version this parser
// emits or accepts. Per spec, version 0xff is permanently invalid and
// higher versions may carry extra fields; since we never need them, any
// non-00 version is rejected and the receiver mints a fresh context.
const traceparentVersion = "00"

// maxTraceparentLen bounds the header length accepted by
// ParseTraceparent. A version-00 traceparent is exactly 55 bytes; any
// oversized value is hostile or corrupt and is rejected outright.
const maxTraceparentLen = 64

// SpanContext is the propagated identity of an in-progress trace: which
// trace the current operation belongs to, which span is its parent, and
// whether the trace is sampled (recorded into span stores).
type SpanContext struct {
	TraceID string
	SpanID  string
	Sampled bool
}

// Valid reports whether the context carries well-formed non-zero IDs.
func (sc SpanContext) Valid() bool {
	return isLowerHex(sc.TraceID, 32) && !allZero(sc.TraceID) &&
		isLowerHex(sc.SpanID, 16) && !allZero(sc.SpanID)
}

// Traceparent renders the context as a W3C traceparent header value:
// 00-<trace-id>-<parent-id>-<flags>, flags bit 0 = sampled.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return traceparentVersion + "-" + sc.TraceID + "-" + sc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value strictly:
// version 00 only, lowercase hex, non-zero trace and parent IDs, exact
// field lengths, bounded total length. Anything else returns ok=false
// and the receiver should mint a fresh context instead — a malformed or
// oversized header must never propagate.
func ParseTraceparent(h string) (SpanContext, bool) {
	if len(h) > maxTraceparentLen {
		return SpanContext{}, false
	}
	parts := strings.Split(h, "-")
	if len(parts) != 4 {
		return SpanContext{}, false
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if version != traceparentVersion {
		return SpanContext{}, false
	}
	if !isLowerHex(traceID, 32) || allZero(traceID) {
		return SpanContext{}, false
	}
	if !isLowerHex(spanID, 16) || allZero(spanID) {
		return SpanContext{}, false
	}
	if !isLowerHex(flags, 2) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: traceID, SpanID: spanID}
	// flags is two lowercase hex digits; bit 0 of the low nibble is
	// "sampled".
	low := flags[1]
	var nib byte
	switch {
	case low >= '0' && low <= '9':
		nib = low - '0'
	default:
		nib = low - 'a' + 10
	}
	sc.Sampled = nib&1 == 1
	return sc, true
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// idEntropy mirrors IDSource's fallback behavior: crypto/rand when
// available, a clock-derived fill otherwise, so ID minting can never
// fail at request time.
func idEntropy(b []byte) {
	if _, err := rand.Read(b); err != nil {
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
			now += 0x9e3779b9
		}
	}
}

// NewTraceID mints a 32-hex-digit trace ID.
func NewTraceID() string {
	var b [16]byte
	idEntropy(b[:])
	// An all-zero trace ID is invalid on the wire; force a bit.
	b[15] |= 1
	return hex.EncodeToString(b[:])
}

// NewSpanID mints a 16-hex-digit span ID.
func NewSpanID() string {
	var b [8]byte
	idEntropy(b[:])
	b[7] |= 1
	return hex.EncodeToString(b[:])
}

// spanKey is the context key for the active SpanContext.
type spanKey struct{}

// WithSpan returns a context carrying sc, so layers below (job submit,
// cluster forwards) can continue the same trace.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanFrom returns the SpanContext carried by ctx, if any.
func SpanFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanKey{}).(SpanContext)
	return sc, ok
}

// Span is one recorded operation: its identity within the trace, what it
// did, where it ran, and how it ended. The JSON shape is the wire format
// of GET /debug/spans and GET /cluster/trace/{traceID}.
type Span struct {
	TraceID    string            `json:"traceId"`
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	Kind       string            `json:"kind"` // "server", "client", "internal"
	Node       string            `json:"node,omitempty"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"durationMs"`
	Status     string            `json:"status"` // "ok", "error", "cancelled"
	Attrs      map[string]string `json:"attrs,omitempty"`

	start time.Time
}

// maxSpanAttrs bounds the attribute map so a span can never balloon.
const maxSpanAttrs = 16

// StartSpan begins a span as a child of parent (same trace, new span ID,
// sampled flag inherited) and returns the span plus the child context to
// propagate further down.
func StartSpan(parent SpanContext, name, kind string) (*Span, SpanContext) {
	child := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID(), Sampled: parent.Sampled}
	now := time.Now()
	sp := &Span{
		TraceID:  parent.TraceID,
		SpanID:   child.SpanID,
		ParentID: parent.SpanID,
		Name:     name,
		Kind:     kind,
		Start:    now,
		start:    now,
	}
	return sp, child
}

// SetAttr records one bounded string attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	if len(s.Attrs) >= maxSpanAttrs {
		if _, ok := s.Attrs[k]; !ok {
			return
		}
	}
	if len(v) > 256 {
		v = v[:256]
	}
	s.Attrs[k] = v
}

// Finish stamps the duration and final status ("ok", "error",
// "cancelled").
func (s *Span) Finish(status string) {
	if s == nil {
		return
	}
	s.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	s.Status = status
}

// SpanStore is a bounded per-node store of finished spans, grouped by
// trace. When the span budget is exceeded the oldest trace is evicted
// whole (partial traces are worse than absent ones); within one trace
// the span count is capped so a single pathological trace cannot evict
// everything else.
type SpanStore struct {
	mu       sync.Mutex
	max      int
	node     string
	byTrace  map[string][]Span
	order    []string // trace IDs oldest-first
	total    int
	recorded atomic.Uint64
	dropped  atomic.Uint64
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
	return &SpanStore{
		max:     maxSpans,
		node:    node,
		byTrace: make(map[string][]Span),
	}
}

// Node returns the node name stamped on stored spans.
func (st *SpanStore) Node() string {
	if st == nil {
		return ""
	}
	return st.node
}

// Add records one finished span. Nil-safe: a nil store drops silently,
// so call sites never need a guard.
func (st *SpanStore) Add(sp *Span) {
	if st == nil || sp == nil || sp.TraceID == "" {
		return
	}
	cp := *sp
	cp.Node = st.node
	st.mu.Lock()
	defer st.mu.Unlock()
	spans, exists := st.byTrace[cp.TraceID]
	if len(spans) >= maxSpansPerTrace {
		st.dropped.Add(1)
		return
	}
	if !exists {
		st.order = append(st.order, cp.TraceID)
	}
	st.byTrace[cp.TraceID] = append(spans, cp)
	st.total++
	st.recorded.Add(1)
	for st.total > st.max && len(st.order) > 1 {
		oldest := st.order[0]
		st.order = st.order[1:]
		n := len(st.byTrace[oldest])
		delete(st.byTrace, oldest)
		st.total -= n
		st.dropped.Add(uint64(n))
	}
}

// Trace returns the stored spans of one trace (nil when unknown).
func (st *SpanStore) Trace(traceID string) []Span {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	spans := st.byTrace[traceID]
	if spans == nil {
		return nil
	}
	out := make([]Span, len(spans))
	copy(out, spans)
	return out
}

// TraceIDs returns the retained trace IDs newest-first.
func (st *SpanStore) TraceIDs() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, len(st.order))
	for i, id := range st.order {
		out[len(st.order)-1-i] = id
	}
	return out
}

// Len returns the stored span count.
func (st *SpanStore) Len() int {
	if st == nil {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
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
// answers one trace's spans, or 404 when none are retained.
func (st *SpanStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
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

// TraceAssembly is the cross-node view of one trace: every collected
// span sorted by start time, plus the structural verdict the chaos
// oracle and smoke scripts assert on.
type TraceAssembly struct {
	TraceID string   `json:"traceId"`
	Spans   []Span   `json:"spans"`
	Roots   int      `json:"roots"`
	Orphans int      `json:"orphans"`
	Nodes   []string `json:"nodes"`
	// WellParented is true when the trace has exactly one root and every
	// other span's parent is present in the set.
	WellParented bool `json:"wellParented"`
}

// Assemble merges spans (typically gathered from several nodes) into
// one tree view, deduplicating by span ID and checking parent links.
func Assemble(traceID string, spans []Span) TraceAssembly {
	byID := make(map[string]Span, len(spans))
	var ordered []Span
	for _, sp := range spans {
		if sp.TraceID != traceID || sp.SpanID == "" {
			continue
		}
		if _, dup := byID[sp.SpanID]; dup {
			continue
		}
		byID[sp.SpanID] = sp
		ordered = append(ordered, sp)
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Start.Before(ordered[j].Start)
	})
	asm := TraceAssembly{TraceID: traceID, Spans: ordered}
	nodes := map[string]bool{}
	for _, sp := range ordered {
		if sp.Node != "" {
			nodes[sp.Node] = true
		}
		if sp.ParentID == "" {
			asm.Roots++
			continue
		}
		if _, ok := byID[sp.ParentID]; !ok {
			asm.Orphans++
		}
	}
	for n := range nodes {
		asm.Nodes = append(asm.Nodes, n)
	}
	sort.Strings(asm.Nodes)
	asm.WellParented = len(ordered) > 0 && asm.Roots == 1 && asm.Orphans == 0
	return asm
}
