package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"time"
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
	var h [32]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// NewSpanID mints a 16-hex-digit span ID.
func NewSpanID() string {
	var b [8]byte
	idEntropy(b[:])
	b[7] |= 1
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// scopeKey is the context key of a request's scope: its request ID and
// its active SpanContext.
type scopeKey struct{}

// scope is the context node WithRequestID, WithSpan and an observed
// request add. Each node carries both values, inheriting the one it does
// not set from the scope above it, so one node serves both lookups and a
// lookup boxes nothing.
type scope struct {
	context.Context
	id      string
	sc      SpanContext
	hasSpan bool
}

func (s *scope) Value(key any) any {
	if key == (scopeKey{}) {
		return s
	}
	return s.Context.Value(key)
}

func scopeOf(ctx context.Context) *scope {
	s, _ := ctx.Value(scopeKey{}).(*scope)
	return s
}

// withScope returns ctx under a scope carrying id and sc.
func withScope(ctx context.Context, id string, sc SpanContext) context.Context {
	return &scope{Context: ctx, id: id, sc: sc, hasSpan: true}
}

// WithSpan returns a context carrying sc, so layers below (job submit,
// cluster forwards) can continue the same trace.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	s := &scope{Context: ctx, sc: sc, hasSpan: true}
	if up := scopeOf(ctx); up != nil {
		s.id = up.id
	}
	return s
}

// SpanFrom returns the SpanContext carried by ctx, if any.
func SpanFrom(ctx context.Context) (SpanContext, bool) {
	if s := scopeOf(ctx); s != nil && s.hasSpan {
		return s.sc, true
	}
	return SpanContext{}, false
}

// Span is one recorded operation: its identity within the trace, what it
// did, where it ran, and how it ended. The JSON shape is the wire format
// of GET /debug/spans and GET /cluster/trace/{traceID}.
type Span struct {
	TraceID    string    `json:"traceId"`
	SpanID     string    `json:"spanId"`
	ParentID   string    `json:"parentId,omitempty"`
	Name       string    `json:"name"`
	Kind       string    `json:"kind"` // "server", "client", "internal"
	Node       string    `json:"node,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Status     string    `json:"status"` // "ok", "error", "cancelled"
	// Attrs are the span's attributes as a SpanStore or the wire returns
	// them. A span being recorded keeps the attributes SetAttr gives it
	// inline instead, so recording one builds no map.
	Attrs map[string]string `json:"attrs,omitempty"`

	attrs  [maxSpanAttrs]attr
	nattrs int
}

// attr is one span attribute.
type attr struct{ key, value string }

// maxSpanAttrs bounds a span's attributes so a span can never balloon;
// maxAttrLen bounds one value.
const (
	maxSpanAttrs = 16
	maxAttrLen   = 256
)

// StartSpan begins a span as a child of parent (same trace, new span ID,
// sampled flag inherited) and returns the span plus the child context to
// propagate further down. It is small enough to inline, so a caller that
// only finishes the span and adds it to a SpanStore keeps it on its own
// stack.
func StartSpan(parent SpanContext, name, kind string) (*Span, SpanContext) {
	sp := new(Span)
	return sp, sp.begin(parent, name, kind)
}

func (s *Span) begin(parent SpanContext, name, kind string) SpanContext {
	s.TraceID, s.SpanID, s.ParentID = parent.TraceID, NewSpanID(), parent.SpanID
	s.Name, s.Kind, s.Start = name, kind, time.Now()
	return SpanContext{TraceID: parent.TraceID, SpanID: s.SpanID, Sampled: parent.Sampled}
}

// SetAttr records one bounded string attribute, replacing the value of a
// key already set.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if len(v) > maxAttrLen {
		v = v[:maxAttrLen]
	}
	for i := 0; i < s.nattrs; i++ {
		if s.attrs[i].key == k {
			s.attrs[i].value = v
			return
		}
	}
	if s.nattrs < maxSpanAttrs {
		s.attrs[s.nattrs] = attr{k, v}
		s.nattrs++
	}
}

// Finish stamps the duration and final status ("ok", "error",
// "cancelled").
func (s *Span) Finish(status string) {
	if s == nil {
		return
	}
	s.DurationMS = float64(time.Since(s.Start)) / float64(time.Millisecond)
	s.Status = status
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
