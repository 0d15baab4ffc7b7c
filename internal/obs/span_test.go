package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	if !sc.Valid() {
		t.Fatalf("minted context invalid: %+v", sc)
	}
	h := sc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected", h)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v, want %+v", got, sc)
	}

	sc.Sampled = false
	got, ok = ParseTraceparent(sc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}.Traceparent()
	cases := map[string]string{
		"empty":              "",
		"garbage":            "not-a-traceparent",
		"oversized":          valid + strings.Repeat("-extrafield", 10),
		"version ff":         "ff" + valid[2:],
		"version 01":         "01" + valid[2:],
		"zero trace id":      "00-" + strings.Repeat("0", 32) + "-" + valid[36:],
		"zero span id":       valid[:36] + strings.Repeat("0", 16) + "-01",
		"uppercase hex":      strings.ToUpper(valid),
		"short trace id":     "00-abc-" + valid[36:],
		"missing fields":     "00-" + valid[3:38],
		"non-hex flags":      valid[:53] + "zz",
		"trailing field":     valid + "-00",
		"non-hex trace byte": "00-" + "g" + valid[4:],
	}
	for name, h := range cases {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, h)
		}
	}
}

func TestWithSpanContextPropagation(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	ctx := WithSpan(context.Background(), sc)
	got, ok := SpanFrom(ctx)
	if !ok || got != sc {
		t.Fatalf("SpanFrom = %+v, %v; want %+v, true", got, ok, sc)
	}
	if _, ok := SpanFrom(context.Background()); ok {
		t.Fatal("SpanFrom(background) reported a span")
	}
}

func TestStartSpanParenting(t *testing.T) {
	root := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	sp, child := StartSpan(root, "cluster.forward", "client")
	if sp.TraceID != root.TraceID || child.TraceID != root.TraceID {
		t.Fatal("child span left the trace")
	}
	if sp.ParentID != root.SpanID {
		t.Fatalf("span parent = %q, want %q", sp.ParentID, root.SpanID)
	}
	if sp.SpanID != child.SpanID {
		t.Fatalf("span id %q != propagated child id %q", sp.SpanID, child.SpanID)
	}
	if !child.Sampled {
		t.Fatal("sampled flag not inherited")
	}
	sp.Finish("ok")
	if sp.Status != "ok" || sp.DurationMS < 0 {
		t.Fatalf("finish: %+v", sp)
	}
}

func TestSpanStoreBoundsAndEviction(t *testing.T) {
	st := NewSpanStore(4, "w1")
	mk := func(trace string) *Span {
		sp, _ := StartSpan(SpanContext{TraceID: trace, SpanID: NewSpanID(), Sampled: true}, "x", "internal")
		sp.Finish("ok")
		return sp
	}
	traces := []string{
		"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1",
		"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa2",
		"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa3",
	}
	for _, tr := range traces {
		st.Add(mk(tr))
		st.Add(mk(tr))
	}
	// 6 spans into a 4-span store: the oldest trace must have been
	// evicted whole.
	if st.Trace(traces[0]) != nil {
		t.Fatal("oldest trace not evicted")
	}
	if got := st.Trace(traces[2]); len(got) != 2 {
		t.Fatalf("newest trace has %d spans, want 2", len(got))
	}
	if got := st.Trace(traces[2])[0].Node; got != "w1" {
		t.Fatalf("stored span node = %q, want w1", got)
	}
	if st.Recorded() != 6 || st.Dropped() == 0 {
		t.Fatalf("counters: recorded=%d dropped=%d", st.Recorded(), st.Dropped())
	}

	// Nil store is a silent no-op.
	var nilStore *SpanStore
	nilStore.Add(mk(traces[0]))
	if nilStore.Trace(traces[0]) != nil || nilStore.Len() != 0 {
		t.Fatal("nil store misbehaved")
	}
}

func TestAssemble(t *testing.T) {
	traceID := NewTraceID()
	root := SpanContext{TraceID: traceID, SpanID: NewSpanID(), Sampled: true}
	rootSpan := Span{TraceID: traceID, SpanID: root.SpanID, Name: "coordinator.request",
		Kind: "server", Node: "coordinator", Start: time.Now()}
	fwd, fwdCtx := StartSpan(root, "cluster.forward", "client")
	fwd.Finish("ok")
	wrk, _ := StartSpan(fwdCtx, "worker.request", "server")
	wrk.Finish("ok")

	asm := Assemble(traceID, []Span{*wrk, *fwd, rootSpan, *fwd}) // dup fwd, shuffled
	if len(asm.Spans) != 3 {
		t.Fatalf("assembled %d spans, want 3 (dedup)", len(asm.Spans))
	}
	if !asm.WellParented || asm.Roots != 1 || asm.Orphans != 0 {
		t.Fatalf("assembly not well parented: %+v", asm)
	}

	// Drop the forward span: the worker span's parent is now missing.
	asm = Assemble(traceID, []Span{*wrk, rootSpan})
	if asm.WellParented || asm.Orphans != 1 {
		t.Fatalf("orphan not detected: %+v", asm)
	}

	// Foreign-trace spans are excluded.
	other, _ := StartSpan(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}, "x", "internal")
	asm = Assemble(traceID, []Span{rootSpan, *fwd, *wrk, *other})
	if len(asm.Spans) != 3 {
		t.Fatalf("foreign span leaked into assembly: %d spans", len(asm.Spans))
	}
}

func TestHistogramExemplarKeepsMax(t *testing.T) {
	h := newHistogram(DurationBuckets())
	h.ObserveWithExemplar(0.010, "trace-a")
	h.ObserveWithExemplar(0.500, "trace-b")
	h.ObserveWithExemplar(0.100, "trace-c")
	h.Observe(9.9) // no trace ID: must not disturb the exemplar
	ex, ok := h.Exemplar()
	if !ok || ex.TraceID != "trace-b" || ex.Value != 0.500 {
		t.Fatalf("exemplar = %+v, %v; want trace-b @ 0.5", ex, ok)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
}

func TestValidRequestID(t *testing.T) {
	good := []string{"9f1c2a3b-000042", "abc", "A-Z_0.9"}
	for _, id := range good {
		if !ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = false, want true", id)
		}
	}
	bad := []string{"", "has space", "tab\tchar", "ctrl\x01", "ünïcode", strings.Repeat("x", 129)}
	for _, id := range bad {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true, want false", id)
		}
	}
}
