package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// twoSpanTrace is the shape of one sampled read on a node: a root span
// and one child with attributes.
func twoSpanTrace() [2]Span {
	root, sc := StartSpan(SpanContext{TraceID: NewTraceID(), Sampled: true}, "server.request", "server")
	root.SetAttr("method", "GET")
	root.SetAttr("status", "200")
	root.Finish("ok")
	child, _ := StartSpan(sc, "server.reason", "internal")
	for _, k := range []string{"endpoint", "detail", "schema", "expansions", "checks", "deadEnds"} {
		child.SetAttr(k, k+"-value")
	}
	child.Finish("ok")
	return [2]Span{*root, *child}
}

// TestSpanStoreAddAllocatesNothing: once the ring is full, adding a
// trace reuses the storage of the one it evicts.
func TestSpanStoreAddAllocatesNothing(t *testing.T) {
	st := NewSpanStore(64, "w1")
	const runs = 200
	traces := make([][2]Span, 64+runs+1)
	for i := range traces {
		traces[i] = twoSpanTrace()
	}
	for i := range traces[:64] {
		st.Add(&traces[i][0])
		st.Add(&traces[i][1])
	}
	next := 64
	if got := testing.AllocsPerRun(runs, func() {
		st.Add(&traces[next][0])
		st.Add(&traces[next][1])
		next++
	}); got != 0 {
		t.Fatalf("Add of a two-span trace into a full store: %.1f allocations, want 0", got)
	}
	if st.Len() != 64 || len(st.Trace(traces[next-1][0].TraceID)) != 2 || st.Trace(traces[0][0].TraceID) != nil {
		t.Fatalf("store holds %d spans; newest trace %d spans, oldest %d", st.Len(),
			len(st.Trace(traces[next-1][0].TraceID)), len(st.Trace(traces[0][0].TraceID)))
	}
}

// TestSpanStoreJSON: a recorded span reads back at /debug/spans/{id}
// with every field of the wire format and its attributes as an object.
func TestSpanStoreJSON(t *testing.T) {
	st := NewSpanStore(0, "w1")
	tr := twoSpanTrace()
	st.Add(&tr[0])
	st.Add(&tr[1])
	mux := http.NewServeMux()
	mux.Handle("GET /debug/spans/{traceID}", st)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/spans/"+tr[0].TraceID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		TraceID string           `json:"traceId"`
		Node    string           `json:"node"`
		Spans   []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != tr[0].TraceID || body.Node != "w1" || len(body.Spans) != 2 {
		t.Fatalf("body = %s", rec.Body)
	}
	want := []string{"attrs", "durationMs", "kind", "name", "node", "parentId", "spanId", "start", "status", "traceId"}
	child := body.Spans[1]
	var keys []string
	for k := range child {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, want) {
		t.Fatalf("span fields %v, want %v", keys, want)
	}
	attrs, ok := child["attrs"].(map[string]any)
	if !ok || len(attrs) != 6 || attrs["deadEnds"] != "deadEnds-value" {
		t.Fatalf("attrs = %#v, want an object of the six attributes", child["attrs"])
	}
	if child["parentId"] != tr[0].SpanID || child["spanId"] != tr[1].SpanID || child["name"] != "server.reason" ||
		child["kind"] != "internal" || child["status"] != "ok" || child["node"] != "w1" {
		t.Fatalf("span = %v", child)
	}
	if _, ok := body.Spans[0]["parentId"]; ok {
		t.Fatalf("root span carries a parentId: %v", body.Spans[0])
	}
}

// TestSpanStoreAttributeBounds: a stored span keeps every attribute up
// to the bound, past the ones it stores inline, with each value capped.
func TestSpanStoreAttributeBounds(t *testing.T) {
	st := NewSpanStore(0, "w1")
	sp, _ := StartSpan(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}, "x", "internal")
	for i := 0; i < maxSpanAttrs+4; i++ {
		sp.SetAttr(fmt.Sprintf("k%02d", i), strings.Repeat("v", 300))
	}
	sp.SetAttr("k00", "replaced")
	st.Add(sp)
	got := st.Trace(sp.TraceID)[0].Attrs
	if len(got) != maxSpanAttrs || got["k00"] != "replaced" || len(got["k15"]) != maxAttrLen {
		t.Fatalf("attrs: %d keys, k00=%q, len(k15)=%d", len(got), got["k00"], len(got["k15"]))
	}
}

// TestSpanStoreExemplarPins: an exemplar's trace survives eviction, its
// later spans join it, and a larger exemplar releases it.
func TestSpanStoreExemplarPins(t *testing.T) {
	st := NewSpanStore(4, "w1")
	h := newHistogram(DurationBuckets())
	add := func(tr [2]Span) {
		st.Add(&tr[0])
		st.Add(&tr[1])
	}
	slow := twoSpanTrace()
	st.Add(&slow[1]) // the child lands before the root's observation
	st.ObserveExemplar(h, 0.5, slow[0].TraceID)
	st.Add(&slow[0])
	for i := 0; i < 10; i++ {
		add(twoSpanTrace())
	}
	if got := st.Trace(slow[0].TraceID); len(got) != 2 {
		t.Fatalf("pinned trace after eviction: %d spans, want 2", len(got))
	}
	late, _ := StartSpan(SpanContext{TraceID: slow[0].TraceID, SpanID: slow[0].SpanID, Sampled: true}, "job.complete", "internal")
	st.Add(late)
	if got := st.Trace(slow[0].TraceID); len(got) != 3 {
		t.Fatalf("pinned trace after a late span: %d spans, want 3", len(got))
	}
	if ids := st.TraceIDs(); ids[len(ids)-1] != slow[0].TraceID || st.Len() != 4+3 {
		t.Fatalf("trace IDs %v, len %d: want the pinned trace last and 7 spans", ids, st.Len())
	}

	// A smaller observation leaves the pin; a larger one moves it.
	st.ObserveExemplar(h, 0.1, NewTraceID())
	slower := twoSpanTrace()
	st.ObserveExemplar(h, 0.9, slower[0].TraceID)
	add(slower)
	dropped := st.Dropped()
	if st.Trace(slow[0].TraceID) != nil {
		t.Fatal("displaced exemplar's trace still retained")
	}
	for i := 0; i < 10; i++ {
		add(twoSpanTrace())
	}
	if got := st.Trace(slower[0].TraceID); len(got) != 2 {
		t.Fatalf("new exemplar's trace: %d spans, want 2", len(got))
	}
	if st.Dropped() <= dropped || st.Recorded() != 1+1+20+1+2+20 {
		t.Fatalf("counters: recorded %d dropped %d", st.Recorded(), st.Dropped())
	}
}

// TestSpanStoreConcurrent exercises Add, Trace, TraceIDs, Len and the
// exemplar pins from several goroutines; run it under -race.
func TestSpanStoreConcurrent(t *testing.T) {
	st := NewSpanStore(32, "w1")
	h := newHistogram(DurationBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tr := twoSpanTrace()
				st.Add(&tr[1])
				st.ObserveExemplar(h, float64(g*1000+i), tr[0].TraceID)
				st.Add(&tr[0])
				st.Trace(tr[0].TraceID)
				st.TraceIDs()
				st.Len()
			}
		}(g)
	}
	wg.Wait()
	ex, _ := h.Exemplar()
	if got := st.Trace(ex.TraceID); len(got) != 2 {
		t.Fatalf("final exemplar's trace: %d spans, want 2", len(got))
	}
	if ids := st.TraceIDs(); len(ids) > 32/2+1+4 {
		t.Fatalf("%d traces retained: pins were not released", len(ids))
	}
}
