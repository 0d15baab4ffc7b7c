package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// syncLog is a goroutine-safe log sink for asserting on coordinator and
// worker log output.
type syncLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *syncLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *syncLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startTracedWorker is startWorker plus a span store shared by the
// server and the job store, as cmd/dimsatd wires it. Local sampling is
// off so health probes don't churn the ring; spans adopted from the
// coordinator's traceparent are always recorded.
func startTracedWorker(t *testing.T, schema *core.DimensionSchema, node string) (*httptest.Server, *obs.SpanStore) {
	t.Helper()
	spans := obs.NewSpanStore(0, node)
	store, err := jobs.Open(jobs.Config{
		Dir:             t.TempDir(),
		Schema:          schema,
		CheckpointEvery: 1,
		Spans:           spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(schema, server.Config{Jobs: store, Spans: spans, SpanSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, spans
}

// fetchAssembly fetches GET /cluster/trace/{id}, tolerating 404 while
// spans are still landing (the coordinator records its root span just
// after answering the traced request).
func fetchAssembly(t *testing.T, base, traceID string) (obs.TraceAssembly, bool) {
	t.Helper()
	resp, err := http.Get(base + "/cluster/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return obs.TraceAssembly{}, false
	}
	var asm obs.TraceAssembly
	if err := json.Unmarshal(body, &asm); err != nil {
		t.Fatalf("decoding assembly %q: %v", body, err)
	}
	return asm, true
}

// TestCoordinatorAndWorkerShareRequestID proves the correlation contract
// end to end: the ID the coordinator mints (or adopts) is the ID the
// worker logs, so one grep finds a request's lines on both sides. Both
// nodes write the same JSON "request" event.
func TestCoordinatorAndWorkerShareRequestID(t *testing.T) {
	workerLog := &syncLog{}
	srv, err := server.NewWithConfig(paper.LocationSch(), server.Config{Log: workerLog})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewServer(srv)
	t.Cleanup(w.Close)

	coordLog := &syncLog{}
	_, ts := startCoordinator(t, Config{HedgeDelay: -1, Log: coordLog}, w.URL)

	check := func(headerID string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sat?category=Store", nil)
		if err != nil {
			t.Fatal(err)
		}
		if headerID != "" {
			req.Header.Set("X-Request-ID", headerID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("no X-Request-ID on the coordinator response")
		}
		if headerID != "" && id != headerID {
			t.Fatalf("X-Request-ID = %q, want the forwarded %q adopted", id, headerID)
		}
		// The coordinator logs its line after the response is written;
		// give both sinks a beat.
		deadline := time.Now().Add(2 * time.Second)
		for {
			coordHas := strings.Contains(coordLog.String(), `"requestId":"`+id+`"`)
			workerHas := strings.Contains(workerLog.String(), `"requestId":"`+id+`"`)
			if coordHas && workerHas {
				checkRequestEvent(t, coordLog.String(), id)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %s not in both logs (coordinator=%v worker=%v)", id, coordHas, workerHas)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	check("")            // coordinator-minted ID flows to the worker
	check("it-client-7") // client-forwarded valid ID adopted by both
}

// checkRequestEvent checks the coordinator's "request" event for
// request id: the fields dimsatd's request event carries.
func checkRequestEvent(t *testing.T, log, id string) {
	t.Helper()
	for _, line := range strings.Split(log, "\n") {
		var ev struct {
			Event, RequestID, TraceID, Method, Path string
			Status                                  int
			DurationMS                              *float64
		}
		if json.Unmarshal([]byte(line), &ev) != nil || ev.RequestID != id {
			continue
		}
		if ev.Event != "request" || len(ev.TraceID) != 32 || ev.Method != http.MethodGet ||
			ev.Path != "/sat" || ev.Status != http.StatusOK || ev.DurationMS == nil {
			t.Errorf("coordinator request event = %s", line)
		}
		return
	}
	t.Errorf("no coordinator request event for %s in %q", id, log)
}

// TestFailoverTraceAssembledAcrossNodes drives one read through an
// injected first-attempt forward fault and asserts the assembled trace
// tells the whole story: a failed forward, the successful retry, and the
// worker-side spans, all under one well-parented trace.
func TestFailoverTraceAssembledAcrossNodes(t *testing.T) {
	w1, _ := startTracedWorker(t, paper.LocationSch(), "w1")
	w2, _ := startTracedWorker(t, paper.LocationSch(), "w2")
	inj := faults.New(faults.Rule{Site: faults.SiteClusterForward, Kind: faults.Error, On: []int{1}})
	_, ts := startCoordinator(t, Config{HedgeDelay: -1, Faults: inj}, w1.URL, w2.URL)

	resp, err := http.Get(ts.URL + "/sat?category=Store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sat = %d, want 200 via failover", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID on the coordinator response")
	}

	deadline := time.Now().Add(5 * time.Second)
	var asm obs.TraceAssembly
	for {
		var ok bool
		asm, ok = fetchAssembly(t, ts.URL, traceID)
		if ok && asm.WellParented && len(asm.Spans) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never assembled well-parented: %+v", asm)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var forwards, failed, served int
	for _, sp := range asm.Spans {
		switch sp.Name {
		case "cluster.forward":
			forwards++
			if sp.Status == "error" {
				failed++
			}
		case "server.request":
			served++
		}
	}
	if forwards != 2 || failed != 1 {
		t.Errorf("forward spans = %d (%d failed), want 2 with 1 failed", forwards, failed)
	}
	if served != 1 {
		t.Errorf("server.request spans = %d, want 1 (only the surviving attempt reached a worker)", served)
	}
	if len(asm.Nodes) < 2 {
		t.Errorf("trace nodes = %v, want spans from the coordinator and a worker", asm.Nodes)
	}
}

// TestHedgedLoserSpanCancelled slows the owner's forward so the hedge
// arm wins, and asserts the losing attempt is recorded as a cancelled
// span — not an error, not silently dropped. Runs under -race in
// `make check-race`, which is the leak check for the loser's
// late-recording goroutine.
func TestHedgedLoserSpanCancelled(t *testing.T) {
	w1, _ := startTracedWorker(t, paper.LocationSch(), "w1")
	w2, _ := startTracedWorker(t, paper.LocationSch(), "w2")
	inj := faults.New(faults.Rule{
		Site: faults.SiteClusterForward, Kind: faults.Latency, On: []int{1}, Delay: 500 * time.Millisecond,
	})
	c, ts := startCoordinator(t, Config{HedgeDelay: 20 * time.Millisecond, Faults: inj}, w1.URL, w2.URL)

	resp, err := http.Get(ts.URL + "/sat?category=Store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sat = %d, want 200 via hedge", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-ID")

	// The loser's span lands after its delayed attempt notices the
	// cancellation — well after the response.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var won, cancelled int
		for _, sp := range c.spans.Trace(traceID) {
			if sp.Name != "cluster.forward" {
				continue
			}
			switch sp.Status {
			case "ok":
				won++
			case "cancelled":
				cancelled++
			}
		}
		if won == 1 && cancelled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forward spans ok=%d cancelled=%d, want 1 winner and 1 cancelled loser", won, cancelled)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if c.met.hedgeWins.Value() == 0 {
		t.Error("hedgeWins = 0, the hedge arm should have won")
	}
}

// TestJobHandoffKeepsTraceAcrossWorkerCrash is the distributed-tracing
// acceptance test for job handoff: a job submitted through the
// coordinator keeps one trace ID when its hosting worker dies and the
// job resumes from the mirrored checkpoint on the survivor — a separate
// process with a separate span ring.
func TestJobHandoffKeepsTraceAcrossWorkerCrash(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	w1, spans1 := startTracedWorker(t, parseSchema(t, src), "w1")
	w2, spans2 := startTracedWorker(t, parseSchema(t, src), "w2")
	_, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"sat","category":"C0"}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted clusterJobView
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID on the job submit response")
	}

	// Let the job checkpoint some progress, then kill its host from the
	// network — the mirror has what the survivor needs.
	deadline := time.Now().Add(15 * time.Second)
	var host string
	for {
		var v clusterJobView
		coordGet(t, ts.URL, "/jobs/"+submitted.ID, &v)
		if v.State == "done" {
			t.Fatal("job finished before the kill; hard instance too small")
		}
		if v.Expansions >= 50 {
			host = v.Worker
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	survivorSpans := spans2
	for _, w := range []*httptest.Server{w1, w2} {
		if w.URL == host {
			if w == w2 {
				survivorSpans = spans1
			}
			w.Close()
		}
	}

	final := awaitClusterJob(t, ts.URL, submitted.ID, 30*time.Second)
	if final.State != "done" {
		t.Fatalf("recovered job = %+v, want done", final)
	}

	// The survivor's ring started empty after the "crash"; its job spans
	// must carry the submit's original trace ID. The complete span lands
	// just after the state transition the poll saw, so retry briefly.
	var attempt, complete *obs.Span
	spanDeadline := time.Now().Add(3 * time.Second)
	for {
		got := survivorSpans.Trace(traceID)
		attempt, complete = nil, nil
		for i := range got {
			switch got[i].Name {
			case "job.attempt":
				attempt = &got[i]
			case "job.complete":
				complete = &got[i]
			}
		}
		if attempt != nil && complete != nil {
			break
		}
		if time.Now().After(spanDeadline) {
			t.Fatalf("survivor spans for trace %s: %d recorded, want job.attempt and job.complete", traceID, len(got))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if attempt.Attrs["resumed"] != "true" {
		t.Errorf("survivor attempt attrs %v, want resumed=true (resumed from the mirrored checkpoint)", attempt.Attrs)
	}

	// And the coordinator can assemble the whole story across processes.
	asm, ok := fetchAssembly(t, ts.URL, traceID)
	if !ok || !asm.WellParented {
		t.Fatalf("assembled trace = %+v, want well-parented", asm)
	}
	if len(asm.Nodes) < 2 {
		t.Errorf("trace nodes = %v, want the coordinator and the survivor", asm.Nodes)
	}
}
