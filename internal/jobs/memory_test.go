package jobs

import (
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/loadgen"
	"olapdim/internal/obs"
)

// familyJobs returns a loadgen.Defaults family member (N=12) and a
// source of job requests over it as a coordinator forwards them: sat and
// implies alternating, drawn from the planner's read stream as the
// cluster-write benchmark draws its jobs, each with the key the
// coordinator mints and a sampled traceparent. Every call builds fresh
// strings, as decoding a submit does.
func familyJobs(tb testing.TB) (*core.DimensionSchema, func(i int) Request) {
	tb.Helper()
	spec := loadgen.Defaults()
	spec.Seed = 7
	p, err := loadgen.NewPlanner(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var cats, cons []string
	for len(cats) < 32 || len(cons) < 32 {
		r := p.Next()
		switch r.Op {
		case loadgen.OpSat:
			u, err := url.Parse(r.Path)
			if err != nil {
				tb.Fatal(err)
			}
			cats = append(cats, u.Query().Get("category"))
		case loadgen.OpImplies:
			var in struct{ Constraint string }
			if err := json.Unmarshal([]byte(r.Body), &in); err != nil {
				tb.Fatal(err)
			}
			cons = append(cons, in.Constraint)
		}
	}
	boot := obs.NewSpanID()
	return p.Schema(), func(i int) Request {
		req := Request{
			IdempotencyKey: fmt.Sprintf("coord:%s:cj%06d", boot, i+1),
			TraceContext:   obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}.Traceparent(),
		}
		if i%2 == 0 {
			req.Kind, req.Category = KindSat, string([]byte(cats[i/2%len(cats)]))
		} else {
			req.Kind, req.Constraint = KindImplies, string([]byte(cons[i/2%len(cons)]))
		}
		return req
	}
}

// heapAlloc returns the live heap after two collections.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobsLeaveTheHeap runs 10,000 short jobs to done and bounds
// what the store retains per finished job: the idempotency index entry,
// not the job. A finished job's status is its record on disk.
func TestFinishedJobsLeaveTheHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10,000 durable jobs")
	}
	const n = 10000
	const ceiling = 200 // bytes per finished job
	schema, next := familyJobs(t)
	s := open(t, Config{Dir: t.TempDir(), Schema: schema})
	s.Start()
	before := heapAlloc()
	var last string
	for i := 0; i < n; i++ {
		st, _, err := s.Submit(next(i))
		if err != nil {
			t.Fatal(err)
		}
		last = st.ID
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Counters().Done < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs done after 60s", s.Counters().Done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	perJob := (float64(heapAlloc()) - float64(before)) / n
	runtime.KeepAlive(s)
	t.Logf("retained heap: %.0f B per finished job", perJob)
	if perJob > ceiling {
		t.Errorf("store retains %.0f B per finished job, want at most %d", perJob, ceiling)
	}
	if st, err := s.Status(last); err != nil || st.State != StateDone {
		t.Errorf("Status(%s) = %+v, %v, want done", last, st, err)
	}
}
