package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"olapdim/internal/jobs"
	"olapdim/internal/server"
)

// TestRunnerSmoke drives a real in-process server for two seconds with
// the full default mix (including durable jobs) and checks the report
// end to end: client percentiles, server effort deltas, no errors, and
// a record that survives the JSON round trip.
func TestRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2s load run")
	}
	spec := Defaults()
	spec.Seed = 42
	spec.Duration = 2 * time.Second
	spec.Warmup = 200 * time.Millisecond
	spec.Concurrency = 4 // closed loop (Rate == 0)

	// The server must host the exact schema the runner's planner will
	// regenerate from the same spec — determinism is what makes this
	// rendezvous work without passing the schema out of band.
	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := p.Schema()
	store, err := jobs.Open(jobs.Config{
		Dir:             t.TempDir(),
		Schema:          ds,
		CheckpointEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(ds, server.Config{Jobs: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rn := &Runner{Spec: spec, Base: ts.URL, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := rn.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if rep.SchemaVersion != ReportSchemaVersion {
		t.Errorf("schemaVersion = %d", rep.SchemaVersion)
	}
	if rep.Requests == 0 {
		t.Fatal("run issued no measured requests")
	}
	if rep.Errors != 0 || rep.TransportErrors != 0 {
		t.Errorf("errors = %d, transport errors = %d, want 0", rep.Errors, rep.TransportErrors)
	}
	if rep.ThroughputRPS <= 0 {
		t.Errorf("throughput = %v", rep.ThroughputRPS)
	}
	if rep.Workload.Mode != "closed" {
		t.Errorf("mode = %q, want closed", rep.Workload.Mode)
	}
	if rep.Workload.Schema == nil || rep.Workload.Schema.Seed != 42 {
		t.Errorf("workload schema not recorded with the run seed: %+v", rep.Workload.Schema)
	}

	// Every op with positive weight should complete at least once in 2s,
	// and the latency view must be internally consistent.
	for _, op := range Ops() {
		if spec.Mix[op] == 0 {
			continue
		}
		es, ok := rep.Endpoints[op]
		if !ok || es.Count == 0 {
			t.Errorf("endpoint %s has no measured requests", op)
			continue
		}
		if es.MaxMs <= 0 {
			t.Errorf("endpoint %s has no max latency: %+v", op, es)
		}
		// Quantiles interpolate within fixed buckets, so p99.9 may
		// overshoot the exact max — but the quantiles themselves must be
		// monotone.
		if es.P50Ms > es.P99Ms {
			t.Errorf("endpoint %s p50 %.3f > p99 %.3f", op, es.P50Ms, es.P99Ms)
		}
	}

	// Server-side effort deltas: the run must have driven real searches.
	if len(rep.Server) == 0 {
		t.Fatal("no server-side deltas captured")
	}
	if rep.Server["dimsat_http_requests_received_total"] <= 0 {
		t.Errorf("server saw no requests: %v", rep.Server)
	}
	if v, ok := rep.Server["dimsat_cache_work_expansions_total"]; !ok || v <= 0 {
		t.Errorf("no search expansions recorded: %v (present=%v)", v, ok)
	}

	// And survive the BENCH_*.json round trip.
	b, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests {
		t.Errorf("round trip lost request count: %d != %d", back.Requests, rep.Requests)
	}
}

// TestRunnerOpenLoopSmoke exercises the open-loop scheduler briefly: a
// modest fixed rate with a request cap, checking the coordinated-omission
// schedule issues the full planned count.
func TestRunnerOpenLoopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load run")
	}
	spec := Defaults()
	spec.Seed = 7
	spec.Mix = map[string]int{OpSat: 3, OpImplies: 1}
	spec.Rate = 200
	spec.Duration = 5 * time.Second
	spec.Warmup = 0
	spec.MaxRequests = 100

	p, err := NewPlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(p.Schema(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	rn := &Runner{Spec: spec, Base: ts.URL, Logf: t.Logf}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := rn.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload.Mode != "open" {
		t.Errorf("mode = %q, want open", rep.Workload.Mode)
	}
	if rep.Requests != 100 {
		t.Errorf("issued %d requests, want the 100-request cap", rep.Requests)
	}
	if rep.Errors != 0 || rep.TransportErrors != 0 {
		t.Errorf("errors = %d, transport errors = %d", rep.Errors, rep.TransportErrors)
	}
}
