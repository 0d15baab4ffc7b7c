package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPlanDeterministic pins the determinism contract's schedule half:
// one (seed, topology, window) names exactly one fault schedule, and
// the schedule only uses the fault kinds its topology supports.
func TestPlanDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		nodes   int
		cluster bool
	}{
		{"single", 1, false},
		{"cluster", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewPlan(99, tc.nodes, 2*time.Second, tc.cluster)
			b := NewPlan(99, tc.nodes, 2*time.Second, tc.cluster)
			if a.String() != b.String() {
				t.Fatalf("same seed, different plans:\n%s\nvs\n%s", a, b)
			}
			if len(a.Events) < 2 {
				t.Fatalf("plan has %d events, want >= 2:\n%s", len(a.Events), a)
			}
			for _, ev := range a.Events {
				if !tc.cluster && ev.Kind == ActPartition {
					t.Fatalf("single-node plan schedules a partition:\n%s", a)
				}
				if ev.At < 0 || ev.At+ev.Dur > 2*time.Second {
					t.Fatalf("event %s escapes the window", ev)
				}
				if ev.Node < 0 || ev.Node >= tc.nodes {
					t.Fatalf("event %s targets node outside 0..%d", ev, tc.nodes-1)
				}
			}
			c := NewPlan(100, tc.nodes, 2*time.Second, tc.cluster)
			if a.String() == c.String() {
				t.Fatalf("seeds 99 and 100 produced the same plan:\n%s", a)
			}
		})
	}
}

// TestRegressionSeeds replays the chaos seeds that found real bugs, each
// committed here with the story of what it broke. Every entry must pass
// all four invariants forever; a failure means the hardening it pinned
// has regressed. Replay any entry interactively with
//
//	go run ./cmd/dimsatchaos -seed <seed> -topology <topology> -window 1500ms -v
func TestRegressionSeeds(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		topology string
		story    string
	}{
		{3, "single", "submits land inside an ENOSPC window; the store's rolled-back " +
			"submit used to surface as 400, blaming the client for the server's disk " +
			"(now a typed 503 via jobs.ErrStorage)"},
		{38, "single", "the node restarts while snapshot reads still flip bits, so " +
			"recovery scans corrupt checkpoints; jobs used to fail outright instead " +
			"of quarantining the snapshot and restarting the search from scratch — " +
			"and, found again once the workload put a job-record read in the same " +
			"window, the scan used to quarantine a record off one faulted read, " +
			"forgetting an acknowledged job (now it re-reads before condemning)"},
		{4, "cluster", "one worker crashes, then the survivor is partitioned from the " +
			"coordinator; exercises health going down and back up, failover with the " +
			"down workers dialed last, and the post-heal rejoin that the /readyz disk " +
			"probe makes possible on idle stores"},
	} {
		t.Run(fmt.Sprintf("%s-seed-%d", tc.topology, tc.seed), func(t *testing.T) {
			rep, err := Run(tc.seed, Options{
				Topology: tc.topology,
				Window:   1500 * time.Millisecond,
				Logf:     t.Logf,
			})
			if err != nil {
				t.Fatalf("seed %d (%s): harness error: %v", tc.seed, tc.topology, err)
			}
			if rep.Failed() {
				t.Errorf("regression seed %d (%s) failed — story: %s\n%s",
					tc.seed, tc.topology, tc.story, rep.Summary())
			}
			if rep.AckedJobs == 0 {
				t.Errorf("seed %d (%s): no jobs acknowledged; the durability oracle had nothing to check", tc.seed, tc.topology)
			}
		})
	}
}

// TestSummaryDeterministic pins the reproducibility claim end to end:
// two full runs of the same seed produce byte-identical summaries (the
// schedule plus every invariant verdict). Traffic counts are allowed to
// differ and live outside Summary for exactly that reason.
func TestSummaryDeterministic(t *testing.T) {
	opts := Options{Topology: "single", Window: 1200 * time.Millisecond}
	first, err := Run(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Summary() != second.Summary() {
		t.Fatalf("same seed, different summaries:\n%s\nvs\n%s", first.Summary(), second.Summary())
	}
	if !strings.Contains(first.Summary(), "enospc") {
		t.Fatalf("seed 3 schedule lost its ENOSPC window:\n%s", first.Summary())
	}
}
