package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The counters below are cited as exact counts: at a fixed seed they
// must repeat bit for bit from run to run. Run with
//
//	cd perfbench && go test -run ExactCounters
//
// (skipped under -short: it runs the workloads for real).

func TestDesignSweepExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the design sweep")
	}
	inputs, err := loadInputs("inputs.json")
	if err != nil {
		t.Fatal(err)
	}
	exact := []string{"core.expansions", "core.checks", "core.dead_ends", "core.explain_probes", "cache.misses", "pool.tasks"}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		cfg := config{workload: "design-sweep", seed: 3, duration: time.Millisecond, trace: true,
			workDir: t.TempDir(), digests: "digests.json", inputs: inputs}
		res, err := runSweep(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct {
			t.Fatalf("run %d: answers did not check: %v", i, res.notes)
		}
		got := res.layers.result(res.loaded)
		if i == 0 {
			first = got
			if first["core.expansions"].Value == 0 {
				t.Fatal("core.expansions is zero: the sweep did no search")
			}
			continue
		}
		for _, name := range exact {
			if got[name] != first[name] {
				t.Errorf("%s: run 1 %v, run 2 %v", name, first[name].Value, got[name].Value)
			}
		}
	}
}

func TestServeHotExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dimsatd")
	}
	inputs, err := loadInputs("inputs.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "dimsatd")
	if out, err := exec.Command("go", "build", "-o", bin, "olapdim/cmd/dimsatd").CombinedOutput(); err != nil {
		t.Fatalf("building dimsatd: %v\n%s", err, out)
	}
	exact := []string{"cache.misses", "cache.warmup_misses", "compile.compiles", "core.expansions"}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		cfg := config{workload: "serve-hot", seed: 3, duration: time.Second, trace: true,
			dimsatd: bin, workDir: t.TempDir(), inputs: inputs}
		res, err := httpWorkload{}.run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.tally.failed() > 0 {
			t.Fatalf("run %d: %d of %d reads failed: %v", i, res.tally.failed(), res.tally.attempted, res.notes)
		}
		got := res.layers.result(res.loaded)
		if i == 0 {
			first = got
			if first["cache.warmup_misses"].Value == 0 {
				t.Fatal("cache.warmup_misses is zero: the warm-up searched nothing")
			}
			continue
		}
		for _, name := range exact {
			if got[name] != first[name] {
				t.Errorf("%s: run 1 %v, run 2 %v", name, first[name].Value, got[name].Value)
			}
		}
	}
}
