package loadgen

import (
	"os"
	"path/filepath"
	"testing"

	"olapdim/internal/gen"
	"olapdim/internal/obs"
)

// goldenReport is the fixture behind testdata/BENCH_golden.json. Keep it
// in sync with the committed file: TestReportGolden regenerates the
// bytes from this value and compares them to the file, so any schema
// drift (renamed field, changed order) fails loudly.
func goldenReport() *Report {
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		Tool:          "dimsatload",
		StartedAt:     "2026-08-06T12:00:00Z",
		Build:         obs.BuildInfo{Version: "(devel)", GoVersion: "go1.24.3", Revision: "abcdef123456"},
		Machine:       Machine{GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GoMaxProcs: 8, Hostname: "bench-host"},
		Seed:          42,
		Workload: Workload{
			Mode:            "open",
			Target:          "http://127.0.0.1:18080",
			Mix:             "sat=8,implies=5,summarizable=4,sources=2,jobs=1",
			Rate:            200,
			Concurrency:     256,
			DurationSeconds: 10,
			WarmupSeconds:   1,
			Schema: &gen.SchemaSpec{
				Seed: 42, Categories: 12, Levels: 4, ExtraEdgeProb: 0.3,
				ChoiceProb: 0.4, Constants: 2, CondProb: 0.3, IntoFrac: 0.5,
			},
			SourcesMax: 2,
		},
		DurationSeconds: 10.01,
		Requests:        1800,
		WarmupRequests:  200,
		Errors:          0,
		TransportErrors: 0,
		Shed:            3,
		ThroughputRPS:   199.8,
		Endpoints: map[string]EndpointStats{
			"sat": {
				Count: 900, MeanMs: 1.2, P50Ms: 0.9, P90Ms: 2.1, P99Ms: 6.3,
				P999Ms: 12.8, MaxMs: 14.2,
			},
			"implies": {
				Count: 560, Shed: 3, MeanMs: 2.4, P50Ms: 1.8, P90Ms: 4.6,
				P99Ms: 11.0, P999Ms: 25.6, MaxMs: 31.9,
			},
		},
		Server: map[string]float64{
			"dimsat_cache_hits_total":             1500,
			"dimsat_cache_misses_total":           25,
			"dimsat_cache_work_expansions_total":  4200,
			"dimsat_cache_work_checks_total":      9800,
			"dimsat_cache_work_dead_ends_total":   310,
			"dimsat_http_shed_total":              3,
			"dimsat_jobs_checkpoint_writes_total": 2,
		},
	}
}

// TestReportGolden pins the BENCH_*.json wire format: goldenReport must
// encode into exactly the committed golden bytes.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "BENCH_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := goldenReport().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("encoded golden differs from committed bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportRoundTrip writes the golden report through a file on disk and
// requires the committed golden bytes back.
func TestReportRoundTrip(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "BENCH_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := goldenReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("written report differs from committed bytes:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
