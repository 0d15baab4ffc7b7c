// Command perfbench is the olapdim benchmark. One run executes one named
// workload for a fixed time, checks every answer against the library,
// and prints its metrics: human-readable lines first, then one JSON
// object as the last line of standard output.
//
//	bash perfbench/bench.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Workloads (see workloads.json for loop type, clients, the layers each
// loads, and which end-to-end metric each per-layer metric should move):
//
//   - design-sweep: in-process facade calls over a seed-derived list of
//     generated schemas — parse, compile, lint, summarizability matrix,
//     explain — every answer a fresh DIMSAT search.
//   - serve-hot: one dimsatd and two closed-loop clients on the read mix,
//     after a warm-up has filled the cache.
//   - cluster-write: the serve-hot reads plus durable jobs through a
//     coordinator in front of one worker with a jobs directory.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, the self time of each layer
// from spans recorded around every call into it, and the tracing
// overhead. It must run from the repository root; bench.sh builds the
// benchmark and dimsatd first.
//
// `bash perfbench/bench.sh --calibrate` regenerates the committed input
// tables and verdict digests (see inputs.go). `cd perfbench && go test .`
// runs the benchmark's self-tests: its statistics, and the exact-counter
// check that two runs at one seed repeat their counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	dimsatd  string // dimsatd binary, for the HTTP workloads
	workDir  string // per-run working directories go below it
	digests  string // recorded design-sweep digests
	inputs   *inputTables
}

// runResult is what a workload reports.
type runResult struct {
	correct bool
	tally   tally
	e2e     map[string]float64
	// printed are end-to-end figures shown with --trace 0 but left out of
	// the result line: they do not apply to every workload, or, like
	// failed_ratio, are zero on a healthy build (the line's attempted and
	// failed carry it).
	printed map[string]metric
	layers  *layers
	loaded  []string // layers the workload puts load on
	notes   []string
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*runResult, error){
	"design-sweep":  runSweep,
	"serve-hot":     httpWorkload{cluster: false}.run,
	"cluster-write": httpWorkload{cluster: true}.run,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: design-sweep, serve-hot or cluster-write")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.dimsatd, "dimsatd", "", "dimsatd binary for the HTTP workloads")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench", "directory for per-run working files (logs, schemas, jobs directories)")
	flag.StringVar(&cfg.digests, "digests", "perfbench/digests.json", "recorded design-sweep verdict digests")
	inputsPath := flag.String("inputs", "perfbench/inputs.json", "committed input tables")
	calibrateFlag := flag.Bool("calibrate", false, "measure the schema family, rewrite -inputs and -digests, then exit")
	flag.Parse()
	cfg.duration = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *calibrateFlag {
		if err := calibrate(ctx, *inputsPath, cfg.digests); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var err error
	if cfg.inputs, err = loadInputs(*inputsPath); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runner := workloads[cfg.workload]
	if runner == nil || flag.NArg() != 0 || (*trace != 0 && *trace != 1) || cfg.duration <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload design-sweep|serve-hot|cluster-write --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := runner(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	metrics := map[string]metric{}
	if cfg.trace {
		metrics = res.layers.result(res.loaded)
		for _, a := range res.layers.absent {
			res.note("absent: %s", a)
		}
	} else {
		for _, m := range endToEnd {
			v, found := res.e2e[m.name]
			if !found {
				fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s was not measured\n", cfg.workload, m.name)
				return 1
			}
			metrics[m.name] = metric{v, m.unit}
		}
	}
	shown := map[string]metric{}
	for name, m := range metrics {
		shown[name] = m
	}
	if !cfg.trace {
		for name, m := range res.printed {
			shown[name] = m
		}
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d correct=%v\n",
		cfg.workload, cfg.seed, *seconds, *trace, res.correct)
	for _, n := range res.notes {
		fmt.Println("perfbench:", n)
	}
	names := make([]string, 0, len(shown))
	for name := range shown {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("perfbench:   %-28s %14.6f %s\n", name, shown[name].Value, shown[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.tally.attempted, res.tally.failed(), metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
