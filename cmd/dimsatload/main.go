// Command dimsatload is the deterministic load generator for dimsatd: it
// drives a live server over HTTP with a seeded workload mix, measures
// client-side latency per endpoint (coordinated-omission-safe in
// open-loop mode), scrapes /metrics before and after for server-side
// effort deltas, and writes the whole run as a schema-versioned
// BENCH_*.json record. It is a load tool, not a gate: `make check`
// gates performance through the benchmark in perfbench/.
//
// The -seed flag drives everything: the schema family generator AND the
// request sampler share it, so two invocations with equal flags produce
// byte-identical request streams against byte-identical schemas. Use
// -write-schema to emit the generated schema for booting dimsatd, then
// run the load with the same seed:
//
//	dimsatload -seed 42 -write-schema /tmp/bench.dims
//	dimsatd -addr 127.0.0.1:8080 -jobs-dir /tmp/jobs /tmp/bench.dims &
//	dimsatload -seed 42 -target http://127.0.0.1:8080 -rate 200 -duration 30s -out BENCH_dimsat.json
//
// Closed-loop mode (-rate 0) keeps -concurrency workers saturated;
// open-loop mode (-rate > 0) issues on a fixed schedule and measures
// latency from the scheduled arrival, so server stalls surface as
// latency instead of silently thinning the sample. -dry-run prints the
// planned request stream without touching the network.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"olapdim/internal/gen"
	"olapdim/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	target := flag.String("target", "http://127.0.0.1:8080", "base URL of the dimsatd under test")
	seed := flag.Int64("seed", 1, "seed for schema generation and request sampling (equal seeds = identical runs)")
	mixFlag := flag.String("mix", loadgen.FormatMix(loadgen.DefaultMix()), "workload mix as op=weight pairs (ops: sat, categories, implies, summarizable, sources, matrix, jobs, explain)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
	concurrency := flag.Int("concurrency", 0, "closed-loop workers, or open-loop in-flight cap (0 = defaults: 8 closed, 256 open)")
	duration := flag.Duration("duration", 10*time.Second, "issuing duration including warmup")
	warmup := flag.Duration("warmup", time.Second, "initial window excluded from statistics")
	requests := flag.Int("requests", 0, "stop after this many requests (0 = duration-bound)")
	sourcesMax := flag.Int("sources-max", 2, "max source-set size for sources requests (server caps at 3)")
	schemaFile := flag.String("schema", "", "drive an explicit schema file instead of a generated family")
	writeSchema := flag.String("write-schema", "", "write the run's schema text to this file and exit")
	dryRun := flag.Int("dry-run", 0, "print this many planned requests to stdout and exit (no network)")
	out := flag.String("out", "BENCH_dimsat.json", `run record destination ("-" = stdout)`)

	family := gen.SchemaSpec{}
	flag.IntVar(&family.Categories, "categories", 12, "generated schema: categories excluding All")
	flag.IntVar(&family.Levels, "levels", 4, "generated schema: levels below All")
	flag.Float64Var(&family.ExtraEdgeProb, "extra-edge-prob", 0.3, "generated schema: extra cross-level edge probability")
	flag.Float64Var(&family.ChoiceProb, "choice-prob", 0.4, "generated schema: one(...) constraint probability")
	flag.IntVar(&family.Constants, "constants", 2, "generated schema: constants on the top category")
	flag.Float64Var(&family.CondProb, "cond-prob", 0.3, "generated schema: conditional constraint probability")
	flag.Float64Var(&family.IntoFrac, "into-frac", 0.5, "generated schema: fraction of categories with into constraints")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dimsatload [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
		return 2
	}
	spec := loadgen.Spec{
		Seed:        *seed,
		Schema:      family,
		Mix:         mix,
		Rate:        *rate,
		Concurrency: *concurrency,
		Duration:    *duration,
		Warmup:      *warmup,
		MaxRequests: *requests,
		SourcesMax:  *sourcesMax,
	}
	if *schemaFile != "" {
		data, err := os.ReadFile(*schemaFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 2
		}
		spec.SchemaText = string(data)
	}

	planner, err := loadgen.NewPlanner(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
		return 2
	}

	if *writeSchema != "" {
		if err := os.WriteFile(*writeSchema, []byte(planner.Schema().Format()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "dimsatload: wrote schema (%d categories) to %s\n",
			planner.Schema().G.NumCategories(), *writeSchema)
		return 0
	}
	if *dryRun > 0 {
		if err := planner.WriteStream(os.Stdout, *dryRun); err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rn := &loadgen.Runner{
		Spec:         spec,
		Base:         *target,
		Logf:         func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		SchemaSource: *schemaFile,
	}
	fmt.Fprintf(os.Stderr, "dimsatload: seed %d, mix %s, %s mode, %s duration (%s warmup) against %s\n",
		spec.Seed, loadgen.FormatMix(mix), spec.Mode(), *duration, *warmup, *target)
	rep, err := rn.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
		return 1
	}

	if *out == "-" {
		b, err := rep.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 1
		}
		os.Stdout.Write(b)
	} else if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
		return 1
	}

	fmt.Fprintf(os.Stderr, "dimsatload: %d requests (%d warmup) in %.1fs, %.1f req/s, %d errors, %d shed\n",
		rep.Requests, rep.WarmupRequests, rep.DurationSeconds, rep.ThroughputRPS, rep.Errors, rep.Shed)
	for _, op := range loadgen.Ops() {
		es, ok := rep.Endpoints[op]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "dimsatload:   %-13s n=%-6d p50=%.2fms p90=%.2fms p99=%.2fms p99.9=%.2fms max=%.2fms\n",
			op, es.Count, es.P50Ms, es.P90Ms, es.P99Ms, es.P999Ms, es.MaxMs)
	}
	// The per-request sums, not the cache-work families: see Report.Server.
	if v, ok := rep.Server["olapdim_search_expansions_sum"]; ok {
		fmt.Fprintf(os.Stderr, "dimsatload:   server effort: %.0f expansions, %.0f checks, %.0f dead ends\n",
			v, rep.Server["olapdim_search_checks_sum"], rep.Server["olapdim_search_backtracks_sum"])
	}
	if cs := rep.Cluster; cs != nil {
		fmt.Fprintf(os.Stderr, "dimsatload:   cluster: %d/%d workers healthy, forwards per shard:\n", cs.Healthy, cs.Workers)
		var names []string
		for name := range cs.Forwards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "dimsatload:     %-30s %d\n", name, cs.Forwards[name])
		}
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "dimsatload: wrote %s\n", *out)
	}
	if rep.Errors > 0 || rep.TransportErrors > 0 {
		return 1
	}
	return 0
}
