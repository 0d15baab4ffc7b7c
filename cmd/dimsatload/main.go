// Command dimsatload drives a live dimsatd or cluster coordinator with a
// seeded request stream, in a closed loop of 8 workers, and exits 1 when
// any request failed. It is the smoke scripts' load source, not a
// measurement: performance is measured and gated by the benchmark in
// perfbench/.
//
// The -seed flag drives everything: the schema family generator AND the
// request sampler share it, so two invocations with equal flags send
// byte-identical request streams against byte-identical schemas. Use
// -write-schema to emit the generated schema for booting dimsatd, then
// run the load with the same seed:
//
//	dimsatload -seed 42 -write-schema /tmp/bench.dims
//	dimsatd -addr 127.0.0.1:8080 -jobs-dir /tmp/jobs /tmp/bench.dims &
//	dimsatload -seed 42 -target http://127.0.0.1:8080 -duration 5s
//
// A failed run prints its counts on stderr; a clean one prints nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"olapdim/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	target := flag.String("target", "http://127.0.0.1:8080", "base URL of the dimsatd or coordinator under load")
	seed := flag.Int64("seed", 1, "seed for schema generation and request sampling (equal seeds = identical streams)")
	mixFlag := flag.String("mix", "", "workload mix as op=weight pairs (ops: sat, categories, implies, summarizable, sources, matrix, jobs, explain); empty for the default mix")
	duration := flag.Duration("duration", 10*time.Second, "how long to send requests")
	schemaFile := flag.String("schema", "", "drive an explicit schema file instead of a generated family")
	writeSchema := flag.String("write-schema", "", "write the run's schema text to this file and exit")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dimsatload [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	spec := loadgen.Defaults()
	spec.Seed, spec.Duration = *seed, *duration
	if *mixFlag != "" {
		mix, err := loadgen.ParseMix(*mixFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 2
		}
		spec.Mix = mix
	}
	if *schemaFile != "" {
		data, err := os.ReadFile(*schemaFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 2
		}
		spec.SchemaText = string(data)
	}

	if *writeSchema != "" {
		planner, err := loadgen.NewPlanner(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*writeSchema, []byte(planner.Schema().Format()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := (&loadgen.Runner{Spec: spec, Base: *target}).Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dimsatload: %v\n", err)
		return 2
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "dimsatload: %d of %d requests failed (%d transport errors; %d shed)\n",
			rep.Errors, rep.Requests, rep.TransportErrors, rep.Shed)
		return 1
	}
	return 0
}
