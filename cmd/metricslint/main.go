// Command metricslint instantiates the full serving metrics surface —
// a server hosting the paper's Location schema with a job store and an
// (unarmed) fault injector, so every conditional family registers, plus
// a cluster coordinator (never started, so nothing is dialed) for the
// olapdim_cluster_* families — and lints each registered family against
// the naming conventions in obs.Lint: the olapdim_ namespace, snake_case
// names, counters ending in _total, time-valued metrics in base seconds. It prints the metric
// catalog and exits non-zero on the first violation, so `make check`
// fails before a nonconforming metric can land on a dashboard.
//
//	metricslint            lint and print the catalog
//	metricslint -q         lint only
package main

import (
	"flag"
	"fmt"
	"os"

	"olapdim/internal/cluster"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the catalog, print only violations")
	flag.Parse()
	if err := run(*quiet); err != nil {
		fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
		os.Exit(1)
	}
}

func run(quiet bool) error {
	ds := paper.LocationSch()
	dir, err := os.MkdirTemp("", "metricslint-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.Open(jobs.Config{Dir: dir, Schema: ds})
	if err != nil {
		return err
	}
	defer store.Close()
	srv, err := server.NewWithConfig(ds, server.Config{
		Options: core.Options{Faults: faults.New()},
		Jobs:    store,
	})
	if err != nil {
		return err
	}
	// Never Started: building the coordinator registers every
	// olapdim_cluster_* family without probing the (fake) workers.
	coord, err := cluster.New(cluster.Config{
		Workers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
		Faults:  faults.New(),
	})
	if err != nil {
		return err
	}

	var bad int
	for _, reg := range []*obs.Registry{srv.Registry(), coord.Registry()} {
		for _, f := range reg.Families() {
			if err := obs.Lint(f.Name, f.Type); err != nil {
				fmt.Fprintf(os.Stderr, "metricslint: %v\n", err)
				bad++
				continue
			}
			if !quiet {
				name := f.Name
				if f.Label != "" {
					name += "{" + f.Label + "}"
				}
				fmt.Printf("%-55s %-9s %s\n", name, f.Type, f.Help)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric naming violations", bad)
	}
	return nil
}
