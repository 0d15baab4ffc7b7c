// Command dimsatd serves the dimension-constraint reasoner over HTTP for
// one schema file, so OLAP middleware can consult satisfiability,
// implication and summarizability as a service. Its reads are the
// entries of internal/api's table; internal/server documents the rest
// of the surface and the serving posture: per-request timeouts and
// expansion budgets, admission control that sheds with 429 +
// Retry-After, bounded request bodies, contained panics, /healthz and
// /readyz, and one shared satisfiability cache. GET /metrics serves the
// metrics registry in Prometheus text, and GET /stats serves it as JSON
// with the exemplars (trace IDs of the slowest observations) the text
// format cannot carry; a coordinator serves both for its own registry.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// With -jobs-dir set, the daemon also serves durable asynchronous jobs
// (POST /jobs): long searches checkpoint their position to disk every
// -checkpoint-every EXPAND steps, interrupted jobs resume on the next
// boot, and job workers share the -max-concurrent admission cap with
// interactive requests. -log, -slow-search, -span-sample and -debug-addr
// (a second, loopback-only listener with the net/http/pprof handlers)
// tune what the daemon records; see docs/OBSERVABILITY.md.
//
// With -coordinator, the daemon takes no schema argument and instead
// fronts the dimsatd workers listed in -workers as one sharded cluster
// (internal/cluster): reads route by the ring key the table derives,
// and a dead or drained worker's durable jobs move to the shard next in
// ring order. docs/OPERATIONS.md is the failure model and the client
// retry contract of both modes.
//
//	dimsatd -addr :8080 -timeout 10s -budget 1000000 -max-concurrent 32 schema.dims
//	dimsatd -addr :8080 -jobs-dir /var/lib/dimsatd/jobs schema.dims
//	dimsatd -addr :8080 -log - -span-sample 100 -debug-addr 127.0.0.1:6060 schema.dims
//	dimsatd -coordinator -addr :8080 -workers http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"olapdim/internal/cluster"
	"olapdim/internal/core"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request reasoning timeout (0 disables)")
	budget := flag.Int("budget", 0, "max DIMSAT expansions per search (0 = unlimited)")
	parallelism := flag.Int("parallelism", 0, "worker pool size for batch endpoints (0 = GOMAXPROCS)")
	readTimeout := flag.Duration("read-timeout", 5*time.Second, "HTTP read timeout")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	maxConcurrent := flag.Int("max-concurrent", 0, "max reasoning requests executing at once (0 = 4x GOMAXPROCS, -1 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max reasoning requests waiting for a slot (0 = 2x max-concurrent, -1 = none)")
	queueWait := flag.Duration("queue-wait", time.Second, "max time a queued request waits before shedding with 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	maxBody := flag.Int64("max-body", 1<<20, "max POST body bytes (-1 = unlimited)")
	jobsDir := flag.String("jobs-dir", "", "directory for durable async jobs (empty disables /jobs)")
	checkpointEvery := flag.Int("checkpoint-every", 1000, "EXPAND steps between durable job checkpoints (must not be negative)")
	jobBudget := flag.Int("job-budget", 0, "max cumulative DIMSAT expansions per job across resumes (0 = unlimited)")
	logDest := flag.String("log", "", `structured JSON log destination: "-" = stderr, a path = append to file, empty disables`)
	slowSearch := flag.Int("slow-search", 100000, "expansions at which a search is counted and logged slow (0 disables)")
	spanRing := flag.Int("span-ring", 2048, "distributed-trace spans retained for /debug/spans")
	spanSample := flag.Int("span-sample", 1, "start a sampled distributed trace every N requests arriving without a traceparent (1 = all, <0 disables)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables; keep it loopback-only)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator fronting -workers instead of serving a schema")
	workers := flag.String("workers", "", "comma-separated dimsatd worker base URLs (coordinator mode)")
	probeInterval := flag.Duration("probe-interval", time.Second, "worker /readyz probe period (coordinator mode)")
	pollInterval := flag.Duration("poll-interval", 500*time.Millisecond, "job status/checkpoint mirror period (coordinator mode)")
	failAfter := flag.Int("fail-after", 3, "consecutive failures before a worker leaves rotation (coordinator mode)")
	recoverAfter := flag.Int("recover-after", 2, "consecutive successes before a down worker returns (coordinator mode)")
	hedgeDelay := flag.Duration("hedge-delay", 200*time.Millisecond, "straggler-read hedge delay (coordinator mode; <0 disables hedging)")
	retryBudget := flag.Int("retry-budget", 0, "cluster-wide retry/hedge attempts allowed per second (coordinator mode; 0 = default 64, <0 unlimited)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dimsatd [flags] <schema.dims>")
		fmt.Fprintln(os.Stderr, "       dimsatd -coordinator -workers <url,url,...> [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	// The pprof handlers live on their own listener so profiling stays off
	// the service port: net/http/pprof registers on http.DefaultServeMux,
	// which the main server (a custom handler) never serves. Both modes
	// get it, so a coordinator can be profiled like a worker.
	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux}
		go func() {
			log.Printf("dimsatd: pprof debug listener on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dimsatd: debug listener: %v", err)
			}
		}()
		defer dbg.Close()
	}
	var logW io.Writer
	switch *logDest {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(*logDest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		logW = f
	}
	if *coordinator {
		var urls []string
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				urls = append(urls, w)
			}
		}
		if len(urls) == 0 {
			log.Fatal("dimsatd: -coordinator requires -workers with at least one worker URL")
		}
		coord, err := cluster.New(cluster.Config{
			Workers:       urls,
			FailAfter:     *failAfter,
			RecoverAfter:  *recoverAfter,
			ProbeInterval: *probeInterval,
			PollInterval:  *pollInterval,
			HedgeDelay:    *hedgeDelay,
			RetryBudget:   *retryBudget,
			SpanRing:      *spanRing,
			SpanSample:    *spanSample,
			Log:           logW,
			Logf:          log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		coord.Start()
		log.Printf("dimsatd: coordinating %d workers on %s: %s", len(urls), *addr, strings.Join(urls, ", "))
		serve(&http.Server{Addr: *addr, Handler: coord, ReadTimeout: *readTimeout, WriteTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second},
			*grace, "coordinator shutting down", coord.Close)
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	ds, err := core.Parse(string(data))
	if err != nil {
		log.Fatal(err)
	}
	// One compiled handle serves the HTTP server and the job store, so
	// every compile and derive — reads and job attempts alike — is
	// counted by olapdim_compiles_total.
	cs, err := core.Compile(ds)
	if err != nil {
		log.Fatal(err)
	}
	// One span store is shared by the HTTP server and the job store, so a
	// request's spans and the lifecycle spans of the jobs it submits land
	// in the same per-node ring (GET /debug/spans).
	spans := obs.NewSpanStore(*spanRing, "server")
	// The job store opens (and recovers interrupted jobs) before the
	// server is built, so the server can install its admission semaphore
	// as the store's Acquire hook; workers only start once Start runs,
	// after the wiring is complete.
	var store *jobs.Store
	if *jobsDir != "" {
		store, err = jobs.Open(jobs.Config{
			Dir:             *jobsDir,
			Schema:          ds,
			Options:         core.Options{MaxExpansions: *jobBudget, Compiled: cs},
			CheckpointEvery: *checkpointEvery,
			Logf:            log.Printf,
			Spans:           spans,
		})
		if err != nil {
			log.Fatal(err)
		}
		if c := store.Counters(); c.Recovered > 0 || c.CorruptRejected > 0 {
			log.Printf("dimsatd: job recovery: %d interrupted jobs re-enqueued, %d corrupt files quarantined",
				c.Recovered, c.CorruptRejected)
		}
	}
	handler, err := server.NewWithConfig(ds, server.Config{
		Options: core.Options{
			MaxExpansions: *budget,
			Parallelism:   *parallelism,
			Cache:         core.NewSatCache(),
			Compiled:      cs,
		},
		RequestTimeout: *timeout,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		RetryAfter:     *retryAfter,
		MaxBodyBytes:   *maxBody,
		Jobs:           store,

		Log:                  logW,
		Spans:                spans,
		SpanSample:           *spanSample,
		SlowSearchExpansions: *slowSearch,
	})
	if err != nil {
		log.Fatal(err)
	}
	if store != nil {
		store.Start()
	}

	// The write timeout must outlast the reasoning timeout or slow
	// searches would be cut off mid-response.
	writeTimeout := 30 * time.Second
	if *timeout > 0 && *timeout+5*time.Second > writeTimeout {
		writeTimeout = *timeout + 5*time.Second
	}
	srv := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: writeTimeout,
		IdleTimeout:  120 * time.Second,
	}

	name := ds.G.Name()
	if name == "" {
		name = flag.Arg(0)
	}
	log.Printf("dimsatd: serving schema %s (%d categories, %d constraints) on %s (timeout %s, budget %d)",
		name, ds.G.NumCategories(), len(ds.Sigma), *addr, *timeout, *budget)

	serve(srv, *grace, "shutting down, draining in-flight requests", func() {
		if store != nil {
			// Suspend running jobs: each persists its latest checkpoint and
			// stays non-terminal, so the next boot resumes it.
			store.Close()
		}
	})
}

// serve runs srv until SIGINT or SIGTERM, then gives in-flight requests
// up to grace to finish and calls stop.
func serve(srv *http.Server, grace time.Duration, what string, stop func()) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	cancel()
	log.Printf("dimsatd: %s (grace %s)", what, grace)
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), grace)
	defer cancelShutdown()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("dimsatd: shutdown: %v", err)
	}
	stop()
	log.Printf("dimsatd: bye")
}
