// Package server exposes the dimension-constraint reasoner over HTTP as a
// small JSON API, so OLAP middleware (query rewriters, view advisors) can
// consult summarizability without linking Go code. One server instance
// hosts one dimension schema; all endpoints are read-only and safe for
// concurrent use.
//
// The server is built to degrade rather than wedge or die. Every
// reasoning endpoint runs under the request context and the configured
// per-request timeout (core.Options.Deadline), so a canceled client or an
// adversarial schema cannot hold a serving goroutine: the DIMSAT search
// aborts within one EXPAND step and the handler answers 503/504. Reasoning requests
// pass admission control — a bounded-concurrency semaphore with a short
// wait queue — and are shed with 429 + Retry-After once both are full,
// keeping latency bounded under overload instead of queueing unboundedly.
// A panic anywhere below a handler (including one injected by tests via
// the faults package) is contained: the request answers a structured 500
// and the process keeps serving. All requests share one satisfiability
// cache, so repeated roots — across a matrix request or across clients —
// are solved once.
//
// The server is also built to be watched. Every request is assigned an
// X-Request-ID, logged as a JSON line (Config.Log), and counted into a
// metrics registry exposed in Prometheus text format at GET /metrics;
// every reasoning request records its search effort (EXPAND/CHECK/dead
// ends) into per-request histograms; searches whose expansions cross
// Config.SlowSearchExpansions land in the slow-search log; and every
// sampled request (Config.SpanSample) records its spans, the reasoning
// phase's schema and search effort included, into the span store served
// at GET /debug/spans/{traceID}. Observing a request never changes the
// work it does. See docs/OBSERVABILITY.md for the catalog.
//
// The reads — /schema, /categories, /sat, /explain, /implies,
// /summarizable, /frozen, /matrix and /sources — are the entries of
// internal/api's table, which decodes and validates their arguments.
// Each reasoning read is served by one handler skeleton (Server.serve):
// admission, the table's decode, the reasoning scope, the engine call,
// the error mapping and the JSON answer. The other endpoints:
//
//	POST /jobs           {"kind": "sat", "category": "Store"}   durable async job
//	GET  /jobs                           all job statuses
//	GET  /jobs/{id}                      job status and result
//	DELETE /jobs/{id}                    cancel a job
//	GET  /stats                          the metrics registry as JSON, exemplars included
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/spans                    retained distributed-trace IDs
//	GET  /debug/spans/{traceID}          one trace's spans on this node
//	GET  /healthz                        liveness (always 200 while serving)
//	GET  /readyz                         readiness (503 while overloaded)
//
// A request no route matches answers 404, or 405 with Allow, in the same
// JSON error envelope (api.Mux). See docs/OPERATIONS.md for the failure
// model and client retry contract.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"olapdim/internal/api"
	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/parser"
)

// Config tunes a Server beyond the core reasoning options. The zero value
// yields a serving posture safe for untrusted traffic: bounded admission,
// bounded request bodies, no request timeout (set one in production).
type Config struct {
	// Options are the DIMSAT options applied to every request. When
	// Options.Cache is nil the server installs its own shared cache; when
	// Options.Pool is nil the server installs its worker-pool metrics
	// observer.
	Options core.Options
	// RequestTimeout bounds each reasoning request; zero means requests
	// run until the client disconnects.
	RequestTimeout time.Duration
	// MaxConcurrent caps reasoning requests executing at once. Zero
	// means 4x GOMAXPROCS; negative disables admission control.
	MaxConcurrent int
	// MaxQueue bounds reasoning requests waiting for an execution slot.
	// Zero means 2x MaxConcurrent; negative means no queue (immediate
	// shed when all slots are busy).
	MaxQueue int
	// QueueWait bounds how long an admitted-to-queue request waits for a
	// slot before being shed. Zero means 1s.
	QueueWait time.Duration
	// RetryAfter is the client backoff hint sent with 429 responses.
	// Zero means 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds POST request bodies. Zero means 1 MiB;
	// negative disables the limit.
	MaxBodyBytes int64
	// Jobs, when non-nil, enables the durable async-job endpoints
	// (POST /jobs, GET /jobs/{id}, DELETE /jobs/{id}) backed by this
	// store. The server installs its admission semaphore as the store's
	// Acquire hook, so job workers count against MaxConcurrent exactly
	// like interactive reasoning requests. The caller owns the store's
	// lifecycle: call its Start after the server is constructed and its
	// Close after HTTP shutdown.
	Jobs *jobs.Store

	// Metrics is the registry the server registers its instruments in
	// and serves at GET /metrics; nil means a fresh private registry
	// (read it back via Registry). Family names are fixed, so one
	// registry can host at most one server.
	Metrics *obs.Registry
	// Log, when non-nil, receives structured JSON lines: one "request"
	// event per HTTP request and one "slow_search" event per
	// threshold-crossing search. Nil disables request logging.
	Log io.Writer
	// SlowSearchExpansions is the per-request expansion count at or
	// above which a search is counted slow and logged to the slow-search
	// log; zero disables slow-search detection.
	SlowSearchExpansions int

	// Spans, when non-nil, is the span store finished spans are recorded
	// into — shared with the job store in dimsatd so request and job
	// lifecycle spans of one trace land in one place. Nil means a fresh
	// private store sized by SpanRing.
	Spans *obs.SpanStore
	// SpanRing bounds the spans retained for GET /debug/spans when the
	// server owns its store; zero means 2048.
	SpanRing int
	// SpanSample records every N-th locally-minted trace (1 = all, the
	// default); negative disables span recording for minted traces. An
	// adopted traceparent's sampled flag is always honored regardless.
	SpanSample int
}

const (
	defaultQueueWait  = time.Second
	defaultRetryAfter = time.Second
)

// Server hosts one dimension schema.
type Server struct {
	ds   *core.DimensionSchema
	opts core.Options
	mux  *api.Mux

	jobs *jobs.Store

	timeout time.Duration
	started time.Time
	// fingerprint identifies the hosted schema in traces and slow-search
	// log lines.
	fingerprint string

	metrics  *obs.Registry
	met      *serverMetrics
	logger   *obs.Logger
	observer *obs.RequestObserver
	spans    *obs.SpanStore

	slowExpansions int

	// Admission control: sem holds one token per executing reasoning
	// request (nil disables admission); the met.queued and met.inflight
	// gauges are the bookkeeping.
	sem        chan struct{}
	maxQueue   int64
	queueWait  time.Duration
	retryAfter time.Duration
	maxBody    int64
}

// New builds a server for a validated dimension schema with default
// configuration (shared cache, bounded admission, no request timeout).
func New(ds *core.DimensionSchema, opts core.Options) (*Server, error) {
	return NewWithConfig(ds, Config{Options: opts})
}

// NewWithConfig builds a server with explicit configuration.
func NewWithConfig(ds *core.DimensionSchema, cfg Config) (*Server, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	opts := cfg.Options
	if opts.Cache == nil {
		opts.Cache = core.NewSatCache()
	}
	if opts.Compiled == nil {
		// Compile the hosted schema once; every request then reuses it.
		cs, err := core.Compile(ds)
		if err != nil {
			return nil, err
		}
		opts.Compiled = cs
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	fingerprint := opts.Compiled.Fingerprint()
	s := &Server{
		ds:          ds,
		opts:        opts,
		mux:         api.NewMux(),
		timeout:     cfg.RequestTimeout,
		started:     time.Now(),
		fingerprint: fingerprint,
		metrics:     reg,
		met:         newServerMetrics(reg),
		logger:      obs.NewLogger(cfg.Log),
		spans:       cfg.Spans,
		queueWait:   cfg.QueueWait,
		retryAfter:  cfg.RetryAfter,
		maxBody:     cfg.MaxBodyBytes,

		slowExpansions: cfg.SlowSearchExpansions,
	}
	if s.spans == nil {
		s.spans = obs.NewSpanStore(cfg.SpanRing, "server")
	}
	s.observer = obs.NewRequestObserver("server.request", s.spans, cfg.SpanSample, s.met.requests)
	if s.opts.Pool == nil {
		s.opts.Pool = poolObserver{s.met}
	}
	if s.queueWait <= 0 {
		s.queueWait = defaultQueueWait
	}
	if s.retryAfter <= 0 {
		s.retryAfter = defaultRetryAfter
	}
	if s.maxBody == 0 {
		s.maxBody = api.MaxBody
	}
	if cfg.MaxConcurrent >= 0 {
		n := cfg.MaxConcurrent
		if n == 0 {
			n = 4 * runtime.GOMAXPROCS(0)
		}
		s.sem = make(chan struct{}, n)
		switch {
		case cfg.MaxQueue > 0:
			s.maxQueue = int64(cfg.MaxQueue)
		case cfg.MaxQueue == 0:
			s.maxQueue = int64(2 * n)
		default:
			s.maxQueue = 0
		}
	}
	// The table's reads: /schema formats the hosted schema and never
	// blocks; the others run DIMSAT searches and pass admission control.
	// Metadata, health and observability endpoints never block either.
	runs := map[*api.Op]read{
		api.Categories:   s.categories,
		api.Sat:          s.sat,
		api.Explain:      s.explain,
		api.Implies:      s.implies,
		api.Summarizable: s.summarizable,
		api.Frozen:       s.frozen,
		api.Matrix:       s.matrix,
		api.Sources:      s.sources,
	}
	for _, op := range api.Reads {
		if op == api.Schema {
			s.mux.HandleFunc(op.Pattern(), s.handleSchema)
		} else {
			s.mux.HandleFunc(op.Pattern(), s.serve(op, runs[op]))
		}
	}
	s.mux.HandleFunc("GET /stats", reg.ServeStats)
	s.mux.Handle("GET /metrics", reg)
	s.mux.Handle("GET /debug/spans", s.spans)
	s.mux.Handle("GET /debug/spans/{traceID}", s.spans)
	s.mux.HandleFunc("GET /healthz", api.Healthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Jobs != nil {
		s.jobs = cfg.Jobs
		// Job workers execute through the same admission semaphore as
		// interactive requests, a submit's own first attempt included
		// (it runs only if a slot is free at once); the handlers
		// themselves need no admission.
		s.jobs.SetAcquire(s.acquireJobSlot)
		s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /jobs", s.handleJobList)
		s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
		s.mux.HandleFunc("GET /jobs/{id}/checkpoint", s.handleJobCheckpoint)
		s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	}
	s.registerCollectors(reg)
	return s, nil
}

// Registry returns the metrics registry the server reports into, for
// mounting scrapes elsewhere and for cmd/metricslint.
func (s *Server) Registry() *obs.Registry { return s.metrics }

// acquireJobSlot is the jobs.Store admission hook: a job worker occupies
// one execution slot of the reasoning semaphore for the duration of its
// attempt, so background jobs and interactive requests share one
// concurrency cap. Unlike interactive admission there is no shed-or-queue
// bound — a waiting job waits as long as the store lives — and a submit
// only tries for a slot, queueing its job when none is free.
func (s *Server) acquireJobSlot(ctx context.Context, wait bool) (func(), bool) {
	switch {
	case s.sem == nil:
	case wait:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false
		}
	default:
		select {
		case s.sem <- struct{}{}:
		default:
			return nil, false
		}
	}
	s.met.inflight.Add(1)
	return s.release, true
}

// release frees the execution slot a reasoning request or job attempt
// holds.
func (s *Server) release() {
	s.met.inflight.Add(-1)
	if s.sem != nil {
		<-s.sem
	}
}

// ServeHTTP implements http.Handler. It is the outermost containment and
// observability boundary: obs.RequestObserver gives every request an
// X-Request-ID (a valid forwarded one, such as the cluster
// coordinator's, is adopted so coordinator and worker log lines share
// one key) and a W3C trace context, counts and times it by status class
// and records its span when sampled. The server adds one JSON log line
// per request and contains panics: one escaping any handler is answered
// as a structured 500 and counted, so one poisoned request can never
// take the process down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	out := s.observer.Serve(w, r, http.HandlerFunc(s.serveContained))
	s.logger.Request(r, out)
}

// serveContained routes one request, recovering a panic escaping the
// handler into a structured 500.
func (s *Server) serveContained(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.met.panics.Inc()
			log.Printf("server: contained panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			api.WriteError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// admit gates h behind the concurrency semaphore: run immediately when a
// slot is free, otherwise wait in the bounded queue up to queueWait, and
// shed with 429 + Retry-After when the queue is full or the wait expires.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				if s.met.queued.Add(1) > s.maxQueue {
					s.met.queued.Add(-1)
					s.shedRequest(w)
					return
				}
				t := time.NewTimer(s.queueWait)
				select {
				case s.sem <- struct{}{}:
					t.Stop()
					s.met.queued.Add(-1)
				case <-t.C:
					s.met.queued.Add(-1)
					s.shedRequest(w)
					return
				case <-r.Context().Done():
					t.Stop()
					s.met.queued.Add(-1)
					api.WriteError(w, http.StatusServiceUnavailable, "request canceled while queued")
					return
				}
			}
		}
		s.met.inflight.Add(1)
		defer s.release()
		h(w, r)
	}
}

// shedRequest answers 429 with the configured Retry-After hint.
func (s *Server) shedRequest(w http.ResponseWriter) {
	s.met.shed.Inc()
	secs := int(s.retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	api.WriteError(w, http.StatusTooManyRequests, "server overloaded, retry after %ds", secs)
}

// refuse answers a request its decode refused, counting the bodies over
// the cap.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	if api.Refuse(w, err) == http.StatusRequestEntityTooLarge {
		s.met.tooLarge.Inc()
	}
}

// writeReasoningErr maps engine errors to HTTP statuses: deadline and
// budget exhaustion are service-side limits (504/503), a contained panic
// or an injected engine fault is a structured 500 (the process keeps
// serving), a canceled request
// context means the client is gone, and anything else is a bad request
// (unknown category, parse error).
func (s *Server) writeReasoningErr(w http.ResponseWriter, err error) {
	var ie *core.InternalError
	switch {
	case errors.As(err, &ie):
		s.met.panics.Inc()
		log.Printf("server: contained reasoner panic: %v\n%s", ie.Value, ie.Stack)
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		api.WriteError(w, http.StatusGatewayTimeout, "reasoning timed out: %v", err)
	case errors.Is(err, core.ErrBudgetExceeded):
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, faults.ErrInjected):
		// An injected engine fault (e.g. core.shrink) is the server's
		// failure, never the client's: structured 500, process keeps
		// serving.
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.Canceled):
		// The client disconnected; nothing useful can be written.
		api.WriteError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		api.WriteError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.ds.Format())
}

// readyzResponse reports whether a new reasoning request would be
// admitted right now.
type readyzResponse struct {
	Status   string `json:"status"`
	InFlight int64  `json:"inFlight"`
	Queued   int64  `json:"queued"`
	// StorageError carries the last durable-write failure when the job
	// store's disk is persistently refusing writes.
	StorageError string `json:"storageError,omitempty"`
}

// storageFailStreak is how many consecutive durable-write failures the
// jobs store must report before /readyz degrades: one failed write is an
// incident for the log, a streak means the disk is gone and new work
// should route elsewhere.
const storageFailStreak = 3

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := readyzResponse{Status: "ready", InFlight: s.met.inflight.Value(), Queued: s.met.queued.Value()}
	status := http.StatusOK
	if s.sem != nil && len(s.sem) == cap(s.sem) && resp.Queued >= s.maxQueue {
		resp.Status = "overloaded"
		status = http.StatusServiceUnavailable
	}
	if s.jobs != nil {
		if streak, last := s.jobs.WriteHealth(); streak >= storageFailStreak {
			resp.Status = "storage-failing"
			resp.StorageError = last
			status = http.StatusServiceUnavailable
		}
	}
	api.WriteJSON(w, status, resp)
}

// read is the step of one reasoning read that the handler skeleton does
// not share: the engine call under the reasoning scope and the response
// it answers.
type read func(rz *reasoning, a api.Args) (any, error)

// serve is the one handler skeleton of the table's reasoning reads:
// admission, then op's decode, the reasoning scope, run, the error
// mapping and the encoding. Admission is taken before the body is read.
// As at the coordinator, only a POST entry reads its body, all of it
// against the cap; a GET's body is ignored.
func (s *Server) serve(op *api.Op, run read) http.HandlerFunc {
	if run == nil {
		panic("server: no handler for " + op.Pattern())
	}
	return s.admit(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if op.Method == http.MethodPost {
			var err error
			if body, err = api.ReadBody(w, r, s.maxBody); err != nil {
				s.refuse(w, err)
				return
			}
		}
		a, err := op.Decode(r, bytes.NewReader(body))
		if err != nil {
			s.refuse(w, err)
			return
		}
		rz := s.beginReasoning(r, op.Path, op.Detail(a))
		defer rz.finish()
		v, err := run(rz, a)
		if err != nil {
			s.writeReasoningErr(w, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, v)
	})
}

type categoryInfo struct {
	Name        string `json:"name"`
	Satisfiable bool   `json:"satisfiable"`
	Bottom      bool   `json:"bottom"`
}

func (s *Server) categories(rz *reasoning, _ api.Args) (any, error) {
	sat, err := core.CategorySatisfiabilityContext(rz.ctx, s.ds, rz.opts)
	if err != nil {
		return nil, err
	}
	bottoms := map[string]bool{}
	for _, b := range s.ds.G.Bottoms() {
		bottoms[b] = true
	}
	var out []categoryInfo
	for _, c := range s.ds.G.SortedCategories() {
		out = append(out, categoryInfo{Name: c, Satisfiable: sat[c], Bottom: bottoms[c]})
	}
	return out, nil
}

type satResponse struct {
	Category    string `json:"category"`
	Satisfiable bool   `json:"satisfiable"`
	Witness     string `json:"witness,omitempty"`
	Expansions  int    `json:"expansions"`
	Checks      int    `json:"checks"`
}

func (s *Server) sat(rz *reasoning, a api.Args) (any, error) {
	res, err := core.SatisfiableContext(rz.ctx, s.ds, a.Category, rz.opts)
	if err != nil {
		return nil, err
	}
	resp := satResponse{
		Category:    a.Category,
		Satisfiable: res.Satisfiable,
		Expansions:  res.Stats.Expansions,
		Checks:      res.Stats.Checks,
	}
	if res.Witness != nil {
		resp.Witness = res.Witness.String()
	}
	return resp, nil
}

// explainResponse is the GET /explain body: the satisfiability verdict
// plus the evidence for it. SAT verdicts carry the witness and the
// touched set; UNSAT verdicts additionally carry a minimal unsat core —
// Σ indices whose subset is unsatisfiable as-is while dropping any single
// member flips the verdict — with Core empty (not null) when the UNSAT
// is structural and no constraint participates. Budget or deadline
// exhaustion during shrinking answers a typed 503/504 like every other
// reasoning endpoint, never a silently-unminimized 200.
type explainResponse struct {
	Category    string           `json:"category"`
	Satisfiable bool             `json:"satisfiable"`
	Witness     string           `json:"witness,omitempty"`
	Provenance  *core.Provenance `json:"provenance,omitempty"`
	// Core and CoreConstraints are the minimal unsat core as Σ indices and
	// rendered constraints; null on SAT verdicts.
	Core            []int    `json:"core"`
	CoreConstraints []string `json:"coreConstraints,omitempty"`
	Frontier        []string `json:"frontier,omitempty"`
	// Probes and ProbeExpansions are the shrinking effort on top of the
	// initial search.
	Probes          int `json:"probes"`
	ProbeExpansions int `json:"probeExpansions"`
	Expansions      int `json:"expansions"`
}

// probeSpanObserver builds the ShrinkObserver that records one child span
// per unsat-core deletion probe under parent, plus the probe counter. The
// observer runs synchronously on the explain goroutine, so no locking.
func (s *Server) probeSpanObserver(parent obs.SpanContext, record bool) func(core.ShrinkProbe) {
	return func(p core.ShrinkProbe) {
		s.met.explainProbes.Inc()
		if !record {
			return
		}
		sp := obs.Span{
			TraceID:    parent.TraceID,
			SpanID:     obs.NewSpanID(),
			ParentID:   parent.SpanID,
			Name:       "server.explain.probe",
			Kind:       "internal",
			Start:      p.Start,
			DurationMS: float64(p.Duration) / float64(time.Millisecond),
			Status:     "ok",
		}
		if p.Err != nil {
			sp.Status = "error"
		}
		sp.SetAttr("sigmaIndex", strconv.Itoa(p.Index))
		sp.SetAttr("removed", strconv.FormatBool(p.Removed))
		sp.SetAttr("expansions", strconv.Itoa(p.Stats.Expansions))
		s.spans.Add(&sp)
	}
}

// runExplain is the tail /explain and a provenance POST /implies share:
// it explains root's verdict over ds and keeps the explain metrics, an
// exhausted budget or deadline and the size of an UNSAT verdict's core.
// It returns the explanation, partial with a failure, and the core's
// constraints rendered.
func (s *Server) runExplain(ctx context.Context, ds *core.DimensionSchema, root string, opts core.Options) (*core.Explanation, []string, error) {
	ex, err := core.ExplainContext(ctx, ds, root, opts)
	if err != nil {
		if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded) {
			s.met.explainExhausted.Inc()
		}
		return ex, nil, err
	}
	var coreSrc []string
	if !ex.Satisfiable {
		for _, e := range ex.CoreExprs {
			coreSrc = append(coreSrc, e.String())
		}
		s.met.explainCoreSize.Observe(float64(len(ex.Core)))
	}
	return ex, coreSrc, nil
}

func (s *Server) explain(rz *reasoning, a api.Args) (any, error) {
	s.met.explainRequests.Inc()
	// The explain phase is its own parent span, so a sampled trace shows
	// server.request → server.explain → one server.explain.probe child per
	// deletion probe, each timed by the engine's ShrinkProbe record.
	record := rz.sc.Sampled
	var parentSpan *obs.Span
	parentSC := rz.sc
	if record {
		parentSpan, parentSC = obs.StartSpan(rz.sc, "server.explain", "server")
	}
	opts := rz.opts
	opts.ShrinkObserver = s.probeSpanObserver(parentSC, record)
	ex, coreSrc, err := s.runExplain(rz.ctx, s.ds, a.Category, opts)
	if parentSpan != nil {
		parentSpan.SetAttr("category", a.Category)
		if ex != nil {
			parentSpan.SetAttr("probes", strconv.Itoa(ex.Probes))
			parentSpan.SetAttr("coreSize", strconv.Itoa(len(ex.Core)))
		}
		st := "ok"
		if err != nil {
			st = "error"
		}
		parentSpan.Finish(st)
		s.spans.Add(parentSpan)
	}
	if err != nil {
		return nil, err
	}
	resp := explainResponse{
		Category:        a.Category,
		Satisfiable:     ex.Satisfiable,
		Provenance:      ex.Provenance,
		Frontier:        ex.Frontier,
		Probes:          ex.Probes,
		ProbeExpansions: ex.ProbeStats.Expansions,
		Expansions:      rz.effort.Stats().Expansions,
	}
	if ex.Witness != nil {
		resp.Witness = ex.Witness.String()
	}
	if !ex.Satisfiable {
		resp.Core = ex.Core
		if resp.Core == nil {
			resp.Core = []int{}
		}
		resp.CoreConstraints = coreSrc
	}
	return resp, nil
}

type impliesResponse struct {
	Constraint     string `json:"constraint"`
	Implied        bool   `json:"implied"`
	Counterexample string `json:"counterexample,omitempty"`
	// Provenance is the touched set of the deciding search (the Theorem 2
	// negation run), present when the request asked for it. In the failed-
	// implication case it scopes the counterexample: only the categories,
	// edges and constraints listed were consulted in building it.
	Provenance *core.Provenance `json:"provenance,omitempty"`
	// Core and CoreConstraints carry the minimal unsat core over the
	// negation schema Σ ∪ {¬α} when the implication holds and provenance
	// was requested. Index len(Σ) denotes ¬α itself; its absence from the
	// core means Σ alone is already unsatisfiable at the constraint's root
	// (a vacuous implication).
	Core            []int    `json:"core,omitempty"`
	CoreConstraints []string `json:"coreConstraints,omitempty"`
}

// implies answers POST /implies. A request with provenance set bypasses
// the shared verdict cache: it asks for the touched set of the deciding
// Theorem 2 search and, when the implication holds (the negation schema
// is UNSAT), a minimal unsat core over Σ ∪ {¬α}.
func (s *Server) implies(rz *reasoning, a api.Args) (any, error) {
	alpha, err := parser.ParseConstraint(a.Constraint)
	if err != nil {
		return nil, err
	}
	if a.Provenance {
		return s.explainImplies(rz, alpha)
	}
	implied, res, err := core.ImpliesContext(rz.ctx, s.ds, alpha, rz.opts)
	if err != nil {
		return nil, err
	}
	resp := impliesResponse{Constraint: alpha.String(), Implied: implied}
	if !implied && res.Witness != nil {
		resp.Counterexample = res.Witness.String()
	}
	return resp, nil
}

// explainImplies answers a provenance-enabled POST /implies: it builds
// the Theorem 2 reduction on the hosted compiled schema and explains the
// negation schema's verdict, so the response carries the touched set
// and — when the implication holds — a minimal unsat core over
// Σ ∪ {¬α}.
func (s *Server) explainImplies(rz *reasoning, alpha constraint.Expr) (any, error) {
	s.met.explainRequests.Inc()
	neg, root, verdict, decided, err := rz.opts.Compiled.ImpliesReduction(alpha)
	if err != nil {
		return nil, err
	}
	if decided {
		return impliesResponse{Constraint: alpha.String(), Implied: verdict}, nil
	}
	opts := rz.opts
	opts.Compiled = neg
	opts.ShrinkObserver = s.probeSpanObserver(rz.sc, rz.sc.Sampled)
	ex, coreSrc, err := s.runExplain(rz.ctx, neg.Source(), root, opts)
	if err != nil {
		return nil, err
	}
	resp := impliesResponse{Constraint: alpha.String(), Implied: !ex.Satisfiable, Provenance: ex.Provenance}
	if ex.Satisfiable && ex.Witness != nil {
		resp.Counterexample = ex.Witness.String()
	}
	if !ex.Satisfiable {
		resp.Core = ex.Core
		resp.CoreConstraints = coreSrc
	}
	return resp, nil
}

type summarizableResponse struct {
	Target       string         `json:"target"`
	From         []string       `json:"from"`
	Summarizable bool           `json:"summarizable"`
	PerBottom    []bottomResult `json:"perBottom"`
}

type bottomResult struct {
	Bottom         string `json:"bottom"`
	Constraint     string `json:"constraint"`
	Implied        bool   `json:"implied"`
	Counterexample string `json:"counterexample,omitempty"`
}

func (s *Server) summarizable(rz *reasoning, a api.Args) (any, error) {
	rep, err := core.SummarizableContext(rz.ctx, s.ds, a.Target, a.From, rz.opts)
	if err != nil {
		return nil, err
	}
	resp := summarizableResponse{
		Target:       a.Target,
		From:         a.From,
		Summarizable: rep.Summarizable(),
	}
	for _, b := range rep.PerBottom {
		br := bottomResult{Bottom: b.Bottom, Constraint: b.Constraint.String(), Implied: b.Implied}
		if !b.Implied && b.Counterexample.Witness != nil {
			br.Counterexample = b.Counterexample.Witness.String()
		}
		resp.PerBottom = append(resp.PerBottom, br)
	}
	return resp, nil
}

func (s *Server) frozen(rz *reasoning, a api.Args) (any, error) {
	fs, err := core.EnumerateFrozenContext(rz.ctx, s.ds, a.Root, rz.opts)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out, nil
}

// matrixResponse reports each cell as "yes", "no" or "unknown". Unknown
// cells are the partial-degradation contract: when a bottom category's
// walk is cut by the per-request budget or deadline, the cells it leaves
// undecided are reported as such instead of failing the whole matrix;
// Complete is false in that case and clients may retry later for a full
// answer.
type matrixResponse struct {
	Categories []string                     `json:"categories"`
	From       map[string]map[string]string `json:"from"`
	Complete   bool                         `json:"complete"`
}

func (s *Server) matrix(rz *reasoning, _ api.Args) (any, error) {
	m, err := core.SummarizabilityMatrixPartialContext(rz.ctx, s.ds, rz.opts)
	if err != nil {
		return nil, err
	}
	resp := matrixResponse{Categories: m.Categories, From: map[string]map[string]string{}, Complete: m.Complete()}
	for _, target := range m.Categories {
		row := map[string]string{}
		for _, src := range m.Categories {
			switch {
			case m.Unknown[target][src]:
				row[src] = "unknown"
			case m.From[target][src]:
				row[src] = "yes"
			default:
				row[src] = "no"
			}
		}
		resp.From[target] = row
	}
	return resp, nil
}

// sourcesResponse lists every minimal source set (up to MaxSize
// categories) from which Target is summarizable in all instances.
type sourcesResponse struct {
	Target  string     `json:"target"`
	MaxSize int        `json:"maxSize"`
	Sources [][]string `json:"sources"`
}

func (s *Server) sources(rz *reasoning, a api.Args) (any, error) {
	srcs, err := core.MinimalSourcesContext(rz.ctx, s.ds, a.Target, a.Max, rz.opts)
	if err != nil {
		return nil, err
	}
	if srcs == nil {
		srcs = [][]string{}
	}
	return sourcesResponse{Target: a.Target, MaxSize: a.Max, Sources: srcs}, nil
}

// jobView is the HTTP rendering of a job status.
type jobView struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Category string `json:"category,omitempty"`
	// Constraint echoes the implication constraint source.
	Constraint string       `json:"constraint,omitempty"`
	State      string       `json:"state"`
	Attempts   int          `json:"attempts"`
	Expansions int          `json:"expansions"`
	Checks     int          `json:"checks"`
	Error      string       `json:"error,omitempty"`
	Result     *jobs.Result `json:"result,omitempty"`
	// TraceID names the distributed trace the job belongs to (persisted
	// in the job record, so it survives crash/handoff).
	TraceID string `json:"traceId,omitempty"`
}

func viewOf(st jobs.Status) jobView {
	v := jobView{
		ID:         st.ID,
		Kind:       st.Request.Kind,
		Category:   st.Request.Category,
		Constraint: st.Request.Constraint,
		State:      string(st.State),
		Attempts:   st.Attempts,
		Expansions: st.Stats.Expansions,
		Checks:     st.Stats.Checks,
		Error:      st.Error,
		Result:     st.Result,
	}
	if sc, ok := obs.ParseTraceparent(st.Request.TraceContext); ok {
		v.TraceID = sc.TraceID
	}
	return v
}

// handleJobSubmit accepts a durable reasoning job: 202 with the job view
// when newly created, 200 when an idempotency key matched an existing job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	body, err := api.ReadBody(w, r, s.maxBody)
	if err == nil {
		err = api.DecodeJSON(bytes.NewReader(body), &req)
	}
	if err != nil {
		s.refuse(w, err)
		return
	}
	// A submit with no trace context of its own (the coordinator sends
	// one; a direct client usually does not) joins this request's trace,
	// so the job's lifecycle spans — across crashes and handoffs — stay
	// reachable from the submitting request's trace ID.
	if req.TraceContext == "" {
		if sc, ok := obs.SpanFrom(r.Context()); ok {
			req.TraceContext = sc.Traceparent()
		}
	}
	st, created, err := s.jobs.Submit(req)
	if err != nil {
		// A storage failure is not the client's fault: the submit was
		// rolled back, nothing acknowledged — answer 503 so the client
		// (or a cluster coordinator) retries elsewhere or later, instead
		// of the 400 a malformed request earns. (Chaos seed 3 — submits
		// landing inside an ENOSPC window — caught the earlier 400 mapping
		// as a typed-errors invariant violation; the seed-3 entry in
		// internal/chaos's regression table pins the fix.)
		if errors.Is(err, jobs.ErrStorage) {
			api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	api.WriteJSON(w, status, viewOf(st))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	sts, err := s.jobs.Jobs()
	if err != nil {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	out := make([]jobView, len(sts))
	for i, st := range sts {
		out[i] = viewOf(st)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleJobStatus answers a job's view: 404 for an unknown ID, 503 when
// a finished job's record cannot be read back (the job exists; retry).
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Status(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrStorage):
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		api.WriteError(w, http.StatusNotFound, "%v", err)
	default:
		api.WriteJSON(w, http.StatusOK, viewOf(st))
	}
}

// handleJobCheckpoint serves the raw encoded bytes of a job's latest
// durable search checkpoint: 200 with the encoding, 404 when the job is
// unknown or has none. A cluster coordinator polls this to mirror
// checkpoints, so a job can be re-enqueued on another shard — seed
// attached — after this worker dies.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	payload, err := s.jobs.CheckpointData(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// handleJobCancel cancels a job: 200 with the final view, 404 for an
// unknown ID, 409 when the job already reached a terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrUnknownJob):
		api.WriteError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrJobTerminal):
		api.WriteError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, jobs.ErrStorage):
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		api.WriteError(w, http.StatusInternalServerError, "%v", err)
	default:
		api.WriteJSON(w, http.StatusOK, viewOf(st))
	}
}
