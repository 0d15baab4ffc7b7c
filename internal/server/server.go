// Package server exposes the dimension-constraint reasoner over HTTP as a
// small JSON API, so OLAP middleware (query rewriters, view advisors) can
// consult summarizability without linking Go code. One server instance
// hosts one dimension schema; all endpoints are read-only and safe for
// concurrent use.
//
// The server is built to degrade rather than wedge or die. Every
// reasoning endpoint runs under the request context bounded by the
// configured per-request timeout, so a canceled client or an adversarial
// schema cannot hold a serving goroutine: the DIMSAT search aborts within
// one EXPAND step and the handler answers 503/504. Reasoning requests
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
// Config.TraceEvery-th reasoning request records its full structured
// EXPAND/CHECK/prune sequence into a bounded ring served at
// GET /debug/traces/{id}. See docs/OBSERVABILITY.md for the catalog.
//
//	GET  /schema                         the schema in .dims syntax
//	GET  /categories                     categories with satisfiability
//	GET  /sat?category=Store             category satisfiability + witness
//	GET  /explain?category=Store         verdict provenance: touched set + minimal unsat core
//	POST /implies        {"constraint": "Store.Country", "provenance": true}
//	POST /summarizable   {"target": "Country", "from": ["City"]}
//	GET  /frozen?root=Store              frozen dimensions
//	GET  /matrix                         single-source summarizability
//	GET  /sources?target=Country&max=2   minimal source sets for a target
//	POST /jobs           {"kind": "sat", "category": "Store"}   durable async job
//	GET  /jobs                           all job statuses
//	GET  /jobs/{id}                      job status and result
//	DELETE /jobs/{id}                    cancel a job
//	GET  /stats                          cache hit rates, cumulative effort
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/traces                   retained structured-trace IDs
//	GET  /debug/traces/{id}              one request's EXPAND/CHECK trace
//	GET  /healthz                        liveness (always 200 while serving)
//	GET  /readyz                         readiness (503 while overloaded)
//
// See docs/OPERATIONS.md for the failure model and client retry contract.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

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
	// TraceEvery samples every N-th reasoning request for structured
	// search tracing (1 traces everything); 0 disables tracing. A traced
	// request bypasses the shared cache and runs serially so its
	// EXPAND/CHECK sequence is complete — keep the rate low in
	// production.
	TraceEvery int
	// TraceRing bounds how many structured traces are retained for
	// GET /debug/traces/{id}; zero means 256.
	TraceRing int
	// TraceEvents caps the events recorded per trace (the trace is
	// marked truncated past it); zero means 2048.
	TraceEvents int
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
	defaultQueueWait   = time.Second
	defaultRetryAfter  = time.Second
	defaultMaxBody     = 1 << 20
	defaultTraceRing   = 256
	defaultTraceEvents = 2048
)

// Server hosts one dimension schema.
type Server struct {
	ds    *core.DimensionSchema
	opts  core.Options
	cache *core.SatCache
	mux   *http.ServeMux

	jobs *jobs.Store

	timeout time.Duration
	started time.Time
	// fingerprint identifies the hosted schema in traces and slow-search
	// log lines.
	fingerprint string

	metrics *obs.Registry
	met     *serverMetrics
	logger  *obs.Logger
	ids     *obs.IDSource
	ring    *obs.Ring

	traceEvery     int
	traceEvents    int
	traceSeq       atomic.Int64
	slowExpansions int

	spans      *obs.SpanStore
	spanSample int
	spanSeq    atomic.Int64

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
		cache:       opts.Cache,
		mux:         http.NewServeMux(),
		timeout:     cfg.RequestTimeout,
		started:     time.Now(),
		fingerprint: fingerprint,
		metrics:     reg,
		met:         newServerMetrics(reg),
		logger:      obs.NewLogger(cfg.Log),
		ids:         obs.NewIDSource(),
		queueWait:   cfg.QueueWait,
		retryAfter:  cfg.RetryAfter,
		maxBody:     cfg.MaxBodyBytes,

		traceEvery:     cfg.TraceEvery,
		traceEvents:    cfg.TraceEvents,
		slowExpansions: cfg.SlowSearchExpansions,

		spans:      cfg.Spans,
		spanSample: cfg.SpanSample,
	}
	if s.spans == nil {
		s.spans = obs.NewSpanStore(cfg.SpanRing, "server")
	}
	if s.spanSample == 0 {
		s.spanSample = 1
	}
	if s.opts.Pool == nil {
		s.opts.Pool = poolObserver{s.met}
	}
	if s.traceEvents <= 0 {
		s.traceEvents = defaultTraceEvents
	}
	ringSize := cfg.TraceRing
	if ringSize <= 0 {
		ringSize = defaultTraceRing
	}
	s.ring = obs.NewRing(ringSize)
	if s.queueWait <= 0 {
		s.queueWait = defaultQueueWait
	}
	if s.retryAfter <= 0 {
		s.retryAfter = defaultRetryAfter
	}
	if s.maxBody == 0 {
		s.maxBody = defaultMaxBody
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
	// Reasoning endpoints run expensive DIMSAT searches and pass
	// admission control; metadata, health and observability endpoints
	// never block.
	s.mux.HandleFunc("GET /schema", s.handleSchema)
	s.mux.HandleFunc("GET /categories", s.admit(s.handleCategories))
	s.mux.HandleFunc("GET /sat", s.admit(s.handleSat))
	s.mux.HandleFunc("GET /explain", s.admit(s.handleExplain))
	s.mux.HandleFunc("POST /implies", s.admit(s.handleImplies))
	s.mux.HandleFunc("POST /summarizable", s.admit(s.handleSummarizable))
	s.mux.HandleFunc("GET /frozen", s.admit(s.handleFrozen))
	s.mux.HandleFunc("GET /matrix", s.admit(s.handleMatrix))
	s.mux.HandleFunc("GET /sources", s.admit(s.handleSources))
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.Handle("GET /metrics", reg)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /debug/spans", s.handleSpanList)
	s.mux.HandleFunc("GET /debug/spans/{traceID}", s.handleSpanTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.Jobs != nil {
		s.jobs = cfg.Jobs
		// Job workers execute through the same admission semaphore as
		// interactive requests; the handlers themselves only touch the
		// store's in-memory state and need no admission.
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
// bound — a durable job waits as long as the store lives.
func (s *Server) acquireJobSlot(ctx context.Context) (func(), error) {
	if s.sem == nil {
		s.met.inflight.Add(1)
		return func() { s.met.inflight.Add(-1) }, nil
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.met.inflight.Add(1)
	return func() {
		s.met.inflight.Add(-1)
		<-s.sem
	}, nil
}

// ServeHTTP implements http.Handler. It is the outermost containment and
// observability boundary: every request carries an X-Request-ID — a
// syntactically valid forwarded one (the cluster coordinator's) is
// adopted so coordinator and worker log lines share one key, anything
// else is replaced by a freshly minted ID — plus a W3C trace context
// (adopted from a well-formed `traceparent` header or minted here), both
// propagated via context and echoed as response headers. Every request
// is counted and timed by status class, recorded as a span when its
// trace is sampled, and logged as one JSON line; a panic escaping any
// handler is recovered here, answered as a structured 500, and counted,
// so one poisoned request can never take the process down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.received.Inc()
	id := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(id) {
		id = s.ids.Next()
	}
	w.Header().Set("X-Request-ID", id)
	ctx := obs.WithRequestID(r.Context(), id)

	parent, adopted := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !adopted {
		parent = obs.SpanContext{TraceID: obs.NewTraceID(), Sampled: s.sampleSpan()}
	}
	span, sc := obs.StartSpan(parent, "server.request", "server")
	w.Header().Set("X-Trace-ID", sc.TraceID)
	r = r.WithContext(obs.WithSpan(ctx, sc))

	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			s.met.panics.Inc()
			log.Printf("server: contained panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			writeErr(sw, http.StatusInternalServerError, "internal error")
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		class := codeClass(status)
		d := time.Since(start)
		s.met.reqTotal.With(class).Inc()
		exemplar := ""
		if sc.Sampled {
			exemplar = sc.TraceID
		}
		s.met.reqDur.With(class).ObserveWithExemplar(d.Seconds(), exemplar)
		if sc.Sampled {
			span.SetAttr("method", r.Method)
			span.SetAttr("path", r.URL.Path)
			span.SetAttr("status", strconv.Itoa(status))
			span.SetAttr("requestId", id)
			st := "ok"
			if status >= 500 {
				st = "error"
			}
			span.Finish(st)
			s.spans.Add(span)
		}
		s.logger.Log("request", map[string]any{
			"requestId":  id,
			"traceId":    sc.TraceID,
			"method":     r.Method,
			"path":       r.URL.Path,
			"status":     status,
			"durationMs": float64(d) / float64(time.Millisecond),
		})
	}()
	s.mux.ServeHTTP(sw, r)
}

// sampleSpan decides whether a trace minted here is recorded: every
// spanSample-th minted trace (1 = all); non-positive disables.
func (s *Server) sampleSpan() bool {
	if s.spanSample <= 0 {
		return false
	}
	return (s.spanSeq.Add(1)-1)%int64(s.spanSample) == 0
}

// admit gates h behind the concurrency semaphore: run immediately when a
// slot is free, otherwise wait in the bounded queue up to queueWait, and
// shed with 429 + Retry-After when the queue is full or the wait expires.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	if s.sem == nil {
		return func(w http.ResponseWriter, r *http.Request) {
			s.met.inflight.Add(1)
			defer s.met.inflight.Add(-1)
			h(w, r)
		}
	}
	return func(w http.ResponseWriter, r *http.Request) {
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
				writeErr(w, http.StatusServiceUnavailable, "request canceled while queued")
				return
			}
		}
		s.met.inflight.Add(1)
		defer func() {
			s.met.inflight.Add(-1)
			<-s.sem
		}()
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
	writeErr(w, http.StatusTooManyRequests, "server overloaded, retry after %ds", secs)
}

// requestContext derives the reasoning context for one request, applying
// the per-request timeout.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a bounded JSON request body into v, answering 413
// for oversized bodies and 400 for malformed JSON. Returns false when a
// response was already written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := r.Body
	if s.maxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.met.tooLarge.Inc()
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		} else {
			writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
		}
		return false
	}
	return true
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
		writeErr(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		writeErr(w, http.StatusGatewayTimeout, "reasoning timed out: %v", err)
	case errors.Is(err, core.ErrBudgetExceeded):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, faults.ErrInjected):
		// An injected engine fault (e.g. core.shrink) is the server's
		// failure, never the client's: structured 500, process keeps
		// serving.
		writeErr(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.Canceled):
		// The client disconnected; nothing useful can be written.
		writeErr(w, http.StatusServiceUnavailable, "request canceled")
	default:
		writeErr(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.ds.Format())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
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
	writeJSON(w, status, resp)
}

type categoryInfo struct {
	Name        string `json:"name"`
	Satisfiable bool   `json:"satisfiable"`
	Bottom      bool   `json:"bottom"`
}

func (s *Server) handleCategories(w http.ResponseWriter, r *http.Request) {
	rz := s.beginReasoning(r, "/categories")
	defer rz.finish()
	sat, err := core.CategorySatisfiabilityContext(rz.ctx, s.ds, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	bottoms := map[string]bool{}
	for _, b := range s.ds.G.Bottoms() {
		bottoms[b] = true
	}
	var out []categoryInfo
	for _, c := range s.ds.G.SortedCategories() {
		out = append(out, categoryInfo{Name: c, Satisfiable: sat[c], Bottom: bottoms[c]})
	}
	writeJSON(w, http.StatusOK, out)
}

type satResponse struct {
	Category    string `json:"category"`
	Satisfiable bool   `json:"satisfiable"`
	Witness     string `json:"witness,omitempty"`
	Expansions  int    `json:"expansions"`
	Checks      int    `json:"checks"`
}

func (s *Server) handleSat(w http.ResponseWriter, r *http.Request) {
	c := r.URL.Query().Get("category")
	if c == "" {
		writeErr(w, http.StatusBadRequest, "missing category parameter")
		return
	}
	rz := s.beginReasoning(r, "/sat")
	rz.detail = "category=" + c
	defer rz.finish()
	res, err := core.SatisfiableContext(rz.ctx, s.ds, c, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	resp := satResponse{
		Category:    c,
		Satisfiable: res.Satisfiable,
		Expansions:  res.Stats.Expansions,
		Checks:      res.Stats.Checks,
	}
	if res.Witness != nil {
		resp.Witness = res.Witness.String()
	}
	writeJSON(w, http.StatusOK, resp)
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
		sp := &obs.Span{
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
		s.spans.Add(sp)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	c := r.URL.Query().Get("category")
	if c == "" {
		writeErr(w, http.StatusBadRequest, "missing category parameter")
		return
	}
	s.met.explainRequests.Inc()
	rz := s.beginReasoning(r, "/explain")
	rz.detail = "category=" + c
	defer rz.finish()

	// The explain phase is its own parent span, so a sampled trace shows
	// server.request → server.explain → one server.explain.probe child per
	// deletion probe, each timed by the engine's ShrinkProbe record.
	record := rz.scOK && rz.sc.Sampled
	var parentSpan *obs.Span
	parentSC := rz.sc
	if record {
		parentSpan, parentSC = obs.StartSpan(rz.sc, "server.explain", "server")
	}
	opts := rz.opts
	opts.ShrinkObserver = s.probeSpanObserver(parentSC, record)

	ex, err := core.ExplainContext(rz.ctx, s.ds, c, opts)
	if parentSpan != nil {
		parentSpan.SetAttr("category", c)
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
		if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded) {
			s.met.explainExhausted.Inc()
		}
		s.writeReasoningErr(w, err)
		return
	}
	resp := explainResponse{
		Category:        c,
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
		for _, e := range ex.CoreExprs {
			resp.CoreConstraints = append(resp.CoreConstraints, e.String())
		}
		s.met.explainCoreSize.Observe(float64(len(ex.Core)))
	}
	writeJSON(w, http.StatusOK, resp)
}

type impliesRequest struct {
	Constraint string `json:"constraint"`
	// Provenance asks for verdict provenance: the touched set of the
	// deciding Theorem 2 search, and — when the implication holds, i.e.
	// the negation schema is UNSAT — a minimal unsat core over Σ ∪ {¬α}.
	// Provenance-enabled requests bypass the shared verdict cache.
	Provenance bool `json:"provenance"`
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

func (s *Server) handleImplies(w http.ResponseWriter, r *http.Request) {
	var req impliesRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	alpha, err := parser.ParseConstraint(req.Constraint)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	rz := s.beginReasoning(r, "/implies")
	rz.detail = "constraint=" + alpha.String()
	defer rz.finish()
	if req.Provenance {
		s.explainImplies(w, rz, alpha)
		return
	}
	implied, res, err := core.ImpliesContext(rz.ctx, s.ds, alpha, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	resp := impliesResponse{Constraint: alpha.String(), Implied: implied}
	if !implied && res.Witness != nil {
		resp.Counterexample = res.Witness.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// explainImplies answers a provenance-enabled POST /implies: it runs the
// Theorem 2 reduction explicitly and explains the negation schema's
// verdict, so the response carries the touched set and — when the
// implication holds — a minimal unsat core over Σ ∪ {¬α}.
func (s *Server) explainImplies(w http.ResponseWriter, rz *reasoning, alpha constraint.Expr) {
	s.met.explainRequests.Inc()
	_, root, verdict, decided, err := core.ImpliesReduction(s.ds, alpha)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	if decided {
		writeJSON(w, http.StatusOK, impliesResponse{Constraint: alpha.String(), Implied: verdict})
		return
	}
	// Derive the compiled negation schema like ImpliesContext does.
	opts := rz.opts
	dcs, err := opts.Compiled.Derive(constraint.Not{X: alpha})
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	opts.Compiled = dcs
	opts.ShrinkObserver = s.probeSpanObserver(rz.sc, rz.scOK && rz.sc.Sampled)
	ex, err := core.ExplainContext(rz.ctx, dcs.Source(), root, opts)
	if err != nil {
		if errors.Is(err, core.ErrBudgetExceeded) || errors.Is(err, context.DeadlineExceeded) {
			s.met.explainExhausted.Inc()
		}
		s.writeReasoningErr(w, err)
		return
	}
	resp := impliesResponse{Constraint: alpha.String(), Implied: !ex.Satisfiable, Provenance: ex.Provenance}
	if ex.Satisfiable && ex.Witness != nil {
		resp.Counterexample = ex.Witness.String()
	}
	if !ex.Satisfiable {
		resp.Core = ex.Core
		for _, e := range ex.CoreExprs {
			resp.CoreConstraints = append(resp.CoreConstraints, e.String())
		}
		s.met.explainCoreSize.Observe(float64(len(ex.Core)))
	}
	writeJSON(w, http.StatusOK, resp)
}

type summarizableRequest struct {
	Target string   `json:"target"`
	From   []string `json:"from"`
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

func (s *Server) handleSummarizable(w http.ResponseWriter, r *http.Request) {
	var req summarizableRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rz := s.beginReasoning(r, "/summarizable")
	rz.detail = fmt.Sprintf("target=%s from=%v", req.Target, req.From)
	defer rz.finish()
	rep, err := core.SummarizableContext(rz.ctx, s.ds, req.Target, req.From, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	resp := summarizableResponse{
		Target:       req.Target,
		From:         req.From,
		Summarizable: rep.Summarizable(),
	}
	for _, b := range rep.PerBottom {
		br := bottomResult{Bottom: b.Bottom, Constraint: b.Constraint.String(), Implied: b.Implied}
		if !b.Implied && b.Counterexample.Witness != nil {
			br.Counterexample = b.Counterexample.Witness.String()
		}
		resp.PerBottom = append(resp.PerBottom, br)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFrozen(w http.ResponseWriter, r *http.Request) {
	root := r.URL.Query().Get("root")
	if root == "" {
		writeErr(w, http.StatusBadRequest, "missing root parameter")
		return
	}
	rz := s.beginReasoning(r, "/frozen")
	rz.detail = "root=" + root
	defer rz.finish()
	fs, err := core.EnumerateFrozenContext(rz.ctx, s.ds, root, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	writeJSON(w, http.StatusOK, out)
}

// matrixResponse reports each cell as "yes", "no" or "unknown". Unknown
// cells are the partial-degradation contract: a cell whose DIMSAT search
// exhausted the per-request budget or deadline is reported as undecided
// instead of failing the whole matrix; Complete is false in that case and
// clients may retry later for a full answer.
type matrixResponse struct {
	Categories []string                     `json:"categories"`
	From       map[string]map[string]string `json:"from"`
	Complete   bool                         `json:"complete"`
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	rz := s.beginReasoning(r, "/matrix")
	defer rz.finish()
	m, err := core.SummarizabilityMatrixPartialContext(rz.ctx, s.ds, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
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
	writeJSON(w, http.StatusOK, resp)
}

// maxSourcesSize caps the max parameter of GET /sources: the level-
// synchronous enumeration tests O(N^size) candidate sets, so an
// unbounded size would let one request schedule exponential work.
const maxSourcesSize = 3

// sourcesResponse lists every minimal source set (up to MaxSize
// categories) from which Target is summarizable in all instances.
type sourcesResponse struct {
	Target  string     `json:"target"`
	MaxSize int        `json:"maxSize"`
	Sources [][]string `json:"sources"`
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("target")
	if target == "" {
		writeErr(w, http.StatusBadRequest, "missing target parameter")
		return
	}
	maxSize := 2
	if q := r.URL.Query().Get("max"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "max must be a positive integer")
			return
		}
		if n > maxSourcesSize {
			writeErr(w, http.StatusBadRequest, "max exceeds the limit of %d", maxSourcesSize)
			return
		}
		maxSize = n
	}
	rz := s.beginReasoning(r, "/sources")
	rz.detail = fmt.Sprintf("target=%s max=%d", target, maxSize)
	defer rz.finish()
	srcs, err := core.MinimalSourcesContext(rz.ctx, s.ds, target, maxSize, rz.opts)
	if err != nil {
		s.writeReasoningErr(w, err)
		return
	}
	if srcs == nil {
		srcs = [][]string{}
	}
	writeJSON(w, http.StatusOK, sourcesResponse{Target: target, MaxSize: maxSize, Sources: srcs})
}

// statsResponse surfaces the server's cumulative reasoning effort, the
// shared cache's effectiveness, and the robustness counters (contained
// panics, shed requests), for dashboards and capacity planning. Every
// figure is a view over the metrics registry (or the cache/job-store
// snapshots the registry itself scrapes), so /stats and /metrics can
// never disagree.
type statsResponse struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Requests       int64   `json:"requests"`
	Timeouts       int64   `json:"timeouts"`
	Panics         int64   `json:"panics"`
	Shed           int64   `json:"shed"`
	InFlight       int64   `json:"inFlight"`
	Queued         int64   `json:"queued"`
	CacheHits      uint64  `json:"cacheHits"`
	CacheMisses    uint64  `json:"cacheMisses"`
	CacheHitRate   float64 `json:"cacheHitRate"`
	CacheEntries   int     `json:"cacheEntries"`
	Expansions     int     `json:"expansions"`
	Checks         int     `json:"checks"`
	DeadEnds       int     `json:"deadEnds"`
	RequestTimeout string  `json:"requestTimeout,omitempty"`
	MaxConcurrent  int     `json:"maxConcurrent,omitempty"`
	// LatencySeconds summarizes the 2xx request-latency histogram as
	// interpolated quantiles (obs.Histogram.Quantile) instead of raw
	// bucket dumps; absent until the first successful request completes.
	LatencySeconds *quantileView `json:"latencySeconds,omitempty"`
	// ExpansionsPerRequest summarizes the per-request search-effort
	// histogram the same way.
	ExpansionsPerRequest *quantileView `json:"expansionsPerRequest,omitempty"`
	// Jobs carries the durable job-store counters (recovered, resumed,
	// corrupt-rejected, ...) when the server hosts a job store.
	Jobs *jobs.Counters `json:"jobs,omitempty"`
}

// quantileView is the /stats rendering of one histogram: interpolated
// percentiles over everything observed since the server started, plus —
// when the histogram carries one — the exemplar naming the trace of the
// slowest observation, so "p99 moved" links straight to a trace at
// GET /debug/spans/{traceId}.
type quantileView struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	// SlowestExemplar is the trace ID and value of the largest
	// observation recorded so far (exposition 0.0.4 has no exemplar
	// syntax, so /stats is where exemplars surface).
	SlowestExemplar *obs.Exemplar `json:"slowestExemplar,omitempty"`
}

// viewQuantiles summarizes h, nil while the histogram is empty so the
// JSON field stays absent rather than reporting zeros as measurements.
func viewQuantiles(h *obs.Histogram) *quantileView {
	if h == nil || h.Count() == 0 {
		return nil
	}
	v := &quantileView{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
	if ex, ok := h.Exemplar(); ok {
		v.SlowestExemplar = &ex
	}
	return v
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	resp := statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      int64(s.met.received.Value()),
		Timeouts:      int64(s.met.timeouts.Value()),
		Panics:        int64(s.met.panics.Value()),
		Shed:          int64(s.met.shed.Value()),
		InFlight:      s.met.inflight.Value(),
		Queued:        s.met.queued.Value(),
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		CacheHitRate:  cs.HitRate(),
		CacheEntries:  cs.Entries,
		Expansions:    cs.Work.Expansions,
		Checks:        cs.Work.Checks,
		DeadEnds:      cs.Work.DeadEnds,

		LatencySeconds:       viewQuantiles(s.met.reqDur.With("2xx")),
		ExpansionsPerRequest: viewQuantiles(s.met.searchExpansions),
	}
	if s.timeout > 0 {
		resp.RequestTimeout = s.timeout.String()
	}
	if s.sem != nil {
		resp.MaxConcurrent = cap(s.sem)
	}
	if s.jobs != nil {
		c := s.jobs.Counters()
		resp.Jobs = &c
	}
	writeJSON(w, http.StatusOK, resp)
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
	if !s.decodeBody(w, r, &req) {
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
			writeErr(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, viewOf(st))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	sts := s.jobs.Jobs()
	out := make([]jobView, len(sts))
	for i, st := range sts {
		out[i] = viewOf(st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.jobs.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, viewOf(st))
}

// handleJobCheckpoint serves the raw encoded bytes of a job's latest
// durable search checkpoint: 200 with the encoding, 404 when the job is
// unknown or has none. A cluster coordinator polls this to mirror
// checkpoints, so a job can be re-enqueued on another shard — seed
// attached — after this worker dies.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	payload, err := s.jobs.CheckpointData(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
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
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, jobs.ErrJobTerminal):
		writeErr(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, viewOf(st))
	}
}
