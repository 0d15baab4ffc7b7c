package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"olapdim/internal/faults"
	"olapdim/internal/obs"
)

// Config tunes a Coordinator. Zero values get production defaults;
// tests shrink the intervals.
type Config struct {
	// Workers lists the dimsatd worker base URLs (e.g.
	// "http://127.0.0.1:8081"). The URL doubles as the worker's name on
	// the ring and in metrics labels.
	Workers []string
	// Replicas is the virtual-node count per worker (default 64).
	Replicas int
	// FailAfter / RecoverAfter are the health-debounce thresholds
	// (defaults 3 and 2): consecutive failures before a worker is taken
	// out of rotation, consecutive successes before it returns.
	FailAfter, RecoverAfter int
	// ProbeInterval is the active /readyz probe period (default 1s);
	// ProbeTimeout bounds one probe (default 2s).
	ProbeInterval, ProbeTimeout time.Duration
	// PollInterval is the job status/checkpoint mirror period
	// (default 500ms).
	PollInterval time.Duration
	// MaxAttempts bounds total forward attempts per request across all
	// candidates (default 4). MaxSheds bounds 429-wait-retry rounds on
	// one worker before the shed answer is relayed (default 2).
	MaxAttempts, MaxSheds int
	// BaseBackoff seeds the between-attempt backoff and the fallback
	// wait for malformed Retry-After headers (default 50ms).
	BaseBackoff time.Duration
	// HedgeDelay is how long the owning worker gets before a straggler
	// read is hedged to the next candidate (default 200ms). HedgeDelay
	// < 0 disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive transport-failure count that
	// trips a worker's circuit breaker open (default 5; negative
	// disables breakers). While open, forwards skip the worker without
	// dialing; after BreakerCooldown (default 2s) a single half-open
	// probe decides whether it closes again.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryBudget caps forward retries — attempts beyond each request's
	// first — across the whole coordinator per RetryBudgetWindow
	// (defaults 64 per 1s; negative disables), so a dead or partitioned
	// shard cannot amplify every incoming request into a retry storm on
	// the survivors. A request denied a retry token relays the best
	// answer it already has instead of trying again.
	RetryBudget       int
	RetryBudgetWindow time.Duration
	// SpanRing bounds the coordinator's distributed-trace span store
	// (default 2048 spans; see obs.NewSpanStore).
	SpanRing int
	// SpanSample samples coordinator-minted traces: every Nth request
	// that arrives without a traceparent starts a sampled trace
	// (default 1 = every request; negative disables minting). Adopted
	// traceparents keep their own sampled flag regardless.
	SpanSample int
	// Transport, when non-nil, replaces the default HTTP transport for
	// all worker traffic — forwards, hedges, probes and job polls. The
	// chaos harness installs a PartitionTransport here.
	Transport http.RoundTripper
	// Faults optionally arms the coordinator's injection sites
	// (cluster.forward, cluster.probe, cluster.hedge).
	Faults *faults.Injector
	// Logf receives coordinator lifecycle logs (nil discards).
	Logf func(format string, args ...any)
}

// Coordinator fronts N dimsatd workers as one sharded service; see the
// package comment for the routing and robustness model. It implements
// http.Handler.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	reg     *obs.Registry
	met     *clusterMetrics
	client  *workerClient
	health  *healthTracker
	jobs    *jobTracker
	started time.Time

	observer *obs.RequestObserver
	spans    *obs.SpanStore

	mu       sync.Mutex
	workers  []string
	ring     *Ring
	forwards map[string]int64 // per-worker attempt counts for /cluster

	stop     chan struct{}
	loopWG   sync.WaitGroup
	reassign sync.WaitGroup
}

// New builds a coordinator over cfg.Workers. Call Start to begin the
// probe and job-mirror loops, and Close to stop them.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	seen := map[string]bool{}
	for _, w := range cfg.Workers {
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: worker %q is not an absolute URL", w)
		}
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 200 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 64
	}
	if cfg.RetryBudgetWindow <= 0 {
		cfg.RetryBudgetWindow = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		jobs:     newJobTracker(),
		started:  time.Now(),
		workers:  append([]string(nil), cfg.Workers...),
		ring:     NewRing(cfg.Replicas, cfg.Workers...),
		forwards: map[string]int64{},
		stop:     make(chan struct{}),
	}
	c.spans = obs.NewSpanStore(cfg.SpanRing, "coordinator")
	c.met = newClusterMetrics(c.reg)
	c.observer = obs.NewRequestObserver("coordinator.request", c.spans, cfg.SpanSample, c.met.requests)
	c.health = newHealthTracker(cfg.FailAfter, cfg.RecoverAfter, c.onHealthChange)
	now := time.Now()
	for _, w := range cfg.Workers {
		c.health.add(w, now)
	}
	httpc := &http.Client{}
	if cfg.Transport != nil {
		httpc.Transport = cfg.Transport
	}
	var br *breaker
	if cfg.BreakerThreshold > 0 {
		br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func(worker string, to breakerState) {
			c.met.breakerTransitions.With(to.String()).Inc()
			c.cfg.Logf("cluster: breaker for %s -> %s", worker, to)
		})
	}
	var budget *retryBudget
	if cfg.RetryBudget > 0 {
		budget = newRetryBudget(cfg.RetryBudget, cfg.RetryBudgetWindow)
	}
	c.client = &workerClient{
		httpc:             httpc,
		spans:             c.spans,
		faults:            cfg.Faults,
		onAttempt:         c.observeAttempt,
		breaker:           br,
		budget:            budget,
		onBreakerSkip:     func(string) { c.met.breakerSkipped.Inc() },
		onBudgetExhausted: func() { c.met.retryExhausted.Inc() },
	}

	// Idempotent reads: routed by an op-specific key, hedged when slow.
	c.mux.HandleFunc("GET /sat", c.read(func(r *http.Request, _ []byte) string {
		return "sat/" + r.URL.Query().Get("category")
	}))
	// /explain shares /sat's ring key: both decide the same (schema,
	// category) verdict, so routing them to the same shard reuses its
	// SatCache entries and derived-subset compilations.
	c.mux.HandleFunc("GET /explain", c.read(func(r *http.Request, _ []byte) string {
		return "sat/" + r.URL.Query().Get("category")
	}))
	c.mux.HandleFunc("POST /implies", c.read(func(_ *http.Request, body []byte) string {
		return "implies/" + bodyField(body, "constraint")
	}))
	c.mux.HandleFunc("POST /summarizable", c.read(func(_ *http.Request, body []byte) string {
		return "summarizable/" + bodyField(body, "target")
	}))
	c.mux.HandleFunc("GET /sources", c.read(func(r *http.Request, _ []byte) string {
		return "sources/" + r.URL.Query().Get("target")
	}))
	c.mux.HandleFunc("GET /frozen", c.read(func(r *http.Request, _ []byte) string {
		return "frozen/" + r.URL.Query().Get("root")
	}))
	c.mux.HandleFunc("GET /categories", c.read(func(*http.Request, []byte) string { return "categories" }))
	c.mux.HandleFunc("GET /matrix", c.read(func(*http.Request, []byte) string { return "matrix" }))
	c.mux.HandleFunc("GET /schema", c.read(func(*http.Request, []byte) string { return "schema" }))

	// Durable jobs: coordinator-owned identity, cross-shard recovery.
	c.mux.HandleFunc("POST /jobs", c.handleJobSubmit)
	c.mux.HandleFunc("GET /jobs", c.handleJobList)
	c.mux.HandleFunc("GET /jobs/{id}", c.handleJobStatus)
	c.mux.HandleFunc("DELETE /jobs/{id}", c.handleJobCancel)

	// Cluster plane.
	c.mux.HandleFunc("GET /cluster", c.handleClusterStatus)
	c.mux.HandleFunc("GET /cluster/trace/{traceID}", c.handleClusterTrace)
	c.mux.HandleFunc("GET /cluster/metrics", c.handleClusterMetrics)
	c.mux.HandleFunc("POST /cluster/drain", c.handleDrain)
	c.mux.Handle("GET /debug/spans", c.spans)
	c.mux.Handle("GET /debug/spans/{traceID}", c.spans)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.Handle("GET /metrics", c.reg)

	c.registerCollectors(c.reg)
	return c, nil
}

// Registry returns the coordinator's metrics registry, for mounting
// scrapes elsewhere and for cmd/metricslint.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Start launches the health-probe and job-mirror loops.
func (c *Coordinator) Start() {
	c.loopWG.Add(2)
	go c.probeLoop()
	go c.pollLoop()
}

// Close stops the background loops and waits for in-flight
// reassignments to settle.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.loopWG.Wait()
	c.reassign.Wait()
}

// ServeHTTP implements http.Handler: obs.RequestObserver adopts or
// mints the request's X-Request-ID (written back into r.Header, which
// forwardHeader relays, so client, coordinator and worker log lines
// share one ID) and trace, opens the coordinator.request span every
// forward and job span parents into, and counts the request; the
// coordinator then logs one line per request.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	out := c.observer.Serve(w, r, c.mux)
	c.cfg.Logf("cluster: %s %s status=%d requestId=%s traceId=%s", r.Method, r.URL.Path, out.Status, out.ID, out.TraceID)
}

// observeAttempt is the workerClient hook: every forward attempt feeds
// the per-worker counters and the passive health streaks. A 429 means
// the worker is alive and shedding by contract, so it counts as a
// health success even though the request must wait.
func (c *Coordinator) observeAttempt(worker string, d time.Duration, err error, status int) {
	c.met.forwards.With(worker).Inc()
	c.met.forwardDur.Observe(d.Seconds())
	c.mu.Lock()
	c.forwards[worker]++
	c.mu.Unlock()
	ok := err == nil && status < 500
	msg := ""
	if err != nil {
		msg = err.Error()
	} else if !ok {
		msg = fmt.Sprintf("HTTP %d", status)
	}
	c.health.observe(worker, ok, msg, time.Now())
}

// onHealthChange reacts to debounced transitions: count them, and when
// a worker goes down hand its jobs to the shards that now own them.
func (c *Coordinator) onHealthChange(worker string, from, to healthState) {
	c.met.transitions.With(to.String()).Inc()
	c.cfg.Logf("cluster: worker %s %s -> %s", worker, from, to)
	if to == stateDown {
		c.reassign.Add(1)
		go func() {
			defer c.reassign.Done()
			c.reassignJobs(worker, false)
		}()
	}
}

// routable returns the failover candidate order for key: ring order
// with unhealthy and draining workers moved to the back rather than
// dropped — if every worker looks down, trying the "down" owner is
// still better than refusing outright (the debouncer may simply not
// have seen it recover yet).
func (c *Coordinator) routable(key string) []string {
	c.mu.Lock()
	ring := c.ring
	c.mu.Unlock()
	all := ring.Candidates(key, ring.Len())
	var up, rest []string
	for _, w := range all {
		if c.health.healthy(w) {
			up = append(up, w)
		} else {
			rest = append(rest, w)
		}
	}
	return append(up, rest...)
}

// read builds the handler for an idempotent read endpoint. The body is
// read once, and keyFn derives the routing key from the request and
// those bytes, which are then forwarded as they are.
func (c *Coordinator) read(keyFn func(r *http.Request, body []byte) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		key := keyFn(r, body)
		cands := c.routable(key)
		if len(cands) == 0 {
			c.met.unroutable.Inc()
			writeErr(w, http.StatusServiceUnavailable, "no workers available")
			return
		}
		pathQ := r.URL.Path
		if r.URL.RawQuery != "" {
			pathQ += "?" + r.URL.RawQuery
		}
		hdr := forwardHeader(r)

		// Fast path: hedge the owner against the next candidate. If both
		// arms fail, fall back to the bounded failover walk below.
		if c.cfg.HedgeDelay > 0 && len(cands) > 1 {
			hedge := cands[1]
			res, hedged, hedgeWon, herr := c.client.hedgedForward(r.Context(), cands[0], hedge,
				r.Method, pathQ, hdr, body, hedgePolicy{delay: c.cfg.HedgeDelay})
			if hedged {
				c.met.hedges.Inc()
			}
			if herr == nil && res != nil && classify(nil, res.status) != outcomeFailover {
				if hedgeWon {
					c.met.hedgeWins.Inc()
				}
				relay(w, res)
				return
			}
			if r.Context().Err() != nil {
				writeErr(w, http.StatusGatewayTimeout, "request cancelled: %v", r.Context().Err())
				return
			}
		}

		res, attempts, failedOver, ferr := c.client.forwardWithFailover(r.Context(), cands,
			r.Method, pathQ, hdr, body, forwardPolicy{
				maxAttempts: c.cfg.MaxAttempts,
				maxSheds:    c.cfg.MaxSheds,
				baseBackoff: c.cfg.BaseBackoff,
				idempotent:  true,
			})
		if attempts > 1 {
			c.met.retries.Add(uint64(attempts - 1))
		}
		if failedOver {
			c.met.failovers.Inc()
		}
		switch {
		case ferr == nil && res != nil && classify(nil, res.status) != outcomeFailover:
			relay(w, res)
		case r.Context().Err() != nil:
			writeErr(w, http.StatusGatewayTimeout, "request cancelled: %v", r.Context().Err())
		default:
			c.met.unroutable.Inc()
			writeErr(w, http.StatusServiceUnavailable, "all candidate workers failed for key %q", key)
		}
	}
}

// jobKey derives the routing key for a job request — the same key its
// interactive twin would use, so the job lands on the shard whose
// SatCache already holds (or will hold) the relevant results.
func jobKey(req jobRequest) string {
	if req.Kind == "implies" {
		return "implies/" + req.Constraint
	}
	return "sat/" + req.Category
}

func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req jobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	key := jobKey(req)
	j, created := c.jobs.create(key, req)
	if !created {
		// Coordinator-tier idempotency: the key already maps to a
		// tracked job, wherever it lives now.
		snap, _ := c.jobs.snapshot(j.ID)
		w.Header().Set("Location", "/jobs/"+snap.ID)
		writeJSON(w, http.StatusOK, snap.clientView())
		return
	}
	if req.IdempotencyKey == "" {
		// Mint a key so the submit becomes retryable and the job
		// movable: every re-submit of this job — failover now,
		// reassignment later — carries the same key, and a worker that
		// already accepted it dedupes instead of running it twice.
		req.IdempotencyKey = "coord:" + j.ID
		c.jobs.update(j.ID, func(t *trackedJob) { t.req.IdempotencyKey = req.IdempotencyKey })
	}
	if req.TraceContext == "" {
		// Pin the submit's trace to the job so every lifecycle span — on
		// this shard, and on whichever shard a reassignment lands it —
		// joins the same trace. The tracked copy carries it through
		// failover and handoff resubmissions.
		if sc, ok := obs.SpanFrom(r.Context()); ok {
			req.TraceContext = sc.Traceparent()
			c.jobs.update(j.ID, func(t *trackedJob) { t.req.TraceContext = req.TraceContext })
		}
	}
	res, status := c.submitToShard(r.Context(), j.ID, key, req, "")
	if res == nil {
		c.met.unroutable.Inc()
		writeErr(w, http.StatusServiceUnavailable, "no worker accepted the job")
		return
	}
	snap, _ := c.jobs.snapshot(j.ID)
	w.Header().Set("Location", "/jobs/"+snap.ID)
	writeRaw(w, status, snap.view)
}

// submitToShard forwards a job request to the healthy candidates for
// key (excluding skip) and records the placement on success. It returns
// the accepted view and status, or nil if every candidate refused.
func (c *Coordinator) submitToShard(ctx context.Context, id, key string, req jobRequest, skip string) (*forwardResult, int) {
	cands := c.routable(key)
	if skip != "" {
		filtered := cands[:0:0]
		for _, w := range cands {
			if w != skip {
				filtered = append(filtered, w)
			}
		}
		cands = filtered
	}
	if len(cands) == 0 {
		return nil, 0
	}
	body, _ := json.Marshal(req)
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	res, attempts, failedOver, err := c.client.forwardWithFailover(ctx, cands, http.MethodPost, "/jobs", hdr, body, forwardPolicy{
		maxAttempts: c.cfg.MaxAttempts,
		maxSheds:    c.cfg.MaxSheds,
		baseBackoff: c.cfg.BaseBackoff,
		// Retrying a job submit is safe: the request carries an
		// idempotency key (minted above when the client had none).
		idempotent: req.IdempotencyKey != "",
	})
	if attempts > 1 {
		c.met.retries.Add(uint64(attempts - 1))
	}
	if failedOver {
		c.met.failovers.Inc()
	}
	if err != nil || res == nil || res.status >= 400 {
		return nil, 0
	}
	var view map[string]any
	if jerr := json.Unmarshal(res.body, &view); jerr != nil {
		return nil, 0
	}
	workerID, _ := view["id"].(string)
	state, _ := view["state"].(string)
	c.jobs.update(id, func(t *trackedJob) {
		t.Worker = res.worker
		t.WorkerID = workerID
		t.State = state
		t.view = rewriteView(res.body, t)
		t.terminal = terminalState(state)
	})
	return res, res.status
}

func (c *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := c.jobs.list()
	out := make([]json.RawMessage, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.clientView())
	}
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := c.jobs.snapshot(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	// Serve live state when the job's worker is reachable; the mirror —
	// refreshed by the poll loop — answers when it is not, so a dead
	// worker never makes a job's status unreadable.
	if !snap.terminal && snap.Worker != "" && c.health.healthy(snap.Worker) {
		if res, err := c.client.do(r.Context(), snap.Worker, http.MethodGet, "/jobs/"+snap.WorkerID, nil, nil); err == nil && res.status == http.StatusOK {
			c.applyWorkerView(id, res.body)
			snap, _ = c.jobs.snapshot(id)
		}
	}
	writeRaw(w, http.StatusOK, snap.clientView())
}

func (c *Coordinator) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := c.jobs.snapshot(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if snap.terminal {
		writeErr(w, http.StatusConflict, "job %s already %s", id, snap.State)
		return
	}
	res, err := c.client.do(r.Context(), snap.Worker, http.MethodDelete, "/jobs/"+snap.WorkerID, nil, nil)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "cancelling on %s: %v", snap.Worker, err)
		return
	}
	if res.status == http.StatusOK {
		c.applyWorkerView(id, res.body)
		snap, _ = c.jobs.snapshot(id)
		writeRaw(w, http.StatusOK, snap.clientView())
		return
	}
	relay(w, res)
}

// applyWorkerView folds a worker's job view into the mirror.
func (c *Coordinator) applyWorkerView(id string, workerView []byte) {
	var v struct {
		State string `json:"state"`
	}
	if json.Unmarshal(workerView, &v) != nil {
		return
	}
	c.jobs.update(id, func(t *trackedJob) {
		t.State = v.State
		t.view = rewriteView(workerView, t)
		t.terminal = terminalState(v.State)
	})
}

// clusterWorkerView is one worker's row in the /cluster status answer.
type clusterWorkerView struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Breaker  string `json:"breaker"`
	Since    string `json:"since"`
	LastErr  string `json:"lastError,omitempty"`
	Jobs     int    `json:"jobs"`
	Forwards int64  `json:"forwards"`
}

// clusterStatusView is the /cluster answer; the load generator reads
// Forwards deltas per worker to report shard balance in BENCH records.
type clusterStatusView struct {
	Workers []clusterWorkerView `json:"workers"`
	Healthy int                 `json:"healthy"`
	Jobs    int                 `json:"jobs"`
}

func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.StatusView())
}

// StatusView assembles the cluster status served at GET /cluster.
func (c *Coordinator) StatusView() clusterStatusView {
	hs := c.health.snapshot()
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	fw := make(map[string]int64, len(c.forwards))
	for k, v := range c.forwards {
		fw[k] = v
	}
	c.mu.Unlock()
	view := clusterStatusView{Healthy: c.health.countHealthy(), Jobs: c.jobs.count()}
	for _, name := range workers {
		h := hs[name]
		view.Workers = append(view.Workers, clusterWorkerView{
			Name:     name,
			State:    h.state.String(),
			Breaker:  c.client.breaker.state(name).String(),
			Since:    h.since.UTC().Format(time.RFC3339),
			LastErr:  h.lastErr,
			Jobs:     len(c.jobs.onWorker(name)),
			Forwards: fw[name],
		})
	}
	return view
}

// handleDrain removes a worker from rotation and hands its jobs off:
// POST /cluster/drain?worker=<base-url>. The worker keeps serving
// whatever it already has, but receives no new traffic and its
// non-terminal jobs move — checkpoint first — to the shards next in
// ring order.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeErr(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	known := false
	c.mu.Lock()
	for _, x := range c.workers {
		if x == worker {
			known = true
		}
	}
	c.mu.Unlock()
	if !known {
		writeErr(w, http.StatusNotFound, "unknown worker %q", worker)
		return
	}
	if _, ok := c.health.drain(worker, time.Now()); !ok {
		writeErr(w, http.StatusConflict, "worker %q already draining", worker)
		return
	}
	moved := c.reassignJobs(worker, true)
	writeJSON(w, http.StatusOK, map[string]any{"worker": worker, "reassigned": moved})
}

// handleReadyz: the coordinator is ready while at least one worker is
// healthy — with zero the next request is guaranteed unroutable.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if c.health.countHealthy() == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	w.Write([]byte("ok\n"))
}

// helpers ------------------------------------------------------------

// maxBodyBytes bounds every request body the coordinator reads: 1 MiB,
// dimsatd's default -max-body.
const maxBodyBytes = 1 << 20

// readBody reads r's body, at most maxBodyBytes of it. A longer body is
// answered 413 with dimsatd's message and a failed read 400; false means
// an answer was written.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "reading body: %v", err)
	default:
		return body, true
	}
	return nil, false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	writeRaw(w, status, b)
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.Write([]byte("\n"))
	}
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	msg, _ := json.Marshal(fmt.Sprintf(format, args...))
	fmt.Fprintf(w, "{\"error\":%s}\n", msg)
}

// relay copies a worker's materialized response to the client,
// preserving the status and the headers that matter to the contract
// (Content-Type, Retry-After, Location).
func relay(w http.ResponseWriter, res *forwardResult) {
	for _, h := range []string{"Content-Type", "Retry-After", "Location"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// forwardHeader picks the request headers worth forwarding to workers.
func forwardHeader(r *http.Request) http.Header {
	out := http.Header{}
	for _, h := range []string{"Content-Type", "Accept", "X-Request-ID"} {
		if v := r.Header.Get(h); v != "" {
			out.Set(h, v)
		}
	}
	return out
}

// bodyField reads one string field out of a JSON request body, "" when
// the body holds none.
func bodyField(body []byte, field string) string {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return ""
	}
	s, _ := m[field].(string)
	return s
}

// rewriteView replaces the worker-local job ID in a worker's job view
// with the coordinator's client-facing ID and annotates placement, so
// clients see one stable identity across reassignments.
func rewriteView(workerView []byte, t *trackedJob) []byte {
	var m map[string]any
	if json.Unmarshal(workerView, &m) != nil {
		return workerView
	}
	m["id"] = t.ID
	m["worker"] = t.Worker
	if t.Reassigned > 0 {
		m["reassigned"] = t.Reassigned
	}
	b, err := json.Marshal(m)
	if err != nil {
		return workerView
	}
	return b
}

// clientView renders the job for clients: the rewritten worker view
// when one exists, else a minimal synthesized view (pre-placement or
// lost-worker states).
func (t trackedJob) clientView() json.RawMessage {
	if len(t.view) > 0 {
		return json.RawMessage(t.view)
	}
	b, _ := json.Marshal(map[string]any{
		"id":     t.ID,
		"kind":   t.req.Kind,
		"state":  t.State,
		"worker": t.Worker,
	})
	return b
}

func terminalState(state string) bool {
	switch state {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

// mirrorCheckpoint encodes raw checkpoint bytes for the wire.
func mirrorCheckpoint(raw []byte) string {
	return base64.StdEncoding.EncodeToString(raw)
}
