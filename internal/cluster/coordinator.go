package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"olapdim/internal/api"
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
	// BaseBackoff seeds the between-attempt backoff and the fallback
	// wait for malformed Retry-After headers (default 50ms).
	BaseBackoff time.Duration
	// HedgeDelay is how long the owning worker gets before a straggler
	// read is hedged to the next candidate (default 200ms). HedgeDelay
	// < 0 disables hedging.
	HedgeDelay time.Duration
	// RetryBudget caps forward retries — attempts beyond each request's
	// first, hedge arms included — across the whole coordinator per
	// second (default 64; negative disables), so a dead or partitioned
	// shard cannot amplify every incoming request into a retry storm on
	// the survivors. A request denied a retry token relays the best
	// answer it already has instead of trying again.
	RetryBudget int
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
	// Log, when non-nil, receives one structured JSON "request" event
	// per HTTP request, the fields dimsatd's Config.Log request event
	// carries. Nil disables request logging.
	Log io.Writer
	// Logf receives coordinator lifecycle logs: worker health, job
	// reassignment and federation (nil discards).
	Logf func(format string, args ...any)
}

// Coordinator fronts N dimsatd workers as one sharded service; see the
// package comment for the routing and robustness model. It implements
// http.Handler.
type Coordinator struct {
	cfg     Config
	mux     *api.Mux
	reg     *obs.Registry
	met     *clusterMetrics
	client  *workerClient
	health  *healthTracker
	jobs    *jobTracker
	started time.Time
	// mintPrefix heads the idempotency keys this coordinator mints:
	// mintedKeyPrefix and a random boot ID. Job IDs restart at cj000001
	// with every boot, and a worker keeps the keys of finished jobs, so
	// a key of the ID alone would name a previous boot's job.
	mintPrefix string

	observer *obs.RequestObserver
	spans    *obs.SpanStore
	logger   *obs.Logger

	// workers and ring are fixed at New: a drain keeps the ring, and a
	// membership change is a restart with a new worker list.
	workers []string
	ring    *Ring

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
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:        cfg,
		mux:        api.NewMux(),
		reg:        obs.NewRegistry(),
		jobs:       newJobTracker(),
		started:    time.Now(),
		mintPrefix: mintedKeyPrefix + obs.NewSpanID() + ":",
		workers:    append([]string(nil), cfg.Workers...),
		ring:       NewRing(cfg.Workers...),
		stop:       make(chan struct{}),
	}
	c.spans = obs.NewSpanStore(cfg.SpanRing, "coordinator")
	c.logger = obs.NewLogger(cfg.Log)
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
	var budget *retryBudget
	if cfg.RetryBudget > 0 {
		budget = newRetryBudget(cfg.RetryBudget)
	}
	c.client = &workerClient{
		httpc:             httpc,
		spans:             c.spans,
		faults:            cfg.Faults,
		onAttempt:         c.observeAttempt,
		budget:            budget,
		onBudgetExhausted: func() { c.met.retryExhausted.Inc() },
	}

	// The table's reads: idempotent, routed by the ring key of their
	// decoded arguments, hedged when slow.
	for _, op := range api.Reads {
		c.mux.HandleFunc(op.Pattern(), c.read(op))
	}

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
	c.mux.HandleFunc("GET /healthz", obs.Healthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.Handle("GET /metrics", c.reg)
	c.mux.HandleFunc("GET /stats", c.reg.ServeStats)

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
// coordinator then writes its "request" event to Config.Log.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	out := c.observer.Serve(w, r, c.mux)
	c.logger.Request(r, out)
}

// observeAttempt is the workerClient hook: every forward attempt feeds
// the per-worker counters, and every attempt that was not cancelled
// feeds the passive health streaks. A cancelled attempt is a losing
// hedge arm or an abandoned client, which says nothing about the
// worker. A 429 means the worker is alive and shedding by contract, so
// it counts as a health success even though the request must wait.
func (c *Coordinator) observeAttempt(worker string, d time.Duration, err error, status int) {
	c.met.forwards.With(worker).Inc()
	c.met.forwardDur.Observe(d.Seconds())
	if errors.Is(err, context.Canceled) {
		return
	}
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
// have seen it recover yet). This order is the coordinator's one
// health decision: a forward dials a down worker only after every up
// candidate has failed the request.
func (c *Coordinator) routable(key string) []string {
	all := c.ring.Candidates(key, c.ring.Len())
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

// read builds the handler of one read of the table. A POST entry's body
// is read once, all of it against the cap, as its worker reads it; a
// GET's body is neither read nor forwarded. The table decodes the
// request: one the decode refuses gets the 400 its worker would answer,
// without a forward. Any other routes by the ring key of its arguments
// and is forwarded as it came.
func (c *Coordinator) read(op *api.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if op.Method == http.MethodPost {
			var err error
			if body, err = api.ReadBody(w, r, api.MaxBody); err != nil {
				api.Refuse(w, err)
				return
			}
		}
		a, err := op.Decode(r, bytes.NewReader(body))
		if err != nil {
			api.Refuse(w, err)
			return
		}
		key := op.Key(a)
		cands := c.routable(key)
		if len(cands) == 0 {
			c.met.unroutable.Inc()
			api.WriteError(w, http.StatusServiceUnavailable, "no workers available")
			return
		}
		pathQ := r.URL.Path
		if r.URL.RawQuery != "" {
			// A '#' would start a fragment when the forward is parsed:
			// escaped, the worker reads the query the client sent.
			pathQ += "?" + strings.ReplaceAll(r.URL.RawQuery, "#", "%23")
		}
		hdr := forwardHeader(r)

		// Hedge the owner against the next candidate; when both arms fail
		// (or no hedge runs), walk on from the first candidate no arm
		// tried, each arm counting as one of the read's attempts. The walk
		// counts the read's retries, a hedge arm among them.
		var res *forwardResult
		tried := 0
		if c.cfg.HedgeDelay > 0 && len(cands) > 1 {
			var hedged, hedgeWon bool
			res, hedged, hedgeWon, err = c.client.hedgedForward(r.Context(), cands[0], cands[1],
				r.Method, pathQ, hdr, body, hedgePolicy{delay: c.cfg.HedgeDelay})
			tried = 1
			if hedged {
				tried = 2
				c.met.hedges.Inc()
			}
			if hedgeWon && usable(res, err) {
				c.met.hedgeWins.Inc()
			}
		}
		switch {
		case !usable(res, err) && r.Context().Err() == nil && tried < len(cands):
			res, err = c.failover(r.Context(), cands, tried, r.Method, pathQ, hdr, body, true)
		case tried == 2:
			c.met.retries.Inc() // the hedge arm, with no walk after it
		}
		switch {
		case usable(res, err):
			relay(w, res)
		case r.Context().Err() != nil:
			api.WriteError(w, http.StatusGatewayTimeout, "request cancelled: %v", r.Context().Err())
		default:
			c.met.unroutable.Inc()
			api.WriteError(w, http.StatusServiceUnavailable, "all candidate workers failed for key %q", key)
		}
	}
}

// usable reports whether a forward produced an answer to relay: a 2xx or
// a definitive 4xx.
func usable(res *forwardResult, err error) bool {
	return err == nil && res != nil && classify(nil, res.status) != outcomeFailover
}

// handleJobSubmit places a durable job on the shard its interactive twin
// routes to, whose SatCache already holds (or will hold) the results the
// job needs, and tracks it under a coordinator-owned ID. A job is tracked
// only once a worker holds it: a worker's refusal (4xx) is relayed as it
// is, and a submit no worker answered gets a 503, both leaving nothing
// behind. A client idempotency key in the namespace of the keys the
// coordinator mints is refused (400).
func (c *Coordinator) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := api.ReadBody(w, r, api.MaxBody)
	if err != nil {
		api.Refuse(w, err)
		return
	}
	var req api.JobRequest
	if err := api.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		api.Refuse(w, err)
		return
	}
	if strings.HasPrefix(req.IdempotencyKey, mintedKeyPrefix) {
		api.WriteError(w, http.StatusBadRequest, "idempotency key %q: the %q prefix is reserved for keys the coordinator mints",
			req.IdempotencyKey, mintedKeyPrefix)
		return
	}
	if id, view, ok := c.jobs.lookup(req.IdempotencyKey); ok {
		// Coordinator-tier idempotency: the key already maps to a
		// tracked job, wherever it lives now.
		w.Header().Set("Location", "/jobs/"+id)
		api.WriteJSON(w, http.StatusOK, view)
		return
	}
	t := &trackedJob{ID: c.jobs.newID(), Key: api.Sat.Key(api.Args{Category: req.Category})}
	if req.Kind == "implies" {
		t.Key = api.Implies.Key(api.Args{Constraint: req.Constraint})
	}
	if req.IdempotencyKey == "" {
		// Mint a key so the submit becomes retryable and the job
		// movable: every re-submit of this job — failover now,
		// reassignment later — carries the same key, and a worker that
		// already accepted it dedupes instead of running it twice.
		req.IdempotencyKey = c.mintPrefix + t.ID
	}
	if req.TraceContext == "" {
		// Pin the submit's trace to the job so every lifecycle span — on
		// this shard, and on whichever shard a reassignment lands it —
		// joins the same trace. The tracked copy carries it through
		// failover and handoff resubmissions.
		if sc, ok := obs.SpanFrom(r.Context()); ok {
			req.TraceContext = sc.Traceparent()
		}
	}
	t.req = req
	res := c.submitToShard(r.Context(), t.Key, req, "")
	if !t.accept(res) {
		if res != nil && res.status >= 400 && res.status < 500 && res.status != http.StatusTooManyRequests {
			relay(w, res)
			return
		}
		c.met.unroutable.Inc()
		api.WriteError(w, http.StatusServiceUnavailable, "no worker accepted the job")
		return
	}
	status := res.status
	id, view, added := c.jobs.add(t)
	if !added {
		// A concurrent submit with the same idempotency key was tracked
		// first; the worker deduped both to one job.
		status = http.StatusOK
	}
	w.Header().Set("Location", "/jobs/"+id)
	api.WriteJSON(w, status, view)
}

// submitToShard forwards a job request to the healthy candidates for key
// (excluding skip). It returns the answer the last worker asked gave, or
// nil when none answered.
func (c *Coordinator) submitToShard(ctx context.Context, key string, req api.JobRequest, skip string) *forwardResult {
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
		return nil
	}
	body, _ := json.Marshal(req)
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	// Retrying a job submit is safe: the request carries an idempotency
	// key (minted when the client had none).
	res, err := c.failover(ctx, cands, 0, http.MethodPost, "/jobs", hdr, body, req.IdempotencyKey != "")
	if err != nil {
		return nil
	}
	return res
}

// failover walks cands in order from cands[from], the candidates before
// it having taken one attempt each, under the configured forward policy,
// and counts the request's retries and failovers.
func (c *Coordinator) failover(ctx context.Context, cands []string, from int, method, pathQ string, hdr http.Header, body []byte, idempotent bool) (*forwardResult, error) {
	res, attempts, failedOver, err := c.client.forwardWithFailover(ctx, cands, from, method, pathQ, hdr, body, forwardPolicy{
		baseBackoff: c.cfg.BaseBackoff,
		idempotent:  idempotent,
	})
	if attempts > 1 {
		c.met.retries.Add(uint64(attempts - 1))
	}
	if failedOver {
		c.met.failovers.Inc()
	}
	return res, err
}

// accept places t on the worker whose answer res is, when that worker
// accepted the job: a 2xx carrying its job view. It reports whether it
// did.
func (t *trackedJob) accept(res *forwardResult) bool {
	return res != nil && res.status < 300 && t.apply(res.worker, res.body)
}

// jobViewHead is the part of a job view the coordinator reads.
type jobViewHead struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// viewState returns the state a job view names.
func viewState(view []byte) string {
	var v jobViewHead
	json.Unmarshal(view, &v)
	return v.State
}

// apply folds a job view that worker answered into t (worker "" keeps
// the placement) and reports whether the view parsed.
func (t *trackedJob) apply(worker string, view []byte) bool {
	var v jobViewHead
	if json.Unmarshal(view, &v) != nil {
		return false
	}
	if worker != "" {
		t.Worker, t.WorkerID = worker, v.ID
	}
	t.State = v.State
	t.view = rewriteView(view, t)
	t.terminal = terminalState(v.State)
	return true
}

func (c *Coordinator) handleJobList(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.jobs.views())
}

func (c *Coordinator) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Serve a live job's state from its worker when that is reachable;
	// the mirror — refreshed by the poll loop — answers when it is not,
	// so a dead worker never makes a job's status unreadable. A finished
	// job answers its final view.
	if snap, live := c.jobs.snapshot(id); live && snap.Worker != "" && c.health.healthy(snap.Worker) {
		if res, err := c.client.do(r.Context(), snap.Worker, http.MethodGet, "/jobs/"+snap.WorkerID, nil, nil); err == nil && res.status == http.StatusOK {
			c.applyWorkerView(id, res.body)
		}
	}
	view, ok := c.jobs.view(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	api.WriteJSON(w, http.StatusOK, view)
}

func (c *Coordinator) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, live := c.jobs.snapshot(id)
	if !live {
		if view, ok := c.jobs.view(id); ok {
			api.WriteError(w, http.StatusConflict, "job %s already %s", id, viewState(view))
		} else {
			api.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		}
		return
	}
	res, err := c.client.do(r.Context(), snap.Worker, http.MethodDelete, "/jobs/"+snap.WorkerID, nil, nil)
	if err != nil {
		api.WriteError(w, http.StatusBadGateway, "cancelling on %s: %v", snap.Worker, err)
		return
	}
	if res.status == http.StatusOK {
		c.applyWorkerView(id, res.body)
		view, _ := c.jobs.view(id)
		api.WriteJSON(w, http.StatusOK, view)
		return
	}
	relay(w, res)
}

// applyWorkerView folds a worker's job view into the mirror.
func (c *Coordinator) applyWorkerView(id string, workerView []byte) {
	c.jobs.update(id, func(t *trackedJob) { t.apply("", workerView) })
}

// clusterWorkerView is one worker's row in the /cluster status answer.
type clusterWorkerView struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Since    string `json:"since"`
	LastErr  string `json:"lastError,omitempty"`
	Jobs     int    `json:"jobs"`
	Forwards int64  `json:"forwards"`
}

// clusterStatusView is the /cluster answer. A worker's Forwards is its
// olapdim_cluster_forwards_total series.
type clusterStatusView struct {
	Workers []clusterWorkerView `json:"workers"`
	Healthy int                 `json:"healthy"`
	Jobs    int                 `json:"jobs"`
}

func (c *Coordinator) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	obs.Untraced(r.Context())
	api.WriteJSON(w, http.StatusOK, c.StatusView())
}

// StatusView assembles the cluster status served at GET /cluster.
func (c *Coordinator) StatusView() clusterStatusView {
	hs := c.health.snapshot()
	view := clusterStatusView{Healthy: c.health.countHealthy(), Jobs: c.jobs.count()}
	for _, name := range c.workers {
		h := hs[name]
		view.Workers = append(view.Workers, clusterWorkerView{
			Name:     name,
			State:    h.state.String(),
			Since:    h.since.UTC().Format(time.RFC3339),
			LastErr:  h.lastErr,
			Jobs:     len(c.jobs.onWorker(name)),
			Forwards: int64(c.met.forwards.Value(name)),
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
		api.WriteError(w, http.StatusBadRequest, "missing worker parameter")
		return
	}
	if !slices.Contains(c.workers, worker) {
		api.WriteError(w, http.StatusNotFound, "unknown worker %q", worker)
		return
	}
	if _, ok := c.health.drain(worker, time.Now()); !ok {
		api.WriteError(w, http.StatusConflict, "worker %q already draining", worker)
		return
	}
	moved := c.reassignJobs(worker, true)
	api.WriteJSON(w, http.StatusOK, map[string]any{"worker": worker, "reassigned": moved})
}

// handleReadyz: the coordinator is ready while at least one worker is
// healthy — with zero the next request is guaranteed unroutable. Like
// /healthz, /cluster and the observability endpoints, it is untraced.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	obs.Untraced(r.Context())
	if c.health.countHealthy() == 0 {
		api.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
		return
	}
	w.Write([]byte("ok\n"))
}

// helpers ------------------------------------------------------------

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
	for _, h := range []string{"Content-Type", "Accept", obs.HeaderRequestID} {
		if v := r.Header.Get(h); v != "" {
			out.Set(h, v)
		}
	}
	return out
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
