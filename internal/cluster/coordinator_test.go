package cluster

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"olapdim/internal/api"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// hardUnsatSrc mirrors the jobs package's hard-instance generator: a
// layered hierarchy whose root is unsatisfiable only by a contradictory
// constraint, so the search must exhaust the whole subhierarchy space —
// long enough to kill a worker mid-job.
func hardUnsatSrc(width, layers int) string {
	var b strings.Builder
	b.WriteString("schema hard\n")
	name := func(l, i int) string { return fmt.Sprintf("L%dx%d", l, i) }
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "edge C0 -> %s\n", name(0, i))
	}
	for l := 0; l < layers-1; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				fmt.Fprintf(&b, "edge %s -> %s\n", name(l, i), name(l+1, j))
			}
		}
	}
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "edge %s -> All\n", name(layers-1, i))
	}
	fmt.Fprintf(&b, "constraint C0_%s & !C0_%s\n", name(0, 0), name(0, 0))
	return b.String()
}

// startWorker boots one dimsatd worker: a real server over schema with a
// durable job store (checkpointing every expansion), optionally with a
// fault injector armed on the search.
func startWorker(t *testing.T, schema *core.DimensionSchema, inj *faults.Injector) *httptest.Server {
	t.Helper()
	store, err := jobs.Open(jobs.Config{
		Dir:             t.TempDir(),
		Schema:          schema,
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(schema, server.Config{Jobs: store})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// startCoordinator builds and starts a coordinator over the workers with
// test-speed intervals, honoring any overrides already set in cfg.
func startCoordinator(t *testing.T, cfg Config, workers ...string) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Workers = workers
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = 2
	}
	if cfg.RecoverAfter == 0 {
		cfg.RecoverAfter = 1
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 5 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts
}

func coordGet(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && len(body) > 0 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, body, err)
		}
	}
	return resp.StatusCode
}

func coordPost(t *testing.T, base, path, body string, out any) int {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, b, err)
		}
	}
	return resp.StatusCode
}

// clusterJobView is the coordinator's client-facing job shape.
type clusterJobView struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	State      string `json:"state"`
	Worker     string `json:"worker"`
	Reassigned int    `json:"reassigned"`
	Expansions int    `json:"expansions"`
	Checks     int    `json:"checks"`
	Result     *struct {
		Satisfiable *bool `json:"satisfiable,omitempty"`
	} `json:"result,omitempty"`
}

func awaitClusterJob(t *testing.T, base, id string, timeout time.Duration) clusterJobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var v clusterJobView
	for time.Now().Before(deadline) {
		if code := coordGet(t, base, "/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch v.State {
		case "done", "failed", "cancelled":
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after %s (state %s)", id, timeout, v.State)
	return v
}

func TestCoordinatorRoutesReadsConsistently(t *testing.T) {
	w1 := startWorker(t, paper.LocationSch(), nil)
	w2 := startWorker(t, paper.LocationSch(), nil)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	owner := c.routable("sat/Store")[0]
	for i := 0; i < 5; i++ {
		var sat struct {
			Satisfiable bool `json:"satisfiable"`
		}
		if code := coordGet(t, ts.URL, "/sat?category=Store", &sat); code != http.StatusOK {
			t.Fatalf("GET /sat = %d", code)
		}
		if !sat.Satisfiable {
			t.Fatal("Store should be satisfiable in locationSch")
		}
	}
	view := c.StatusView()
	for _, w := range view.Workers {
		if w.Name == owner && w.Forwards < 5 {
			t.Errorf("owner %s saw %d forwards, want all 5", w.Name, w.Forwards)
		}
		if w.Name != owner && w.Forwards != 0 {
			t.Errorf("non-owner %s saw %d forwards, want 0 (sticky routing)", w.Name, w.Forwards)
		}
	}
	if view.Healthy != 2 || len(view.Workers) != 2 {
		t.Fatalf("cluster view = %+v, want 2/2 healthy", view)
	}
}

func TestCoordinatorFailoverToSurvivorAndHealthConvergence(t *testing.T) {
	w1 := startWorker(t, paper.LocationSch(), nil)
	w2 := startWorker(t, paper.LocationSch(), nil)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	// Kill the worker that owns the key, leaving the other running.
	owner := c.routable("sat/City")[0]
	for _, w := range []*httptest.Server{w1, w2} {
		if w.URL == owner {
			w.Close()
		}
	}

	// The very first request must fail over: connect-refused on the
	// owner, answered by the survivor.
	var sat struct {
		Satisfiable bool `json:"satisfiable"`
	}
	if code := coordGet(t, ts.URL, "/sat?category=City", &sat); code != http.StatusOK {
		t.Fatalf("GET /sat after owner death = %d, want 200 via failover", code)
	}
	if !sat.Satisfiable {
		t.Fatal("City should be satisfiable")
	}
	if got := c.met.failovers.Value(); got == 0 {
		t.Error("failovers counter not incremented")
	}

	// Probes must converge the health view to 1 healthy worker.
	deadline := time.Now().Add(5 * time.Second)
	for c.health.countHealthy() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("health never converged: %d healthy", c.health.countHealthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := coordGet(t, ts.URL, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d with one healthy worker", code)
	}

	// Routing now prefers the survivor outright: no more failover walks.
	before := c.met.failovers.Value()
	if code := coordGet(t, ts.URL, "/sat?category=City", &sat); code != http.StatusOK {
		t.Fatalf("GET /sat post-convergence = %d", code)
	}
	if got := c.met.failovers.Value(); got != before {
		t.Errorf("failovers grew %d -> %d after health converged", before, got)
	}
}

func TestCoordinatorReadyzFailsWithNoHealthyWorkers(t *testing.T) {
	w1 := startWorker(t, paper.LocationSch(), nil)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL)
	w1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.health.countHealthy() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := coordGet(t, ts.URL, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with zero healthy workers, want 503", code)
	}
	// Reads degrade to an honest 503, not a hang.
	if code := coordGet(t, ts.URL, "/sat?category=Store", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /sat with no workers = %d, want 503", code)
	}
}

// TestCoordinatorInjectedForwardFaultFailsOver drives the failover path
// through the cluster.forward injection site instead of a dead worker:
// the first attempt is refused before the dial, so even this one request
// observably fails over while both workers stay healthy.
func TestCoordinatorInjectedForwardFaultFailsOver(t *testing.T) {
	w1 := startWorker(t, paper.LocationSch(), nil)
	w2 := startWorker(t, paper.LocationSch(), nil)
	inj := faults.New(faults.Rule{Site: faults.SiteClusterForward, Kind: faults.Error, On: []int{1}})
	c, ts := startCoordinator(t, Config{HedgeDelay: -1, Faults: inj}, w1.URL, w2.URL)

	var sat struct {
		Satisfiable bool `json:"satisfiable"`
	}
	if code := coordGet(t, ts.URL, "/sat?category=Store", &sat); code != http.StatusOK {
		t.Fatalf("GET /sat = %d, want 200 despite injected forward fault", code)
	}
	if inj.Fired(faults.SiteClusterForward) != 1 {
		t.Fatalf("forward site fired %d times, want 1", inj.Fired(faults.SiteClusterForward))
	}
	if c.met.failovers.Value() != 1 {
		t.Fatalf("failovers = %d, want exactly 1", c.met.failovers.Value())
	}
	if c.health.countHealthy() != 2 {
		t.Fatalf("healthy = %d, an injected (never-dialed) fault must not mark workers down", c.health.countHealthy())
	}
}

// TestCoordinatorHedgePromotesPastDeadOwner exercises the hedged read
// path end to end: health has not noticed the dead owner yet (probes are
// effectively off), so the hedge arm is what saves the request.
func TestCoordinatorHedgePromotesPastDeadOwner(t *testing.T) {
	w1 := startWorker(t, paper.LocationSch(), nil)
	w2 := startWorker(t, paper.LocationSch(), nil)
	c, ts := startCoordinator(t, Config{
		HedgeDelay:    30 * time.Millisecond,
		ProbeInterval: time.Hour, // health stays blind: only hedging can help
		FailAfter:     1000,
	}, w1.URL, w2.URL)

	owner := c.routable("sat/Country")[0]
	for _, w := range []*httptest.Server{w1, w2} {
		if w.URL == owner {
			w.Close()
		}
	}
	var sat struct {
		Satisfiable bool `json:"satisfiable"`
	}
	start := time.Now()
	if code := coordGet(t, ts.URL, "/sat?category=Country", &sat); code != http.StatusOK {
		t.Fatalf("GET /sat = %d, want 200 via hedge", code)
	}
	if !sat.Satisfiable {
		t.Fatal("Country should be satisfiable")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("hedged request took %v, promotion should be immediate", d)
	}
	if c.met.hedges.Value() == 0 || c.met.hedgeWins.Value() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", c.met.hedges.Value(), c.met.hedgeWins.Value())
	}
}

func TestCoordinatorJobSubmitIdempotent(t *testing.T) {
	schema := parseSchema(t, hardUnsatSrc(3, 2))
	w1 := startWorker(t, schema, nil)
	w2 := startWorker(t, schema, nil)
	_, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	var first, second clusterJobView
	body := `{"kind":"sat","category":"C0","idempotencyKey":"client-key-1"}`
	code1 := coordPost(t, ts.URL, "/jobs", body, &first)
	code2 := coordPost(t, ts.URL, "/jobs", body, &second)
	if code1 != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code1)
	}
	if code2 != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", code2)
	}
	if first.ID == "" || first.ID != second.ID {
		t.Fatalf("ids %q vs %q, want one coordinator-owned identity", first.ID, second.ID)
	}
	final := awaitClusterJob(t, ts.URL, first.ID, 30*time.Second)
	if final.State != "done" || final.Result == nil || final.Result.Satisfiable == nil || *final.Result.Satisfiable {
		t.Fatalf("job = %+v, want done and unsatisfiable", final)
	}
}

// TestBodyOverLimitAnswered413 sends a JSON body one byte over 1 MiB to
// every route that reads one, straight to a dimsatd worker and through a
// coordinator. Both must answer 413 with the same message; the
// coordinator must not forward or decode the truncated first MiB.
func TestBodyOverLimitAnswered413(t *testing.T) {
	w := startWorker(t, paper.LocationSch(), nil)
	_, coord := startCoordinator(t, Config{HedgeDelay: -1}, w.URL)

	const head, tail = `{"kind":"implies","constraint":"`, `"}`
	body := head + strings.Repeat("x", api.MaxBody+1-len(head)-len(tail)) + tail
	if len(body) != 1<<20+1 {
		t.Fatalf("body is %d bytes, want 1 MiB + 1", len(body))
	}
	for _, base := range []string{w.URL, coord.URL} {
		for _, path := range []string{"/implies", "/summarizable", "/jobs"} {
			var resp struct {
				Error string `json:"error"`
			}
			code := coordPost(t, base, path, body, &resp)
			if code != http.StatusRequestEntityTooLarge || resp.Error != "request body exceeds 1048576 bytes" {
				t.Errorf("POST %s%s = %d %q, want 413 %q", base, path, code, resp.Error, "request body exceeds 1048576 bytes")
			}
		}
	}
}

// TestClusterKillWorkerJobRecovery is the acceptance test for
// cross-shard job recovery: a checkpointed job whose worker is killed
// mid-search resumes on the surviving shard from the mirrored checkpoint
// and finishes with a bit-identical verdict and exact cumulative stats.
func TestClusterKillWorkerJobRecovery(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	schema := parseSchema(t, src)
	// Measure the search length in fault-site hits on the compiled
	// engine — the same engine and the same unit the workers' injectors
	// count (the site fires more often than Stats.Expansions ticks).
	compiled, err := core.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	binj := faults.New()
	baseline, err := core.Satisfiable(schema, "C0", core.Options{Compiled: compiled, Faults: binj})
	if err != nil {
		t.Fatal(err)
	}
	totalHits := binj.Hits(faults.SiteExpand)
	if baseline.Satisfiable || baseline.Stats.Expansions < 500 || totalHits < baseline.Stats.Expansions {
		t.Fatalf("hard instance unsuitable: %+v (%d hits)", baseline.Stats, totalHits)
	}
	killAt := totalHits * 3 / 5

	// Both workers arm the same mid-search kill: whichever hosts the job
	// dies ~3/5 into the search. The survivor resumes from the mirrored
	// checkpoint near that point, so its own remaining work (~2/5 of the
	// hits) stays safely below its own trigger.
	inj1 := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{killAt}})
	inj2 := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{killAt}})
	w1 := startWorker(t, parseSchema(t, src), inj1)
	w2 := startWorker(t, parseSchema(t, src), inj2)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	var submitted clusterJobView
	if code := coordPost(t, ts.URL, "/jobs", `{"kind":"sat","category":"C0"}`, &submitted); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", code)
	}

	// Wait for the injected kill on the hosting worker: the search dies
	// at exactly killAt expansions with no state transition, like a
	// crashed process. The worker's HTTP plane stays up, so the mirror
	// keeps polling the final checkpoint.
	deadline := time.Now().Add(30 * time.Second)
	for inj1.Fired(faults.SiteExpand)+inj2.Fired(faults.SiteExpand) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("injected kill never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The dead search's checkpoint file is now static. Wait until the
	// mirror has caught up to it: a non-empty mirrored checkpoint that
	// stays unchanged across several poll intervals is the final one.
	var lastCkpt string
	stableSince := time.Time{}
	for {
		snap, ok := c.jobs.snapshot(submitted.ID)
		if !ok {
			t.Fatal("job vanished from the tracker")
		}
		if snap.checkpoint != "" && snap.checkpoint == lastCkpt {
			if stableSince.IsZero() {
				stableSince = time.Now()
			} else if time.Since(stableSince) > 20*c.cfg.PollInterval {
				break
			}
		} else {
			lastCkpt = snap.checkpoint
			stableSince = time.Time{}
		}
		if time.Now().After(deadline) {
			t.Fatal("mirror never stabilized on the dead worker's final checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	raw, err := base64.StdEncoding.DecodeString(lastCkpt)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	mirroredAt := cp.Stats.Expansions
	if mirroredAt == 0 || mirroredAt >= baseline.Stats.Expansions {
		t.Fatalf("mirrored checkpoint at %d expansions, want mid-search", mirroredAt)
	}

	// Now the real kill: the hosting worker disappears from the network.
	snap, _ := c.jobs.snapshot(submitted.ID)
	host := snap.Worker
	var survivor string
	for _, w := range []*httptest.Server{w1, w2} {
		if w.URL == host {
			w.Close()
		} else {
			survivor = w.URL
		}
	}
	t.Logf("killed %s at %d/%d mirrored expansions; survivor %s", host, mirroredAt, baseline.Stats.Expansions, survivor)

	// Probes trip the debouncer, the job is re-enqueued from the mirror
	// on the survivor, and the deterministic search finishes exactly
	// where an uninterrupted run would.
	final := awaitClusterJob(t, ts.URL, submitted.ID, 30*time.Second)
	if final.State != "done" || final.Result == nil || final.Result.Satisfiable == nil {
		t.Fatalf("recovered job = %+v, want done", final)
	}
	if *final.Result.Satisfiable != baseline.Satisfiable {
		t.Fatalf("recovered verdict %v != uninterrupted %v", *final.Result.Satisfiable, baseline.Satisfiable)
	}
	if final.Expansions != baseline.Stats.Expansions || final.Checks != baseline.Stats.Checks {
		t.Fatalf("recovered stats expansions=%d checks=%d, uninterrupted %+v (must be bit-identical)",
			final.Expansions, final.Checks, baseline.Stats)
	}
	if final.Worker != survivor {
		t.Fatalf("job finished on %s, want survivor %s", final.Worker, survivor)
	}
	if final.Reassigned < 1 {
		t.Fatalf("reassigned = %d, want >= 1", final.Reassigned)
	}
	if c.met.reassigned.Value() == 0 {
		t.Error("reassigned metric not incremented")
	}
}

// TestCoordinatorDrainHandsJobsOff covers planned resharding: draining a
// worker moves its running job — freshest checkpoint first — to the next
// ring owner, cancels the old copy, and the totals stay exact.
func TestCoordinatorDrainHandsJobsOff(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	schema := parseSchema(t, src)
	baseline, err := core.Satisfiable(schema, "C0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, parseSchema(t, src), nil)
	w2 := startWorker(t, parseSchema(t, src), nil)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, w1.URL, w2.URL)

	var submitted clusterJobView
	if code := coordPost(t, ts.URL, "/jobs", `{"kind":"sat","category":"C0"}`, &submitted); code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	// Let the job make some progress so the drain has a checkpoint to
	// hand over.
	deadline := time.Now().Add(15 * time.Second)
	var host string
	for {
		var v clusterJobView
		coordGet(t, ts.URL, "/jobs/"+submitted.ID, &v)
		if v.State == "done" {
			t.Fatal("job finished before the drain; hard instance too small")
		}
		if v.Expansions >= 50 {
			host = v.Worker
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var drained struct {
		Worker     string `json:"worker"`
		Reassigned int    `json:"reassigned"`
	}
	if code := coordPost(t, ts.URL, "/cluster/drain?worker="+host, "", &drained); code != http.StatusOK {
		t.Fatalf("drain = %d", code)
	}
	if drained.Reassigned != 1 {
		t.Fatalf("drain reassigned %d jobs, want 1", drained.Reassigned)
	}
	// A second drain of the same worker is refused.
	if code := coordPost(t, ts.URL, "/cluster/drain?worker="+host, "", nil); code != http.StatusConflict {
		t.Fatalf("second drain = %d, want 409", code)
	}

	var cs clusterStatusView
	coordGet(t, ts.URL, "/cluster", &cs)
	for _, w := range cs.Workers {
		if w.Name == host && w.State != "draining" {
			t.Errorf("drained worker state = %s, want draining", w.State)
		}
	}
	if cs.Healthy != 1 {
		t.Errorf("healthy = %d after drain, want 1", cs.Healthy)
	}

	final := awaitClusterJob(t, ts.URL, submitted.ID, 30*time.Second)
	if final.State != "done" || final.Worker == host {
		t.Fatalf("drained job = %+v, want done on the other worker", final)
	}
	if final.Result == nil || final.Result.Satisfiable == nil || *final.Result.Satisfiable {
		t.Fatalf("drained job result = %+v, want unsatisfiable", final.Result)
	}
	// Handoff used the freshest checkpoint, so cumulative stats stay
	// exactly those of an uninterrupted run.
	if final.Expansions != baseline.Stats.Expansions || final.Checks != baseline.Stats.Checks {
		t.Fatalf("drained stats expansions=%d checks=%d, uninterrupted %+v",
			final.Expansions, final.Checks, baseline.Stats)
	}
	if final.Reassigned != 1 {
		t.Fatalf("reassigned = %d, want 1", final.Reassigned)
	}
	_ = c
}

func parseSchema(t *testing.T, src string) *core.DimensionSchema {
	t.Helper()
	ds, err := core.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
