package cluster

import (
	"context"
	"net/http"
	"time"

	"olapdim/internal/faults"
)

// probeLoop actively probes every worker's /readyz on the configured
// interval. Probe outcomes feed the same debounced health streaks as
// passive forwarding signals, so an idle cluster still notices a dead
// worker within FailAfter probe rounds.
func (c *Coordinator) probeLoop() {
	defer c.loopWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	c.mu.Unlock()
	for _, w := range workers {
		if c.health.state(w) == stateDraining {
			continue // draining workers are out of rotation regardless
		}
		c.probe(w)
	}
}

// probe sends one /readyz and records the outcome. The probe bypasses
// the workerClient so a probe failure is attributed once, not doubled
// through the passive onAttempt signal.
func (c *Coordinator) probe(worker string) {
	if err := c.cfg.Faults.Hit(faults.SiteClusterProbe); err != nil {
		c.met.probes.With("fail").Inc()
		c.health.observe(worker, false, "injected probe fault: "+err.Error(), time.Now())
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := c.client.httpc.Do(req)
	// A probe that got any HTTP answer proves the transport works: feed
	// the breaker so a healed partition closes it within one probe round
	// even with no client traffic to prove it.
	c.client.breaker.record(worker, err == nil, time.Now())
	ok := err == nil && resp.StatusCode == http.StatusOK
	msg := ""
	if err != nil {
		msg = err.Error()
	} else {
		resp.Body.Close()
		if !ok {
			msg = resp.Status
		}
	}
	if ok {
		c.met.probes.With("ok").Inc()
	} else {
		c.met.probes.With("fail").Inc()
	}
	c.health.observe(worker, ok, msg, time.Now())
}

// pollLoop mirrors every non-terminal job's status and latest search
// checkpoint from its worker. The mirror is what makes cross-shard
// recovery possible: when a worker dies without warning, the
// coordinator re-enqueues its jobs from the last mirrored checkpoint,
// and the deterministic search resumes bit-identically elsewhere.
func (c *Coordinator) pollLoop() {
	defer c.loopWG.Done()
	t := time.NewTicker(c.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.pollJobs()
		}
	}
}

func (c *Coordinator) pollJobs() {
	for _, j := range c.jobs.liveJobs() {
		if j.Worker == "" || j.WorkerID == "" {
			continue
		}
		if !c.health.healthy(j.Worker) {
			continue // reassignment owns this job now
		}
		c.mirrorJob(j)
	}
}

// mirrorJob refreshes one job's view and checkpoint from its worker.
func (c *Coordinator) mirrorJob(j trackedJob) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	res, err := c.client.do(ctx, j.Worker, http.MethodGet, "/jobs/"+j.WorkerID, nil, nil)
	if err != nil || res.status != http.StatusOK {
		return
	}
	c.applyWorkerView(j.ID, res.body)
	if _, live := c.jobs.snapshot(j.ID); !live {
		return
	}
	ck, err := c.client.do(ctx, j.Worker, http.MethodGet, "/jobs/"+j.WorkerID+"/checkpoint", nil, nil)
	if err != nil || ck.status != http.StatusOK || len(ck.body) == 0 {
		return // no checkpoint yet — the job restarts from scratch if lost now
	}
	enc := mirrorCheckpoint(ck.body)
	c.jobs.update(j.ID, func(t *trackedJob) {
		if t.checkpoint != enc {
			t.checkpoint = enc
			c.met.mirrored.Inc()
		}
	})
}

// reassignJobs moves every non-terminal job off worker and onto the
// shards next in ring order for their keys. fromWorker selects the
// checkpoint source: a draining worker is still alive, so its freshest
// checkpoint (and a cancel) are fetched directly; a dead worker's jobs
// recover from the coordinator's mirror. Returns how many jobs moved.
func (c *Coordinator) reassignJobs(worker string, fromWorker bool) int {
	ids := c.jobs.onWorker(worker)
	moved := 0
	for _, id := range ids {
		snap, ok := c.jobs.snapshot(id)
		if !ok || snap.Worker != worker {
			continue
		}
		req := snap.req
		if fromWorker {
			// Drain: ask the live worker for its latest checkpoint, then
			// cancel its copy so only the new shard finishes the job.
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
			if ck, err := c.client.do(ctx, worker, http.MethodGet, "/jobs/"+snap.WorkerID+"/checkpoint", nil, nil); err == nil && ck.status == http.StatusOK && len(ck.body) > 0 {
				snap.checkpoint = mirrorCheckpoint(ck.body)
			}
			c.client.do(ctx, worker, http.MethodDelete, "/jobs/"+snap.WorkerID, nil, nil)
			cancel()
		}
		req.Checkpoint = snap.checkpoint
		c.jobs.update(id, func(t *trackedJob) {
			t.State = "lost"
			t.Reassigned++
			t.view = nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res := c.submitToShard(ctx, snap.Key, req, worker)
		cancel()
		placed := false
		c.jobs.update(id, func(t *trackedJob) { placed = t.accept(res) })
		if !placed {
			c.cfg.Logf("cluster: job %s lost with worker %s and no shard accepted it yet", id, worker)
			continue
		}
		moved++
		c.met.reassigned.Inc()
		withCkpt := ""
		if req.Checkpoint != "" {
			withCkpt = " from checkpoint"
		}
		c.cfg.Logf("cluster: job %s reassigned %s -> %s%s", id, worker, res.worker, withCkpt)
	}
	return moved
}
