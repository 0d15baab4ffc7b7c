package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"olapdim"
	"olapdim/internal/loadgen"
)

// The HTTP workloads. serve-hot drives one dimsatd with the read mix on
// the seed's schema after a warm-up has filled its cache; cluster-write
// drives a coordinator in front of one worker with -jobs-dir, carrying
// the same read stream plus a fixed share of durable jobs. Both are
// closed loops of httpClients callers, each waiting for its reply.
const (
	readMix = "sat=8,implies=5,summarizable=4,sources=2"
	// streamLen is how many planned reads the clients cycle: 108 times
	// the mix's total weight, so that every operation's share is exact.
	streamLen   = 108 * 19
	httpClients = 2
	// jobEvery makes every jobEvery-th operation of a cluster-write
	// client a durable job, submitted and polled to done: the share of
	// jobs in the repo's recorded cluster mix (scripts/bench_cluster.sh,
	// BENCH_cluster.json: sat=8,implies=5,summarizable=4,sources=2,jobs=1),
	// polled at loadgen's default interval.
	jobEvery   = 20
	jobPoll    = 20 * time.Millisecond
	jobListLen = 64
	maxJobWait = 30 * time.Second
	// A traced run alternates traced and untraced time slices; within a
	// traced slice every traceEvery-th read carries a sampled traceparent
	// and has its server spans fetched. dimsatd's span ring is small
	// (2048 spans by default) and records every request, so a trace is
	// fetched right after its read, and the fetch time is left out of
	// the traced slice's read rate.
	traceSlice = 250 * time.Millisecond
	traceEvery = 16
	// serveSchema is the generator seed of the family member the HTTP
	// workloads host for every seed (the seed draws the request stream
	// and the jobs). Served members differ in read throughput by up to
	// 1.4x, more than the benchmark's bounds, so one is fixed: of 40
	// members measured, the one whose serve-hot read rate and set-up
	// time were both closest to the members' medians.
	serveSchema int64 = 1766013558721126344
	// The window's read rate and latency percentiles are medians over
	// statBucket-long buckets, so a short stall of the shared machine
	// moves one bucket, not the run's figure.
	statBucket = time.Second
)

// jobRequest is a POST /jobs body.
type jobRequest struct {
	Kind       string `json:"kind"`
	Category   string `json:"category,omitempty"`
	Constraint string `json:"constraint,omitempty"`
}

// Normalized answers: the verdict-bearing fields of each response, with
// the search-effort fields (which differ between a computing call and a
// cache hit) left out. Server bodies and in-process answers both pass
// through these types before being compared.
type satAnswer struct {
	Category    string `json:"category"`
	Satisfiable bool   `json:"satisfiable"`
	Witness     string `json:"witness,omitempty"`
}

type impliesAnswer struct {
	Constraint     string `json:"constraint"`
	Implied        bool   `json:"implied"`
	Counterexample string `json:"counterexample,omitempty"`
}

type bottomAnswer struct {
	Bottom         string `json:"bottom"`
	Constraint     string `json:"constraint"`
	Implied        bool   `json:"implied"`
	Counterexample string `json:"counterexample,omitempty"`
}

type summarizableAnswer struct {
	Target       string         `json:"target"`
	From         []string       `json:"from"`
	Summarizable bool           `json:"summarizable"`
	PerBottom    []bottomAnswer `json:"perBottom"`
}

type sourcesAnswer struct {
	Target  string     `json:"target"`
	MaxSize int        `json:"maxSize"`
	Sources [][]string `json:"sources"`
}

type jobAnswer struct {
	State  string `json:"state"`
	Result *struct {
		Satisfiable *bool  `json:"satisfiable,omitempty"`
		Implied     *bool  `json:"implied,omitempty"`
		Witness     string `json:"witness,omitempty"`
	} `json:"result"`
}

// normalize decodes a response body of the given operation into its
// answer type and renders it canonically.
func normalize(op string, body []byte) (string, error) {
	var v any
	switch op {
	case loadgen.OpSat:
		v = &satAnswer{}
	case loadgen.OpImplies:
		v = &impliesAnswer{}
	case loadgen.OpSummarizable:
		v = &summarizableAnswer{}
	case loadgen.OpSources:
		v = &sourcesAnswer{}
	case loadgen.OpJobs:
		v = &jobAnswer{}
	default:
		return "", fmt.Errorf("normalize: unknown operation %q", op)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return "", fmt.Errorf("normalize %s: %w", op, err)
	}
	out, err := json.Marshal(v)
	return string(out), err
}

func witness(r olapdim.Result) string {
	if r.Witness == nil {
		return ""
	}
	return r.Witness.String()
}

// answer computes a planned read in-process through the facade.
func answer(ctx context.Context, ds *olapdim.DimensionSchema, opts olapdim.Options, r loadgen.Request) (any, error) {
	u, err := url.Parse(r.Path)
	if err != nil {
		return nil, err
	}
	q := u.Query()
	switch r.Op {
	case loadgen.OpSat:
		c := q.Get("category")
		res, err := olapdim.SatisfiableContext(ctx, ds, c, opts)
		return satAnswer{Category: c, Satisfiable: res.Satisfiable, Witness: witness(res)}, err
	case loadgen.OpImplies:
		var in struct {
			Constraint string `json:"constraint"`
		}
		if err := json.Unmarshal([]byte(r.Body), &in); err != nil {
			return nil, err
		}
		alpha, err := olapdim.ParseConstraint(in.Constraint)
		if err != nil {
			return nil, err
		}
		implied, res, err := olapdim.ImpliesContext(ctx, ds, alpha, opts)
		a := impliesAnswer{Constraint: alpha.String(), Implied: implied}
		if !implied {
			a.Counterexample = witness(res)
		}
		return a, err
	case loadgen.OpSummarizable:
		var in struct {
			Target string   `json:"target"`
			From   []string `json:"from"`
		}
		if err := json.Unmarshal([]byte(r.Body), &in); err != nil {
			return nil, err
		}
		rep, err := olapdim.SummarizableContext(ctx, ds, in.Target, in.From, opts)
		if err != nil {
			return nil, err
		}
		a := summarizableAnswer{Target: in.Target, From: in.From, Summarizable: rep.Summarizable()}
		for _, b := range rep.PerBottom {
			ba := bottomAnswer{Bottom: b.Bottom, Constraint: b.Constraint.String(), Implied: b.Implied}
			if !b.Implied {
				ba.Counterexample = witness(b.Counterexample)
			}
			a.PerBottom = append(a.PerBottom, ba)
		}
		return a, nil
	case loadgen.OpSources:
		target := q.Get("target")
		maxSize, err := strconv.Atoi(q.Get("max"))
		if err != nil {
			return nil, err
		}
		srcs, err := olapdim.MinimalSourcesContext(ctx, ds, target, maxSize, opts)
		if srcs == nil {
			srcs = [][]string{}
		}
		return sourcesAnswer{Target: target, MaxSize: maxSize, Sources: srcs}, err
	}
	return nil, fmt.Errorf("answer: unplanned operation %q", r.Op)
}

// answerJob computes a durable job's expected final view in-process.
func answerJob(ctx context.Context, ds *olapdim.DimensionSchema, opts olapdim.Options, j jobRequest) (string, error) {
	a := jobAnswer{State: "done"}
	a.Result = &struct {
		Satisfiable *bool  `json:"satisfiable,omitempty"`
		Implied     *bool  `json:"implied,omitempty"`
		Witness     string `json:"witness,omitempty"`
	}{}
	switch j.Kind {
	case "sat":
		res, err := olapdim.SatisfiableContext(ctx, ds, j.Category, opts)
		if err != nil {
			return "", err
		}
		a.Result.Satisfiable, a.Result.Witness = &res.Satisfiable, witness(res)
	case "implies":
		alpha, err := olapdim.ParseConstraint(j.Constraint)
		if err != nil {
			return "", err
		}
		implied, res, err := olapdim.ImpliesContext(ctx, ds, alpha, opts)
		if err != nil {
			return "", err
		}
		a.Result.Implied = &implied
		if !implied {
			a.Result.Witness = witness(res)
		}
	default:
		return "", fmt.Errorf("answerJob: unknown kind %q", j.Kind)
	}
	out, err := json.Marshal(a)
	return string(out), err
}

func requestKey(r loadgen.Request) string { return r.Method + " " + r.Path + " " + r.Body }

// plan is everything one run sends and expects, derived from the seed.
type plan struct {
	spec    loadgen.Spec
	text    string
	reqs    []loadgen.Request
	want    map[string]string // requestKey -> normalized in-process answer
	jobs    []jobRequest
	jobWant []string
}

// makePlan renders the read stream of the seed over the given schema
// with the loadgen planner, draws the durable jobs from that stream, and
// answers every distinct request in-process. The warm-up replays the
// planner's stream up to the last first occurrence of a distinct request.
//
// The stream holds every operation at exactly its share of the mix. The
// planner draws operations at random by weight, and a sources read costs
// several times any other, so a seed's share of them (9 to 12 percent
// over seeds 101-120) would move the read rate, and the p90 would fall
// on either side of the boundary between the sources reads and the rest.
// The planner's draws of an operation whose share is full are skipped.
func makePlan(ctx context.Context, seed int64, schema string) (*plan, error) {
	mix, err := loadgen.ParseMix(readMix)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, w := range mix {
		total += w
	}
	if streamLen%total != 0 {
		return nil, fmt.Errorf("plan: %d planned reads do not hold the mix %s exactly", streamLen, readMix)
	}
	quota := map[string]int{}
	for op, w := range mix {
		quota[op] = streamLen / total * w
	}
	spec := loadgen.Defaults()
	spec.Seed, spec.Mix, spec.SchemaText = seed, mix, schema
	spec.Concurrency, spec.Duration = httpClients, time.Minute
	planner, err := loadgen.NewPlanner(spec)
	if err != nil {
		return nil, err
	}
	p := &plan{spec: spec, text: planner.Schema().Format(), want: map[string]string{}}
	for len(p.reqs) < streamLen {
		r := planner.Next()
		if quota[r.Op] == 0 {
			continue
		}
		quota[r.Op]--
		p.reqs = append(p.reqs, r)
	}

	ds, err := olapdim.Parse(p.text)
	if err != nil {
		return nil, err
	}
	cs, err := olapdim.Compile(ds)
	if err != nil {
		return nil, err
	}
	opts := olapdim.Options{Compiled: cs, Cache: olapdim.NewSatCache()}
	var sats, implies []loadgen.Request
	for _, r := range p.reqs {
		switch r.Op {
		case loadgen.OpSat:
			sats = append(sats, r)
		case loadgen.OpImplies:
			implies = append(implies, r)
		}
		key := requestKey(r)
		if _, done := p.want[key]; done {
			continue
		}
		p.spec.MaxRequests = r.Index + 1
		a, err := answer(ctx, ds, opts, r)
		if err != nil {
			return nil, fmt.Errorf("in-process answer to %s: %w", key, err)
		}
		body, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		if p.want[key], err = normalize(r.Op, body); err != nil {
			return nil, err
		}
	}
	if len(sats) == 0 || len(implies) == 0 {
		return nil, errors.New("plan: read stream has no sat or implies requests to draw jobs from")
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < jobListLen; i++ {
		var j jobRequest
		if i%2 == 0 {
			u, _ := url.Parse(sats[rng.Intn(len(sats))].Path)
			j = jobRequest{Kind: "sat", Category: u.Query().Get("category")}
		} else {
			var in struct {
				Constraint string `json:"constraint"`
			}
			if err := json.Unmarshal([]byte(implies[rng.Intn(len(implies))].Body), &in); err != nil {
				return nil, err
			}
			j = jobRequest{Kind: "implies", Constraint: in.Constraint}
		}
		want, err := answerJob(ctx, ds, opts, j)
		if err != nil {
			return nil, fmt.Errorf("in-process answer to job %+v: %w", j, err)
		}
		p.jobs, p.jobWant = append(p.jobs, j), append(p.jobWant, want)
	}
	return p, nil
}

// rig is the set of dimsatd processes one setup round started.
type rig struct {
	server *daemon // the dimsatd hosting the schema
	coord  *daemon // the coordinator in front of it; nil for serve-hot
	base   string  // where the clients send traffic
}

func (r *rig) daemons() []*daemon {
	if r.coord == nil {
		return []*daemon{r.server}
	}
	return []*daemon{r.coord, r.server}
}

func (r *rig) stop() {
	for _, d := range r.daemons() {
		d.stop()
	}
}

// httpWorkload runs serve-hot (cluster false) or cluster-write.
type httpWorkload struct{ cluster bool }

// boot starts the round's processes on the schema file and warms them
// up: the loadgen runner replays the start of the planned stream — the
// stream the clients cycle — up to the last first occurrence of a
// distinct read, so every distinct read is in the cache before the
// window opens; cluster-write also completes one job of each kind.
func (h httpWorkload) boot(ctx context.Context, cfg config, dir, schema string, round int, p *plan, client *http.Client) (*rig, error) {
	args := []string{schema}
	if h.cluster {
		args = []string{"-jobs-dir", filepath.Join(dir, fmt.Sprintf("jobs-%d", round)), schema}
	}
	server, err := startDaemon(ctx, cfg.dimsatd, "dimsatd", filepath.Join(dir, fmt.Sprintf("server-%d.log", round)), client, args...)
	if err != nil {
		return nil, err
	}
	r := &rig{server: server, base: server.base}
	if h.cluster {
		r.coord, err = startDaemon(ctx, cfg.dimsatd, "coordinator", filepath.Join(dir, fmt.Sprintf("coordinator-%d.log", round)), client,
			"-coordinator", "-workers", server.base)
		if err != nil {
			r.stop()
			return nil, err
		}
		r.base = r.coord.base
	}
	rep, err := (&loadgen.Runner{Spec: p.spec, Base: r.base, Client: client}).Run(ctx)
	if err == nil && (rep.Errors > 0 || rep.TransportErrors > 0 || rep.Shed > 0 || rep.Requests != int64(p.spec.MaxRequests)) {
		err = fmt.Errorf("warm-up: %d of %d reads failed, %d transport errors, %d shed", rep.Errors, rep.Requests, rep.TransportErrors, rep.Shed)
	}
	if err == nil && h.cluster {
		var tl tally
		for i := 0; i < 2; i++ {
			runJob(ctx, client, r.base, p.jobs[i], p.jobWant[i], &tl)
		}
		if tl.failed() > 0 {
			err = fmt.Errorf("warm-up: %d of 2 jobs failed", tl.failed())
		}
	}
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// clientRun is one closed-loop caller's view of the window.
type clientRun struct {
	tl         tally
	reads      int64
	readLat    []float64 // ms, successful reads
	readAt     []float64 // completion, seconds into the window
	ack, done  []float64
	slices     [2]int64         // reads started in untraced and traced slices
	fetch      [2]time.Duration // trace fetch time in untraced and traced slices
	traced     int              // reads whose spans were fetched
	spans      []span
	traceFails int
}

// drive runs one client until the deadline: it cycles its share of the
// planned reads and, on cluster-write, makes every jobEvery-th operation
// a durable job.
func (h httpWorkload) drive(ctx context.Context, cfg config, id int, p *plan, r *rig, client *http.Client, start, end time.Time) *clientRun {
	cr := &clientRun{}
	seen := map[string]bool{} // requestKey + body -> matched
	next, jobNext := id, id
	for n := 0; ctx.Err() == nil && time.Now().Before(end); n++ {
		if h.cluster && n%jobEvery == jobEvery-1 {
			k := jobNext % len(p.jobs)
			jobNext += httpClients
			if ack, done, ok := runJob(ctx, client, r.base, p.jobs[k], p.jobWant[k], &cr.tl); ok {
				cr.ack, cr.done = append(cr.ack, ack), append(cr.done, done)
			}
			continue
		}
		req := p.reqs[next%len(p.reqs)]
		next += httpClients
		slice := 0
		if cfg.trace && (time.Since(start)/traceSlice)%2 == 1 {
			slice = 1
		}
		cr.slices[slice]++
		var tp, traceID, spanID string
		if slice == 1 && cr.slices[1]%traceEvery == 0 {
			seq := uint64(id)<<40 | uint64(n) + 1
			traceID = fmt.Sprintf("%016x%016x", uint64(cfg.seed), seq)
			spanID = fmt.Sprintf("%016x", seq)
			tp = "00-" + traceID + "-" + spanID + "-01"
		}
		t0 := time.Now()
		status, body, err := do(ctx, client, r.base, req.Method, req.Path, req.Body, tp)
		t1 := time.Now()
		key := requestKey(req) + "\x00" + string(body)
		match, checked := seen[key]
		if !checked && err == nil && status == http.StatusOK {
			got, nerr := normalize(req.Op, body)
			match = nerr == nil && got == p.want[requestKey(req)]
			seen[key] = match
		}
		o := classify(status, err, match)
		cr.tl.add(o)
		cr.reads++
		if o != ok {
			continue
		}
		cr.readLat = append(cr.readLat, ms(t1.Sub(t0)))
		cr.readAt = append(cr.readAt, t1.Sub(start).Seconds())
		if traceID != "" {
			spans, err := fetchTrace(ctx, client, r, traceID)
			on, off := splitSlices(t1.Sub(start), time.Since(start), traceSlice)
			cr.fetch[0], cr.fetch[1] = cr.fetch[0]+off, cr.fetch[1]+on
			if err != nil {
				cr.traceFails++
				continue
			}
			cr.traced++
			cr.spans = append(cr.spans, span{ID: spanID, Name: "client.request", Start: t0, End: t1})
			cr.spans = append(cr.spans, spans...)
		}
	}
	return cr
}

// runJob submits one durable job, polls it every jobPoll until it is
// terminal, and checks its result. It returns the submit (ack) and
// submit-to-done latencies in milliseconds, and whether the job
// succeeded with the expected answer.
func runJob(ctx context.Context, client *http.Client, base string, j jobRequest, want string, tl *tally) (float64, float64, bool) {
	body, err := json.Marshal(j)
	if err != nil {
		tl.add(errored)
		return 0, 0, false
	}
	t0 := time.Now()
	status, resp, err := do(ctx, client, base, http.MethodPost, "/jobs", string(body), "")
	ack := time.Since(t0)
	if err != nil || status != http.StatusAccepted {
		tl.add(classify(status, err, false))
		return 0, 0, false
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	deadline := t0.Add(maxJobWait)
	for {
		if err := json.Unmarshal(resp, &view); err != nil || view.ID == "" {
			tl.add(errored)
			return 0, 0, false
		}
		if view.State == "done" || view.State == "failed" || view.State == "cancelled" {
			break
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			tl.add(errored)
			return 0, 0, false
		}
		time.Sleep(jobPoll)
		status, resp, err = do(ctx, client, base, http.MethodGet, "/jobs/"+view.ID, "", "")
		if err != nil || status != http.StatusOK {
			tl.add(classify(status, err, false))
			return 0, 0, false
		}
	}
	done := time.Since(t0)
	got, err := normalize(loadgen.OpJobs, resp)
	o := classify(http.StatusOK, nil, err == nil && got == want)
	tl.add(o)
	return ms(ack), ms(done), o == ok
}

// do issues one request, with a traceparent header when tp is set.
func do(ctx context.Context, client *http.Client, base, method, path, body, tp string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// fetchTrace pulls the spans the processes recorded for one trace: from
// the server's span store, or assembled across nodes by the coordinator.
func fetchTrace(ctx context.Context, client *http.Client, r *rig, traceID string) ([]span, error) {
	path := "/debug/spans/" + traceID
	if r.coord != nil {
		path = "/cluster/trace/" + traceID
	}
	status, body, err := do(ctx, client, r.base, http.MethodGet, path, "", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	var v struct {
		Spans []struct {
			SpanID     string    `json:"spanId"`
			ParentID   string    `json:"parentId"`
			Name       string    `json:"name"`
			Start      time.Time `json:"start"`
			DurationMS float64   `json:"durationMs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	out := make([]span, 0, len(v.Spans))
	for _, s := range v.Spans {
		end := s.Start.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))
		out = append(out, span{ID: s.SpanID, Parent: s.ParentID, Name: s.Name, Start: s.Start, End: end})
	}
	return out, nil
}

// scrapes holds one /metrics scrape per process.
type scrapes struct{ server, coord scrape }

func scrapeRig(ctx context.Context, client *http.Client, r *rig) (scrapes, error) {
	var s scrapes
	var err error
	if s.server, err = scrapeMetrics(ctx, client, r.server.base); err != nil {
		return s, err
	}
	if r.coord != nil {
		s.coord, err = scrapeMetrics(ctx, client, r.coord.base)
	}
	return s, err
}

// run executes the workload: the plan, setupRounds boots (the last one
// kept for the window), the measured window, and the metrics. A set-up
// round is timed from starting dimsatd to the end of the warm-up; the
// plan, with its in-process answers, is the benchmark's own work and is
// made once, untimed.
func (h httpWorkload) run(ctx context.Context, cfg config) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()

	text, err := familySchema(serveSchema)
	if err != nil {
		return nil, err
	}
	p, err := makePlan(ctx, cfg.seed, text)
	if err != nil {
		return nil, err
	}
	schema := filepath.Join(dir, "schema.dims")
	if err := os.WriteFile(schema, []byte(p.text), 0o644); err != nil {
		return nil, err
	}

	res := &runResult{}
	var (
		setups []float64
		r      *rig
	)
	defer func() {
		if r != nil {
			r.stop()
		}
	}()
	for round := 0; round < setupRounds; round++ {
		if r != nil {
			client.CloseIdleConnections()
			r.stop()
			r = nil
		}
		t0 := time.Now()
		if r, err = h.boot(ctx, cfg, dir, schema, round, p, client); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	warm, err := scrapeRig(ctx, client, r)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(cfg.duration)
	runs := make([]*clientRun, httpClients)
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = h.drive(ctx, cfg, c, p, r, client, start, end)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := scrapeRig(ctx, client, r)
	if err != nil {
		return nil, err
	}

	var all clientRun
	for _, cr := range runs {
		all.tl.merge(cr.tl)
		all.reads += cr.reads
		all.readLat = append(all.readLat, cr.readLat...)
		all.readAt = append(all.readAt, cr.readAt...)
		all.ack = append(all.ack, cr.ack...)
		all.done = append(all.done, cr.done...)
		for i := range all.slices {
			all.slices[i] += cr.slices[i]
			all.fetch[i] += cr.fetch[i]
		}
		all.traced += cr.traced
		all.traceFails += cr.traceFails
		all.spans = append(all.spans, cr.spans...)
	}
	res.tally = all.tl
	res.correct = all.tl.wrong == 0

	lat := sortedCopy(all.readLat)
	rss := 0.0
	for _, d := range r.daemons() {
		v, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += v
	}
	b := bucketMedians(all.readAt, all.readLat, statBucket.Seconds(), elapsed.Seconds())
	res.e2e = map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      b.rate,
		"latency_p50_ms": b.p50,
		"latency_p90_ms": b.p90,
		"peak_rss_mb":    rss,
	}
	res.printed = map[string]metric{
		"latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"failed_ratio":   {all.tl.failedRatio(), "ratio"},
	}
	res.note("schema: family member %d; %d reads in %.2fs by %d clients (closed loop); warm-up %d reads; setup rounds %.3fs",
		serveSchema, all.reads, elapsed.Seconds(), httpClients, p.spec.MaxRequests, setups)
	res.note("reads: ops_per_s, latency_p50_ms and latency_p90_ms are medians over %d buckets of %s (min bucket %d reads); whole window %.1f reads/s, p50 %.4fms, p90 %.4fms; latency_p99_ms over all %d reads (ten beyond it: %v)",
		b.buckets, statBucket, b.minCount, float64(len(lat))/elapsed.Seconds(), quantile(lat, 0.5), quantile(lat, 0.9), len(lat), supports(len(lat), 0.99))
	if h.cluster {
		ack, done := sortedCopy(all.ack), sortedCopy(all.done)
		res.printed["job_ack_p50_ms"] = metric{quantile(ack, 0.5), "ms"}
		res.printed["job_done_p50_ms"] = metric{quantile(done, 0.5), "ms"}
		res.note("jobs: %d done, polled every %s", len(done), jobPoll)
	}
	res.note("failed: %d of %d operations (%d shed, %d errors, %d wrong answers)",
		all.tl.failed(), all.tl.attempted, all.tl.shed, all.tl.errors, all.tl.wrong)

	res.layers = h.layers(warm, after, &all, elapsed)
	res.loaded = []string{"compile", "core", "cache", "pool", "server", "obs"}
	if h.cluster {
		res.loaded = append(res.loaded, "jobs", "cluster")
	}
	if cfg.trace {
		h.traceLayers(res.layers, &all, elapsed)
		res.note("traced %d reads (%d trace fetches failed), %d spans", all.traced, all.traceFails, len(all.spans))
	}
	return res, nil
}

// layers derives the per-layer metrics from the /metrics deltas over
// the window and the clients' own samples.
func (h httpWorkload) layers(before, after scrapes, all *clientRun, elapsed time.Duration) *layers {
	l := newLayers()
	w0, w1 := before.server, after.server
	reads := float64(all.reads)

	// Warm-up compiled every derived schema and filled the cache, so in
	// the window these should all read zero.
	compiles, okC := l.fromDelta("compile.compiles", w0, w1, "compiles_total", 1)
	if secs, ok := delta(w0, w1, "compile_seconds_total"); ok && okC {
		l.set("compile.compile_ms", ratio(secs*1000, compiles))
	} else {
		l.markAbsent("compile.compile_ms", "no compile_seconds_total family")
	}
	hits, okH := l.fromDelta("compile.derive_hits", w0, w1, "compile_cache_hits_total", 1)
	misses, okM := l.fromDelta("compile.derive_misses", w0, w1, "compile_cache_misses_total", 1)
	if okH && okM {
		l.set("compile.derive_hit_ratio", ratio(hits, hits+misses))
	}
	l.fromDelta("compile.derive_evictions", w0, w1, "compile_cache_evictions_total", 1)

	exp, okE := l.fromDelta("core.expansions", w0, w1, "cache_work_expansions_total", 1)
	l.fromDelta("core.checks", w0, w1, "cache_work_checks_total", 1)
	l.fromDelta("core.dead_ends", w0, w1, "cache_work_dead_ends_total", 1)
	l.fromDelta("core.explain_probes", w0, w1, "explain_shrink_probes_total", 1)
	// The read mix has no lint, matrix or explain requests, and no
	// search runs after warm-up, so these read zero by construction.
	l.set("core.lint_ms", 0)
	l.set("core.matrix_ms", 0)
	l.set("core.explain_ms", 0)
	if okE && exp == 0 {
		l.set("core.ns_per_expansion", 0)
	} else {
		l.markAbsent("core.ns_per_expansion", "searches in the window are not timed server-side")
	}

	ch, okCH := l.fromDelta("cache.hits_per_op", w0, w1, "cache_hits_total", 1/reads)
	cm, okCM := l.fromDelta("cache.misses", w0, w1, "cache_misses_total", 1)
	if okCH && okCM {
		l.set("cache.hit_ratio", ratio(ch, ch+cm))
	}
	if v, ok := before.server.family("cache_misses_total"); ok {
		l.set("cache.warmup_misses", v)
	} else {
		l.markAbsent("cache.warmup_misses", "no cache_misses_total family")
	}
	l.fromDelta("cache.coalesced", w0, w1, "cache_coalesced_total", 1)

	l.fromDelta("pool.tasks", w0, w1, "pool_tasks_total", 1)
	taskSec, okS := delta(w0, w1, "pool_task_duration_seconds_sum")
	tasks, okT := delta(w0, w1, "pool_task_duration_seconds_count")
	if okS && okT {
		l.set("pool.task_ms", ratio(taskSec*1000, tasks))
		l.set("pool.busy_ratio", taskSec/(elapsed.Seconds()*float64(runtime.NumCPU())))
	} else {
		l.markAbsent("pool.task_ms", "no pool_task_duration_seconds family")
		l.markAbsent("pool.busy_ratio", "no pool_task_duration_seconds family")
	}

	reqSec, okRS := delta(w0, w1, "http_request_duration_seconds_sum")
	reqN, okRN := delta(w0, w1, "http_request_duration_seconds_count")
	if okRS && okRN {
		serverMS := ratio(reqSec*1000, reqN)
		l.set("server.request_ms", serverMS)
		l.set("server.outside_ms", mean(all.readLat)-serverMS)
	} else {
		l.markAbsent("server.request_ms", "no http_request_duration_seconds family")
		l.markAbsent("server.outside_ms", "no http_request_duration_seconds family")
	}
	l.fromDelta("server.shed", w0, w1, "http_shed_total", 1)
	l.fromDelta("server.timeouts", w0, w1, "http_request_timeouts_total", 1)

	spans, dropped, okSp := 0.0, 0.0, true
	for _, pair := range [][2]scrape{{before.server, after.server}, {before.coord, after.coord}} {
		if pair[1] == nil {
			continue
		}
		rec, ok1 := delta(pair[0], pair[1], "spans_recorded_total")
		drop, ok2 := delta(pair[0], pair[1], "spans_dropped_total")
		okSp = okSp && ok1 && ok2
		spans, dropped = spans+rec, dropped+drop
	}
	if okSp {
		l.set("obs.spans_per_op", ratio(spans, float64(all.tl.attempted)))
		l.set("obs.spans_dropped", dropped)
	} else {
		l.markAbsent("obs.spans_per_op", "no spans_recorded_total family")
		l.markAbsent("obs.spans_dropped", "no spans_dropped_total family")
	}

	if !h.cluster {
		return l
	}
	l.fromDelta("jobs.submitted", w0, w1, "jobs_submitted_total", 1)
	done, okD := l.fromDelta("jobs.done", w0, w1, "jobs_done_total", 1)
	l.fromDelta("jobs.failed", w0, w1, "jobs_failed_total", 1)
	writes, okW := l.fromDelta("jobs.checkpoint_writes", w0, w1, "jobs_checkpoint_writes_total", 1)
	if okD && okW {
		l.set("jobs.checkpoints_per_job", ratio(writes, done))
	}
	l.set("jobs.ack_p50_ms", median(all.ack))
	l.set("jobs.done_p50_ms", median(all.done))

	c0, c1 := before.coord, after.coord
	l.fromDelta("cluster.forwards", c0, c1, "cluster_forwards_total", 1)
	fwdSec, ok1 := delta(c0, c1, "cluster_forward_duration_seconds_sum")
	fwdN, ok2 := delta(c0, c1, "cluster_forward_duration_seconds_count")
	coSec, ok3 := delta(c0, c1, "cluster_http_request_duration_seconds_sum")
	coN, ok4 := delta(c0, c1, "cluster_http_request_duration_seconds_count")
	if ok1 && ok2 && ok3 && ok4 {
		fwdMS := ratio(fwdSec*1000, fwdN)
		l.set("cluster.forward_ms", fwdMS)
		l.set("cluster.hop_ms", ratio(coSec*1000, coN)-fwdMS)
	} else {
		l.markAbsent("cluster.forward_ms", "no cluster forward or request duration family")
		l.markAbsent("cluster.hop_ms", "no cluster forward or request duration family")
	}
	l.fromDelta("cluster.retries", c0, c1, "cluster_retries_total", 1)
	l.fromDelta("cluster.failovers", c0, c1, "cluster_failovers_total", 1)
	l.fromDelta("cluster.hedges", c0, c1, "cluster_hedges_total", 1)
	l.fromDelta("cluster.checkpoints_mirrored", c0, c1, "cluster_checkpoints_mirrored_total", 1)
	return l
}

// traceLayers adds the self time per layer from the traced reads and the
// tracing overhead: the read rate of traced slices against untraced ones.
func (h httpWorkload) traceLayers(l *layers, all *clientRun, elapsed time.Duration) {
	self := selfTimes(all.spans)
	names := map[string]string{
		"client.request": "self.client_ms", "server.request": "self.server_request_ms", "server.reason": "self.server_reason_ms",
		"coordinator.request": "self.coordinator_ms", "cluster.forward": "self.forward_ms",
	}
	if all.traced == 0 {
		for _, m := range names {
			l.markAbsent(m, "no trace fetched")
		}
	} else {
		for name, m := range names {
			l.set(m, ratio(ms(self[name]), float64(all.traced)))
		}
	}
	l.set("trace.spans", float64(len(all.spans)))
	// Read rates per client-second of each kind of slice, less the time
	// the clients spent fetching traces, which is the benchmark's work.
	on, off := splitSlices(0, elapsed, traceSlice)
	clientOn := httpClients*on - all.fetch[1]
	clientOff := httpClients*off - all.fetch[0]
	if clientOn > 0 && clientOff > 0 && all.slices[0] > 0 {
		rateOn := float64(all.slices[1]) / clientOn.Seconds()
		rateOff := float64(all.slices[0]) / clientOff.Seconds()
		l.set("trace.overhead_ratio", 1-rateOn/rateOff)
	} else {
		l.markAbsent("trace.overhead_ratio", "window too short for traced and untraced slices")
	}
}
