package chaos

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/jobs"
)

// InvariantResult is one oracle's verdict on a chaos run.
type InvariantResult struct {
	Name   string
	OK     bool
	Detail string
}

func (r InvariantResult) String() string {
	verdict := "OK  "
	if !r.OK {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("%s %s", verdict, r.Name)
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// allowedErrStatus is the documented client-visible error vocabulary
// under faults: 429 shed (with Retry-After), 500 contained internal
// error, 502/503/504 from the unroutable/timeout paths. Anything else —
// a 400 for a well-formed request, a raw panic trace, a malformed body —
// is a robustness bug.
var allowedErrStatus = map[int]bool{
	http.StatusTooManyRequests:     true,
	http.StatusInternalServerError: true,
	http.StatusBadGateway:          true,
	http.StatusServiceUnavailable:  true,
	http.StatusGatewayTimeout:      true,
}

// checkTypedErrors is the typed-error oracle: every answered request
// must carry a parseable JSON body, and every error status must be in
// the documented vocabulary with its contract headers. Transport errors
// are exempt — a crashed or partitioned node refusing connections is
// exactly what the client is told to expect.
func checkTypedErrors(samples []sample) InvariantResult {
	var violations []string
	add := func(format string, args ...any) {
		if len(violations) < 5 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	for _, s := range samples {
		if s.transportErr != "" || s.status == 0 {
			continue
		}
		if s.status < 400 {
			if !json.Valid(s.respBody) {
				add("#%d %s %s: %d with malformed body %.60q", s.idx, s.method, s.path, s.status, s.respBody)
			}
			continue
		}
		if !allowedErrStatus[s.status] {
			add("#%d %s %s: undocumented error status %d (%.80q)", s.idx, s.method, s.path, s.status, s.respBody)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(s.respBody, &e) != nil || e.Error == "" {
			add("#%d %s %s: %d without a typed error body (%.80q)", s.idx, s.method, s.path, s.status, s.respBody)
			continue
		}
		if s.status == http.StatusTooManyRequests && s.retryAfter == "" {
			add("#%d %s %s: 429 without Retry-After", s.idx, s.method, s.path)
		}
	}
	return InvariantResult{
		Name:   "typed-errors",
		OK:     len(violations) == 0,
		Detail: strings.Join(violations, "; "),
	}
}

// satBaseline is the uninterrupted truth for one category: the verdict
// and the exact search effort DIMSAT's deterministic EXPAND order
// guarantees for any run — fresh, resumed or restarted — over the same
// schema.
type satBaseline struct {
	satisfiable bool
	expansions  int
	checks      int
}

// satBaselines computes the oracle truth by running every category's
// job on a pristine store: no faults, no interruptions.
func satBaselines(schema *core.DimensionSchema, cats []string) (map[string]satBaseline, error) {
	out := map[string]satBaseline{}
	if len(cats) == 0 {
		return out, nil
	}
	dir, err := os.MkdirTemp("", "chaos-oracle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := jobs.Open(jobs.Config{Dir: dir, Schema: schema})
	if err != nil {
		return nil, fmt.Errorf("chaos: oracle store: %w", err)
	}
	defer store.Close()
	store.Start()
	for _, cat := range cats {
		st, _, err := store.Submit(jobs.Request{Kind: jobs.KindSat, Category: cat})
		if err != nil {
			return nil, fmt.Errorf("chaos: oracle submit %s: %w", cat, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			cur, err := store.Status(st.ID)
			if err != nil {
				return nil, err
			}
			if cur.State.Terminal() {
				if cur.State != jobs.StateDone || cur.Result == nil || cur.Result.Satisfiable == nil {
					return nil, fmt.Errorf("chaos: oracle job for %s ended %s: %s", cat, cur.State, cur.Error)
				}
				out[cat] = satBaseline{
					satisfiable: *cur.Result.Satisfiable,
					expansions:  cur.Stats.Expansions,
					checks:      cur.Stats.Checks,
				}
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("chaos: oracle job for %s never finished", cat)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return out, nil
}

// jobPollView is the job-status shape both the single server and the
// coordinator answer on GET /jobs/{id}.
type jobPollView struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Expansions int    `json:"expansions"`
	Checks     int    `json:"checks"`
	Error      string `json:"error"`
	Result     *struct {
		Satisfiable *bool `json:"satisfiable"`
	} `json:"result"`
}

// checkJobsDurable is the durability oracle: every acknowledged job must
// still exist, must reach a terminal state within bound, and must not
// lie — done means the oracle verdict with the oracle's exact stats
// (deterministic search makes resumed and restarted runs bit-identical),
// failed means a typed error. Under active disk faults failing is
// honest; disappearing or answering wrong never is.
func checkJobsDurable(client *http.Client, base string, acked []ackedJob, truth map[string]satBaseline, bound time.Duration) InvariantResult {
	var violations []string
	add := func(format string, args ...any) {
		if len(violations) < 5 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	deadline := time.Now().Add(bound)
	for _, job := range acked {
		var view jobPollView
		for {
			resp, err := client.Get(base + "/jobs/" + job.ID)
			if err != nil {
				if time.Now().After(deadline) {
					add("job %s: polling: %v", job.ID, err)
					break
				}
				time.Sleep(20 * time.Millisecond)
				continue
			}
			code := resp.StatusCode
			derr := json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if code == http.StatusNotFound {
				add("job %s (%s): acknowledged then LOST (404)", job.ID, job.Category)
				break
			}
			if code == http.StatusOK && derr == nil && terminal(view.State) {
				checkTerminalJob(job, view, truth, add)
				break
			}
			if time.Now().After(deadline) {
				add("job %s (%s): not terminal after %s (state %q, status %d)", job.ID, job.Category, bound, view.State, code)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return InvariantResult{
		Name:   "jobs-durable",
		OK:     len(violations) == 0,
		Detail: strings.Join(violations, "; "),
	}
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

func checkTerminalJob(job ackedJob, view jobPollView, truth map[string]satBaseline, add func(string, ...any)) {
	switch view.State {
	case "done":
		want, ok := truth[job.Category]
		if !ok {
			add("job %s: no oracle baseline for category %q", job.ID, job.Category)
			return
		}
		if view.Result == nil || view.Result.Satisfiable == nil {
			add("job %s (%s): done without a result", job.ID, job.Category)
			return
		}
		if *view.Result.Satisfiable != want.satisfiable {
			add("job %s (%s): verdict %v, oracle says %v", job.ID, job.Category, *view.Result.Satisfiable, want.satisfiable)
			return
		}
		if view.Expansions != want.expansions || view.Checks != want.checks {
			add("job %s (%s): stats %d/%d, oracle run had %d/%d — search diverged",
				job.ID, job.Category, view.Expansions, view.Checks, want.expansions, want.checks)
		}
	case "failed":
		if view.Error == "" {
			add("job %s (%s): failed with no error", job.ID, job.Category)
		}
	case "cancelled":
		add("job %s (%s): cancelled but nothing cancels jobs in this harness", job.ID, job.Category)
	}
}

// checkConvergence is the heal oracle: after every fault is lifted the
// system must return to full health within bound — a probe job submitted
// post-heal completes, and the topology reports converged (all workers
// healthy in cluster mode, /readyz green in single mode). The probe job
// doubles as the write that proves the disk healed.
func checkConvergence(client *http.Client, topo topology, probeCategory string, bound time.Duration) InvariantResult {
	deadline := time.Now().Add(bound)
	fail := func(format string, args ...any) InvariantResult {
		return InvariantResult{Name: "reconverge", OK: false, Detail: fmt.Sprintf(format, args...)}
	}

	// Probe job: submit through the healed front door, await done.
	body := fmt.Sprintf(`{"kind":"sat","category":%q}`, probeCategory)
	var probeID string
	for {
		resp, err := client.Post(topo.base()+"/jobs", "application/json", strings.NewReader(body))
		if err == nil {
			var v jobPollView
			derr := json.NewDecoder(resp.Body).Decode(&v)
			code := resp.StatusCode
			resp.Body.Close()
			if (code == http.StatusOK || code == http.StatusAccepted) && derr == nil && v.ID != "" {
				probeID = v.ID
				break
			}
		}
		if time.Now().After(deadline) {
			return fail("probe job never accepted within %s", bound)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for {
		resp, err := client.Get(topo.base() + "/jobs/" + probeID)
		if err == nil {
			var v jobPollView
			derr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if derr == nil && v.State == "done" {
				break
			}
			if derr == nil && terminal(v.State) {
				return fail("probe job ended %s: %s", v.State, v.Error)
			}
		}
		if time.Now().After(deadline) {
			return fail("probe job not done within %s", bound)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Topology health: every node back in rotation.
	for {
		ok, detail := topo.converged()
		if ok {
			return InvariantResult{Name: "reconverge", OK: true}
		}
		if time.Now().After(deadline) {
			return fail("not converged within %s: %s", bound, detail)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// checkTraces is the distributed-tracing oracle: after heal, a request
// through the front door must yield a complete, well-parented trace.
// The request's X-Trace-ID response header names the trace; in cluster
// mode the coordinator's /cluster/trace assembly must contain at least
// the coordinator root, a forward span and the worker's server span,
// all reachable from one root; in single mode the node's own
// /debug/spans must hold the request's span. Span stores are in-memory
// and sampled-by-default, so a healed system that cannot produce this
// has broken propagation, not merely lost history.
func checkTraces(client *http.Client, topo topology, probeCategory string, isCluster bool, bound time.Duration) InvariantResult {
	deadline := time.Now().Add(bound)
	fail := func(format string, args ...any) InvariantResult {
		return InvariantResult{Name: "traces", OK: false, Detail: fmt.Sprintf(format, args...)}
	}
	var traceID string
	for {
		resp, err := client.Get(topo.base() + "/sat?category=" + probeCategory)
		if err == nil {
			traceID = resp.Header.Get("X-Trace-ID")
			status := resp.StatusCode
			resp.Body.Close()
			if status < 500 && traceID != "" {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail("no traced answer to the probe request within %s", bound)
		}
		time.Sleep(25 * time.Millisecond)
	}

	path := "/debug/spans/"
	if isCluster {
		path = "/cluster/trace/"
	}
	var lastDetail string
	for {
		resp, err := client.Get(topo.base() + path + traceID)
		if err == nil && resp.StatusCode == http.StatusOK {
			var v struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
				WellParented bool `json:"wellParented"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if derr == nil {
				if isCluster {
					if len(v.Spans) >= 3 && v.WellParented {
						return InvariantResult{Name: "traces", OK: true}
					}
					lastDetail = fmt.Sprintf("trace %s: %d spans, wellParented=%v", traceID, len(v.Spans), v.WellParented)
				} else {
					for _, sp := range v.Spans {
						if sp.Name == "server.request" {
							return InvariantResult{Name: "traces", OK: true}
						}
					}
					lastDetail = fmt.Sprintf("trace %s: %d spans, none named server.request", traceID, len(v.Spans))
				}
			} else {
				lastDetail = fmt.Sprintf("trace %s: decoding: %v", traceID, derr)
			}
		} else if err != nil {
			lastDetail = fmt.Sprintf("trace %s: %v", traceID, err)
		} else {
			resp.Body.Close()
			lastDetail = fmt.Sprintf("trace %s: status %d", traceID, resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fail("%s", lastDetail)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// dedupeSorted returns the sorted distinct values of xs.
func dedupeSorted(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if x != "" && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}
