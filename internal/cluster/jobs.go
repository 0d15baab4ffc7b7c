package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"olapdim/internal/api"
)

// mintedKeyPrefix marks the idempotency keys the coordinator mints for
// submits that carry none. A client key in this namespace is refused, so
// a minted key can never name another client's job.
const mintedKeyPrefix = "coord:"

// trackedJob is one live job the coordinator has forwarded. The
// coordinator owns the client-facing job identity (cj-prefixed IDs)
// precisely so a job can move between workers — whose own IDs are
// per-shard sequences — without the client's handle changing.
type trackedJob struct {
	// ID is the coordinator-issued, client-facing job ID.
	ID string `json:"id"`
	// Key is the routing key the job's shard is derived from.
	Key string `json:"key"`
	// Worker is the base URL of the shard currently running the job.
	Worker string `json:"worker"`
	// WorkerID is the job's ID on that worker.
	WorkerID string `json:"workerId"`
	// State is the last state observed from the worker (or "lost" while
	// awaiting reassignment after the worker died).
	State string `json:"state"`
	// Reassigned counts handoffs to a new shard.
	Reassigned int `json:"reassigned"`

	req        api.JobRequest // the submit as forwarded, with the key the coordinator minted
	checkpoint string         // base64 mirror of the worker's latest checkpoint
	view       []byte         // last worker job view, ID rewritten, relayed on GET
	terminal   bool
}

// jobTracker indexes the jobs some worker accepted: live jobs by
// coordinator ID, finished ones as their last client view alone, and
// client idempotency keys (for dedupe at the coordinator tier, so a
// retried client submit maps to the existing job without asking any
// worker). Polling, counting per worker and reassignment walk the live
// jobs only.
type jobTracker struct {
	mu       sync.Mutex
	seq      int
	live     map[string]*trackedJob
	finished map[string]string // job ID → its final client view
	byKey    map[string]string // client idempotency key → job ID
}

func newJobTracker() *jobTracker {
	return &jobTracker{live: map[string]*trackedJob{}, finished: map[string]string{}, byKey: map[string]string{}}
}

// newID issues the next coordinator job ID.
func (t *jobTracker) newID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("cj%06d", t.seq)
}

// lookup returns the ID and client view of the job a client idempotency
// key names.
func (t *jobTracker) lookup(idempotencyKey string) (string, json.RawMessage, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.byKey[idempotencyKey] // add never files the empty key
	if !ok {
		return "", nil, false
	}
	v, _ := t.viewLocked(id)
	return id, v, true
}

// add tracks a placed job and returns its ID and client view. When its
// client idempotency key already names a tracked job — a concurrent
// submit placed the same job first — that job's are returned with
// added=false and j is dropped. A minted key is not filed: no client can
// send it.
func (t *jobTracker) add(j *trackedJob) (id string, view json.RawMessage, added bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := j.req.IdempotencyKey; k != "" && !strings.HasPrefix(k, mintedKeyPrefix) {
		if id, ok := t.byKey[k]; ok {
			v, _ := t.viewLocked(id)
			return id, v, false
		}
		t.byKey[k] = j.ID
	}
	t.live[j.ID] = j
	t.settle(j)
	return j.ID, j.clientView(), true
}

// update applies fn to a live job under the tracker lock; a job fn
// finishes is kept as its client view from then on. All field mutation
// goes through here so snapshot reads are race-free.
func (t *jobTracker) update(id string, fn func(*trackedJob)) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.live[id]
	if !ok {
		return false
	}
	fn(j)
	t.settle(j)
	return true
}

// settle moves a live job that reached a terminal state to the finished
// index, keeping only its client view (the caller holds t.mu).
func (t *jobTracker) settle(j *trackedJob) {
	if j.terminal {
		t.finished[j.ID] = string(j.clientView())
		delete(t.live, j.ID)
	}
}

// snapshot returns a copy of a live job (view and checkpoint included),
// safe to use without the lock.
func (t *jobTracker) snapshot(id string) (trackedJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.live[id]
	if !ok {
		return trackedJob{}, false
	}
	return *j, true
}

// view returns the client view of a live or finished job.
func (t *jobTracker) view(id string) (json.RawMessage, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.viewLocked(id)
}

func (t *jobTracker) viewLocked(id string) (json.RawMessage, bool) {
	if j, ok := t.live[id]; ok {
		return j.clientView(), true
	}
	v, ok := t.finished[id]
	return json.RawMessage(v), ok
}

// views returns the client view of every tracked job, sorted by ID.
func (t *jobTracker) views() []json.RawMessage {
	t.mu.Lock()
	ids := make([]string, 0, len(t.live)+len(t.finished))
	for id := range t.live {
		ids = append(ids, id)
	}
	for id := range t.finished {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]json.RawMessage, len(ids))
	for i, id := range ids {
		out[i], _ = t.viewLocked(id)
	}
	t.mu.Unlock()
	return out
}

// liveJobs returns snapshots of the live jobs, sorted by ID.
func (t *jobTracker) liveJobs() []trackedJob {
	t.mu.Lock()
	out := make([]trackedJob, 0, len(t.live))
	for _, j := range t.live {
		out = append(out, *j)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// onWorker returns the IDs of live jobs placed on worker — the set that
// needs reassignment when the worker dies or drains.
func (t *jobTracker) onWorker(worker string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, j := range t.live {
		if j.Worker == worker {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// count returns the number of tracked jobs, live and finished.
func (t *jobTracker) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live) + len(t.finished)
}
