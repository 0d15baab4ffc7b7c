package cluster

import (
	"fmt"
	"sort"
	"sync"

	"olapdim/internal/api"
)

// trackedJob is one job the coordinator has forwarded. The coordinator
// owns the client-facing job identity (cj-prefixed IDs) precisely so a
// job can move between workers — whose own IDs are per-shard sequences
// — without the client's handle changing.
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

// jobTracker indexes tracked jobs by coordinator ID and by idempotency
// key (for dedupe at the coordinator tier, so a retried client submit
// maps to the existing tracked job without asking any worker). It holds
// only jobs some worker accepted.
type jobTracker struct {
	mu    sync.Mutex
	seq   int
	byID  map[string]*trackedJob
	byKey map[string]*trackedJob // idempotency key → job
}

func newJobTracker() *jobTracker {
	return &jobTracker{byID: map[string]*trackedJob{}, byKey: map[string]*trackedJob{}}
}

// newID issues the next coordinator job ID.
func (t *jobTracker) newID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return fmt.Sprintf("cj%06d", t.seq)
}

// lookup returns a snapshot of the tracked job an idempotency key names.
func (t *jobTracker) lookup(idempotencyKey string) (trackedJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byKey[idempotencyKey] // add never files the empty key
	if !ok {
		return trackedJob{}, false
	}
	return *j, true
}

// add tracks a placed job and returns a snapshot of it. When its
// idempotency key already names a tracked job — a concurrent submit
// placed the same job first — that job's snapshot is returned with
// added=false and j is dropped.
func (t *jobTracker) add(j *trackedJob) (snap trackedJob, added bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k := j.req.IdempotencyKey; k != "" {
		if existing, ok := t.byKey[k]; ok {
			return *existing, false
		}
		t.byKey[k] = j
	}
	t.byID[j.ID] = j
	return *j, true
}

// update applies fn to the tracked job under the tracker lock. All
// field mutation goes through here so snapshot/list reads are
// race-free.
func (t *jobTracker) update(id string, fn func(*trackedJob)) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	if !ok {
		return false
	}
	fn(j)
	return true
}

// snapshot returns a copy of the tracked job (view and checkpoint
// included), safe to use without the lock.
func (t *jobTracker) snapshot(id string) (trackedJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	if !ok {
		return trackedJob{}, false
	}
	return *j, true
}

// list returns snapshots of every tracked job, sorted by ID.
func (t *jobTracker) list() []trackedJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]trackedJob, 0, len(t.byID))
	for _, j := range t.byID {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// onWorker returns the IDs of non-terminal jobs placed on worker — the
// set that needs reassignment when the worker dies or drains.
func (t *jobTracker) onWorker(worker string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, j := range t.byID {
		if j.Worker == worker && !j.terminal {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// count returns the number of tracked jobs.
func (t *jobTracker) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}
