package jobs

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/api"
	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/obs"
	"olapdim/internal/parser"
)

// State is a job lifecycle state. Transitions:
//
//	pending → running → done | failed | cancelled
//	running → checkpointed (suspended with durable progress) → running
//
// done, failed and cancelled are terminal. A job found pending, running or
// checkpointed when the store opens was interrupted by a crash or shutdown
// and is re-enqueued.
type State string

const (
	// StatePending means the job is queued and has not started an attempt.
	StatePending State = "pending"
	// StateRunning means a worker is executing the job now.
	StateRunning State = "running"
	// StateCheckpointed means the job is suspended with a durable search
	// checkpoint (store shutdown mid-run); it resumes on the next Start.
	StateCheckpointed State = "checkpointed"
	// StateDone means the job finished and Result is populated.
	StateDone State = "done"
	// StateFailed means the job ended with an error (in Error).
	StateFailed State = "failed"
	// StateCancelled means CancelJob ended the job before completion.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Kinds of reasoning a job can run.
const (
	// KindSat decides satisfiability of Request.Category.
	KindSat = "sat"
	// KindImplies decides whether the schema implies Request.Constraint.
	KindImplies = "implies"
)

// Request describes the reasoning a job performs: the body of a job
// submit, which both dimsatd and the cluster coordinator decode.
type Request = api.JobRequest

// Result is the outcome of a finished job.
type Result struct {
	// Satisfiable is set for KindSat jobs.
	Satisfiable *bool `json:"satisfiable,omitempty"`
	// Implied is set for KindImplies jobs.
	Implied *bool `json:"implied,omitempty"`
	// Witness renders the frozen dimension witnessing satisfiability (or
	// the counterexample for a failed implication), when one exists.
	Witness string `json:"witness,omitempty"`
}

// Status is a point-in-time snapshot of a job, also the durable record
// persisted in the store directory.
type Status struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	State   State   `json:"state"`
	// Attempts counts executions started (1 for an uninterrupted job;
	// at-least-once semantics mean resumed jobs count each resume).
	Attempts int `json:"attempts"`
	// Stats is the cumulative search effort, updated at every durable
	// checkpoint and on completion; monotonically non-decreasing across
	// suspend/resume cycles.
	Stats core.Stats `json:"stats"`
	// Error carries the failure for StateFailed.
	Error string `json:"error,omitempty"`
	// Result is populated for StateDone.
	Result *Result `json:"result,omitempty"`
}

// Counters are the store's cumulative counters, surfaced via GET /stats.
type Counters struct {
	// Submitted counts jobs accepted (idempotent re-submits excluded).
	Submitted int64 `json:"submitted"`
	// Recovered counts interrupted jobs re-enqueued at Open.
	Recovered int64 `json:"recovered"`
	// Resumed counts attempts that continued from a durable checkpoint.
	Resumed int64 `json:"resumed"`
	// CorruptRejected counts snapshot files refused for failing their
	// checksum or semantic validation.
	CorruptRejected int64 `json:"corruptRejected"`
	// CheckpointWrites counts durable search-checkpoint writes that
	// reached disk (periodic sinks and shutdown captures).
	CheckpointWrites int64 `json:"checkpointWrites"`
	// Done, Failed and Cancelled count terminal transitions.
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
}

// ErrUnknownJob reports a job ID the store has no record of.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrJobTerminal reports an operation (cancel) on a finished job.
var ErrJobTerminal = errors.New("jobs: job already terminal")

// ErrNoCheckpoint reports a CheckpointData call for a job that has no
// durable search checkpoint.
var ErrNoCheckpoint = errors.New("jobs: no checkpoint")

// ErrStorage reports a durable write that failed — disk full, fsync
// error, injected disk fault. A Submit refused with it was rolled back:
// nothing was acknowledged, and the client should retry later (the HTTP
// layer maps it to 503, not 400 — the request was well-formed). Test
// with errors.Is.
var ErrStorage = errors.New("jobs: storage failure")

// Config configures a Store.
type Config struct {
	// Dir is the directory holding job records and checkpoints; created
	// if missing.
	Dir string
	// Schema is the dimension schema all jobs reason over.
	Schema *core.DimensionSchema
	// Options are the base search options per attempt. MaxExpansions
	// bounds the job's cumulative expansions across all attempts (stats
	// are seeded from the checkpoint on resume); a job that exhausts it
	// fails. Cache and Tracer are ignored: durable jobs always run the
	// real search so their checkpoints describe real positions.
	Options core.Options
	// CheckpointEvery is the durable checkpoint period in EXPAND steps;
	// 0 means defaultCheckpointEvery, negative disables periodic
	// checkpoints (jobs then restart from scratch after a crash).
	CheckpointEvery int
	// Acquire, when non-nil, gates each executing job: workers block in
	// Acquire until a slot frees, and call the returned release when the
	// attempt ends. The HTTP server installs its admission semaphore
	// here so jobs and interactive requests share one concurrency cap.
	Acquire func(ctx context.Context) (release func(), err error)
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Spans, when non-nil, receives job lifecycle spans (submit, attempt,
	// first checkpoint write, completion) for jobs that carry a sampled
	// TraceContext. Nil disables span recording.
	Spans *obs.SpanStore
}

const defaultCheckpointEvery = 1000

// Store is a durable job store. All methods are safe for concurrent use.
type Store struct {
	cfg    Config
	dir    string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	byKey   map[string]string // idempotency key → job ID
	seq     int
	started bool

	acquire func(ctx context.Context) (func(), error)

	// compiled is the store's schema compiled once at Open (or the
	// caller's Options.Compiled); every attempt runs on it.
	compiled *core.Compiled

	submitted       atomic.Int64
	recovered       atomic.Int64
	resumed         atomic.Int64
	corruptRejected atomic.Int64
	ckptWrites      atomic.Int64
	done            atomic.Int64
	failed          atomic.Int64
	cancelled       atomic.Int64

	// killed marks an abrupt Kill-in-progress: workers abandon their jobs
	// without the graceful suspend persistence, like a real process death.
	killed atomic.Bool

	// writeFailStreak counts consecutive durable-write failures;
	// lastWriteErr holds the latest failure text. A healthy write resets
	// the streak. Surfaced by WriteHealth for readiness checks.
	writeFailStreak atomic.Int64
	lastWriteErr    atomic.Value // string
	// lastDiskProbe is the unix-nano time of the last recovery probe
	// WriteHealth issued while the streak was non-zero.
	lastDiskProbe atomic.Int64
}

// job is the in-memory side of one job. st is guarded by the store mutex;
// cancel tears down the running attempt's context.
type job struct {
	st      Status
	cancel  context.CancelFunc
	hasCkpt bool
}

// Open loads (or creates) the store directory, verifies every job record,
// and re-enqueues interrupted jobs. Records that fail their checksum are
// renamed aside with a .corrupt suffix and counted, never silently
// dropped or trusted. Jobs do not execute until Start is called, so the
// caller can wire Acquire (SetAcquire) between Open and Start.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if cfg.Schema == nil {
		return nil, errors.New("jobs: Config.Schema is required")
	}
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	compiled := cfg.Options.Compiled
	if compiled == nil {
		var err error
		if compiled, err = core.Compile(cfg.Schema); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Store{
		cfg:      cfg,
		dir:      cfg.Dir,
		ctx:      ctx,
		cancel:   cancel,
		jobs:     map[string]*job{},
		byKey:    map[string]string{},
		acquire:  cfg.Acquire,
		compiled: compiled,
	}
	if err := s.load(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// load scans the directory for job records, quarantining corrupt ones and
// marking interrupted jobs recovered.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasSuffix(name, ".job") {
			continue
		}
		path := filepath.Join(s.dir, name)
		payload, err := s.readSnapshot(path)
		if err != nil {
			// One failed read does not condemn the record: quarantining
			// here forgets an acknowledged job (its status answers 404
			// forever), so that verdict must not rest on a transient read
			// fault — an EIO, a bit flipped on the way in. Re-read once;
			// only damage both reads agree on is quarantined. Real on-disk
			// corruption fails the checksum identically both times.
			s.logf("jobs: re-reading %s after failed read: %v", name, err)
			payload, err = s.readSnapshot(path)
		}
		if err != nil {
			s.quarantine(path, err)
			continue
		}
		var st Status
		if err := json.Unmarshal(payload, &st); err != nil || st.ID == "" ||
			st.ID != strings.TrimSuffix(name, ".job") {
			s.quarantine(path, fmt.Errorf("%w: bad job record: %v", ErrCorruptSnapshot, err))
			continue
		}
		j := &job{st: st}
		if _, err := os.Stat(s.ckptPath(st.ID)); err == nil {
			// A checkpoint is trusted only if its content verifies: a
			// torn or bit-flipped file found by this scan is quarantined
			// here, before any attempt, and the job restarts from
			// scratch instead of failing at resume time.
			if ckpt, cerr := s.readSnapshot(s.ckptPath(st.ID)); cerr == nil {
				if _, derr := core.DecodeCheckpoint(ckpt); derr == nil {
					j.hasCkpt = true
				} else {
					s.quarantine(s.ckptPath(st.ID), derr)
				}
			} else if errors.Is(cerr, ErrCorruptSnapshot) {
				s.quarantine(s.ckptPath(st.ID), cerr)
			}
		}
		if !st.State.Terminal() {
			// Interrupted by a crash or shutdown: re-enqueue. With a
			// durable checkpoint it is suspended work; without one it
			// starts over.
			if j.hasCkpt {
				j.st.State = StateCheckpointed
			} else {
				j.st.State = StatePending
			}
			s.recovered.Add(1)
			s.logf("jobs: recovered %s (%s)", st.ID, j.st.State)
		}
		s.jobs[st.ID] = j
		if k := st.Request.IdempotencyKey; k != "" {
			s.byKey[k] = st.ID
		}
		if n := idSeq(st.ID); n >= s.seq {
			s.seq = n + 1
		}
	}
	return nil
}

// quarantine renames a snapshot file that failed verification aside so it
// is preserved for forensics but never loaded again.
func (s *Store) quarantine(path string, err error) {
	s.corruptRejected.Add(1)
	s.logf("jobs: quarantining %s: %v", filepath.Base(path), err)
	_ = os.Rename(path, path+".corrupt")
}

// SetAcquire installs the admission hook (see Config.Acquire); call
// between Open and Start.
func (s *Store) SetAcquire(f func(ctx context.Context) (func(), error)) {
	s.mu.Lock()
	s.acquire = f
	s.mu.Unlock()
}

// Start launches workers for every runnable job (recovered or submitted
// before Start). Submissions after Start launch immediately.
func (s *Store) Start() {
	s.mu.Lock()
	s.started = true
	var ids []string
	for id, j := range s.jobs {
		if !j.st.State.Terminal() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	s.mu.Unlock()
	for _, id := range ids {
		s.launch(id)
	}
}

// Close suspends the store: running jobs are cancelled, persist their
// latest position as a durable checkpoint, and stay non-terminal so the
// next Open recovers them. Blocks until all workers have drained.
func (s *Store) Close() {
	s.cancel()
	s.wg.Wait()
}

// Submit validates and enqueues a reasoning job, returning its status and
// whether it was newly created (false when an idempotency key matched an
// existing job, whose status is returned instead).
func (s *Store) Submit(req Request) (Status, bool, error) {
	submitStart := time.Now()
	switch req.Kind {
	case KindSat:
		if !s.cfg.Schema.G.HasCategory(req.Category) {
			return Status{}, false, fmt.Errorf("jobs: unknown category %q", req.Category)
		}
	case KindImplies:
		alpha, err := parser.ParseConstraint(req.Constraint)
		if err != nil {
			return Status{}, false, err
		}
		if err := constraint.Validate(alpha, s.cfg.Schema.G); err != nil {
			return Status{}, false, err
		}
	default:
		return Status{}, false, fmt.Errorf("jobs: unknown kind %q (want %q or %q)", req.Kind, KindSat, KindImplies)
	}
	cp, err := s.decodeSeedCheckpoint(req)
	if err != nil {
		return Status{}, false, err
	}
	s.mu.Lock()
	if k := req.IdempotencyKey; k != "" {
		if id, ok := s.byKey[k]; ok {
			st := s.jobs[id].st
			s.mu.Unlock()
			return st, false, nil
		}
	}
	id := fmt.Sprintf("j%06d", s.seq)
	s.seq++
	st0 := Status{ID: id, Request: req, State: StatePending}
	if cp != nil {
		// The durable .ckpt file is the checkpoint of record; the blob is
		// not duplicated into every job-record write.
		st0.Request.Checkpoint = ""
		st0.State = StateCheckpointed
		st0.Stats = cp.Stats
	}
	j := &job{st: st0}
	s.jobs[id] = j
	if k := req.IdempotencyKey; k != "" {
		s.byKey[k] = id
	}
	started := s.started
	st := j.st
	s.mu.Unlock()
	rollback := func() {
		s.mu.Lock()
		delete(s.jobs, id)
		if k := req.IdempotencyKey; k != "" {
			delete(s.byKey, k)
		}
		s.mu.Unlock()
	}
	if cp != nil {
		if err := s.persistCheckpoint(id, cp); err != nil {
			rollback()
			return Status{}, false, fmt.Errorf("%w: %w", ErrStorage, err)
		}
	}
	if err := s.persistRecord(st); err != nil {
		rollback()
		s.removeCkpt(id)
		return Status{}, false, fmt.Errorf("%w: %w", ErrStorage, err)
	}
	s.submitted.Add(1)
	s.recordJobSpan(st.Request, "job.submit", submitStart, "ok",
		map[string]string{"jobId": id, "kind": req.Kind})
	if started {
		s.launch(id)
	}
	return st, true, nil
}

// decodeSeedCheckpoint validates a Request.Checkpoint seed: it must be
// valid base64 of a well-formed core.Checkpoint whose schema fingerprint
// matches what an attempt for this request would search. A mismatched
// seed is refused here — at submit, where the caller can react — rather
// than failing the job on its first attempt.
func (s *Store) decodeSeedCheckpoint(req Request) (*core.Checkpoint, error) {
	if req.Checkpoint == "" {
		return nil, nil
	}
	raw, err := base64.StdEncoding.DecodeString(req.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("jobs: checkpoint seed is not base64: %w", err)
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		return nil, err
	}
	want := ""
	switch req.Kind {
	case KindSat:
		want = core.Fingerprint(s.cfg.Schema)
	case KindImplies:
		alpha, perr := parser.ParseConstraint(req.Constraint)
		if perr != nil {
			return nil, perr
		}
		neg, _, _, decided, rerr := core.ImpliesReduction(s.cfg.Schema, alpha)
		if rerr != nil {
			return nil, rerr
		}
		if decided {
			// Propositionally constant: the attempt never searches, so a
			// seed has nothing to resume. Ignore it.
			return nil, nil
		}
		want = core.Fingerprint(neg)
	}
	if cp.Schema != want {
		return nil, fmt.Errorf("%w: seed fingerprint %.12s.. vs expected %.12s..",
			core.ErrCheckpointMismatch, cp.Schema, want)
	}
	return cp, nil
}

// CheckpointData returns the raw encoded bytes of a job's latest durable
// search checkpoint, for mirroring by a cluster coordinator. ErrUnknownJob
// for unknown IDs; ErrNoCheckpoint when the job has none (not started,
// never checkpointed, or finished).
func (s *Store) CheckpointData(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	hasCkpt := ok && j.hasCkpt
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if !hasCkpt {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, id)
	}
	payload, err := s.readSnapshot(s.ckptPath(id))
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// Status returns the current status of a job.
func (s *Store) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.st, nil
}

// Cancel ends a job: a queued or suspended job is cancelled in place, a
// running job's context is cancelled and its worker finalizes the state.
// Cancelling a terminal job returns ErrJobTerminal.
func (s *Store) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if j.st.State.Terminal() {
		st := j.st
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, st.State)
	}
	j.st.State = StateCancelled
	cancel := j.cancel
	st := j.st
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.cancelled.Add(1)
	if err := s.persistRecord(st); err != nil {
		s.logf("jobs: persisting cancel of %s: %v", id, err)
	}
	s.removeCkpt(id)
	return st, nil
}

// Counters returns the store's cumulative counters.
func (s *Store) Counters() Counters {
	return Counters{
		Submitted:        s.submitted.Load(),
		Recovered:        s.recovered.Load(),
		Resumed:          s.resumed.Load(),
		CorruptRejected:  s.corruptRejected.Load(),
		CheckpointWrites: s.ckptWrites.Load(),
		Done:             s.done.Load(),
		Failed:           s.failed.Load(),
		Cancelled:        s.cancelled.Load(),
	}
}

// Jobs returns all job statuses, sorted by ID.
func (s *Store) Jobs() []Status {
	s.mu.Lock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// launch starts one worker goroutine for a job attempt.
func (s *Store) launch(id string) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run(id)
	}()
}

// run executes one attempt of a job: acquire an execution slot, load any
// durable checkpoint, run (or resume) the search, and finalize.
func (s *Store) run(id string) {
	if s.acquire != nil {
		release, err := s.acquire(s.ctx)
		if err != nil {
			// Store shutting down before the job got a slot; it stays
			// pending/checkpointed on disk and recovers next boot.
			return
		}
		defer release()
	}

	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.st.State.Terminal() {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.cancel = cancel
	j.st.State = StateRunning
	j.st.Attempts++
	st := j.st
	hadCkpt := j.hasCkpt
	s.mu.Unlock()
	if err := s.persistRecord(st); err != nil {
		s.fail(id, fmt.Errorf("jobs: persisting state: %w", err))
		return
	}

	var cp *core.Checkpoint
	if hadCkpt {
		var err error
		cp, err = s.loadCkpt(id)
		if err != nil {
			// A damaged checkpoint is refused with its typed error and
			// quarantined — but the job is not failed: the deterministic
			// enumeration makes a from-scratch search return exactly what
			// the resumed one would have, so only progress is lost, never
			// the answer. (Failing acknowledged jobs here was the bug
			// chaos seed 38 found — its node restarts while snapshot reads
			// are still flipping bits, so the recovery scan walks corrupt
			// checkpoints; TestCorruptCheckpointRestartsFromScratch and the
			// seed-38 entry in internal/chaos's regression table pin the
			// fix.)
			s.logf("jobs: %s checkpoint unusable (%v); restarting from scratch", id, err)
			cp = nil
			s.clearCkpt(id)
			s.mu.Lock()
			j.st.Stats = core.Stats{}
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			j.st.Stats = cp.Stats
			s.mu.Unlock()
		}
	}

	attemptStart := time.Now()
	res, resErr := s.attempt(ctx, id, st.Request, cp)

	// An injected panic is the simulated process kill of the robustness
	// harness: the worker abandons the job with no state transition —
	// exactly what a real crash leaves behind (a dead process records no
	// spans either) — so reopening the store exercises the genuine
	// recovery path. Real panics fail the job.
	var ie *core.InternalError
	if errors.As(resErr, &ie) {
		if _, injected := ie.Value.(*faults.PanicValue); injected {
			s.logf("jobs: %s worker killed by injected panic", id)
			return
		}
	}
	attemptStatus := "ok"
	switch {
	case resErr == nil:
	case errors.Is(resErr, context.Canceled):
		attemptStatus = "cancelled"
	default:
		attemptStatus = "error"
	}
	s.recordJobSpan(st.Request, "job.attempt", attemptStart, attemptStatus, map[string]string{
		"jobId": id, "kind": st.Request.Kind, "attempt": fmt.Sprint(st.Attempts),
		"resumed": fmt.Sprint(cp != nil)})
	if ie != nil {
		s.fail(id, resErr)
		return
	}

	s.mu.Lock()
	cancelled := j.st.State == StateCancelled
	s.mu.Unlock()
	if cancelled {
		return // Cancel already persisted the terminal state.
	}

	switch {
	case resErr == nil:
		s.complete(id, st.Request, res)
	case errors.Is(resErr, context.Canceled) && s.ctx.Err() != nil:
		if s.killed.Load() {
			// Kill: abandon with no suspend-time persistence, leaving
			// the crash-faithful on-disk state for the next Open.
			return
		}
		// Store shutdown: suspend with whatever position the search
		// captured; the record stays non-terminal for recovery.
		if res.Checkpoint != nil {
			if err := s.persistCheckpoint(id, res.Checkpoint); err != nil {
				s.logf("jobs: persisting shutdown checkpoint for %s: %v", id, err)
			}
		}
		s.suspend(id, res.Stats)
	default:
		// Budget exhaustion, deadline, injected fault errors, sink
		// failures: the job's allowance is spent or its storage is
		// failing — surface the typed error.
		s.fail(id, resErr)
	}
}

// attempt runs or resumes the search for one job. The checkpoint sink
// persists every position durably before the search moves on. Cache and
// Tracer are stripped: durable jobs always run the real search so their
// checkpoints describe real positions.
func (s *Store) attempt(ctx context.Context, id string, req Request, cp *core.Checkpoint) (core.Result, error) {
	opts := s.cfg.Options
	opts.Cache = nil
	opts.Tracer = nil
	opts.Checkpoint = s.checkpointing(id, req)
	opts.Compiled = s.compiled
	if cp != nil {
		s.resumed.Add(1)
	}
	switch req.Kind {
	case KindSat:
		if cp != nil {
			return core.ResumeSatisfiableContext(ctx, s.cfg.Schema, cp, opts)
		}
		return core.SatisfiableContext(ctx, s.cfg.Schema, req.Category, opts)
	case KindImplies:
		alpha, err := parser.ParseConstraint(req.Constraint)
		if err != nil {
			return core.Result{}, err
		}
		_, root, verdict, decided, err := core.ImpliesReduction(s.cfg.Schema, alpha)
		if err != nil {
			return core.Result{}, err
		}
		if decided {
			// Propositional constant: implied iff verdict. Encode as an
			// unsatisfiable/satisfiable result with no witness.
			return core.Result{Satisfiable: !verdict}, nil
		}
		// The reduction is deterministic, so a resumed search runs
		// against the identical neg schema (same fingerprint); Derive
		// compiles that same schema against the store's interned graph.
		dcs, err := s.compiled.Derive(constraint.Not{X: alpha})
		if err != nil {
			return core.Result{}, err
		}
		opts.Compiled = dcs
		neg := dcs.Source()
		if cp != nil {
			return core.ResumeSatisfiableContext(ctx, neg, cp, opts)
		}
		return core.SatisfiableContext(ctx, neg, root, opts)
	default:
		return core.Result{}, fmt.Errorf("jobs: unknown kind %q", req.Kind)
	}
}

// recordJobSpan records one job-lifecycle span when the job carries a
// sampled trace context and the store has a span store. Every such span
// parents directly into the propagated context, so a trace assembled
// across workers shows the job's submit, attempts, checkpoints and
// completion under the request that spawned it — even when different
// processes ran them.
func (s *Store) recordJobSpan(req Request, name string, start time.Time, status string, attrs map[string]string) {
	if s.cfg.Spans == nil || req.TraceContext == "" {
		return
	}
	parent, ok := obs.ParseTraceparent(req.TraceContext)
	if !ok || !parent.Sampled {
		return
	}
	sp := &obs.Span{
		TraceID:    parent.TraceID,
		SpanID:     obs.NewSpanID(),
		ParentID:   parent.SpanID,
		Name:       name,
		Kind:       "internal",
		Start:      start,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Status:     status,
	}
	for k, v := range attrs {
		sp.SetAttr(k, v)
	}
	s.cfg.Spans.Add(sp)
}

// checkpointing builds the Options.Checkpoint installation for a job:
// periodic durable sinks plus abort capture. Only the first durable
// write of the attempt is recorded as a span — with CheckpointEvery at
// its test settings a long search writes thousands of checkpoints, and
// one span proves the durability hop without flooding the trace.
func (s *Store) checkpointing(id string, req Request) *core.Checkpointing {
	ck := &core.Checkpointing{}
	if s.cfg.CheckpointEvery > 0 {
		ck.Every = s.cfg.CheckpointEvery
		var spanOnce sync.Once
		ck.Sink = func(cp *core.Checkpoint) error {
			start := time.Now()
			err := s.persistCheckpoint(id, cp)
			if err == nil {
				spanOnce.Do(func() {
					s.recordJobSpan(req, "job.checkpoint", start, "ok", map[string]string{
						"jobId": id, "expansions": fmt.Sprint(cp.Stats.Expansions)})
				})
			}
			return err
		}
	}
	return ck
}

// complete finalizes a successful attempt.
func (s *Store) complete(id string, req Request, res core.Result) {
	r := &Result{}
	switch req.Kind {
	case KindSat:
		sat := res.Satisfiable
		r.Satisfiable = &sat
		if res.Witness != nil {
			r.Witness = res.Witness.String()
		}
	case KindImplies:
		implied := !res.Satisfiable
		r.Implied = &implied
		if !implied && res.Witness != nil {
			r.Witness = res.Witness.String()
		}
	}
	s.mu.Lock()
	j := s.jobs[id]
	j.st.State = StateDone
	j.st.Stats = res.Stats
	j.st.Result = r
	j.st.Error = ""
	st := j.st
	s.mu.Unlock()
	s.done.Add(1)
	if err := s.persistRecord(st); err != nil {
		s.logf("jobs: persisting result of %s: %v", id, err)
	}
	s.removeCkpt(id)
	s.recordJobSpan(req, "job.complete", time.Now(), "ok",
		map[string]string{"jobId": id, "attempts": fmt.Sprint(st.Attempts)})
}

// fail finalizes a failed attempt.
func (s *Store) fail(id string, cause error) {
	s.mu.Lock()
	j := s.jobs[id]
	j.st.State = StateFailed
	j.st.Error = cause.Error()
	st := j.st
	s.mu.Unlock()
	s.failed.Add(1)
	s.logf("jobs: %s failed: %v", id, cause)
	if err := s.persistRecord(st); err != nil {
		s.logf("jobs: persisting failure of %s: %v", id, err)
	}
}

// suspend parks a job interrupted by shutdown as checkpointed (or pending
// when no checkpoint was ever captured).
func (s *Store) suspend(id string, stats core.Stats) {
	s.mu.Lock()
	j := s.jobs[id]
	if j.hasCkpt {
		j.st.State = StateCheckpointed
	} else {
		j.st.State = StatePending
	}
	j.st.Stats = stats
	st := j.st
	s.mu.Unlock()
	if err := s.persistRecord(st); err != nil {
		s.logf("jobs: persisting suspension of %s: %v", id, err)
	}
}

// writeSnapshot is the store's durable write path: WriteSnapshotFile with
// fault injection at faults.SiteJobsFsync (the durability point, before
// the rename) and write-health bookkeeping. An injected faults.ErrTornWrite
// additionally leaves a truncated file at a previously-empty path —
// modeling a filesystem that published the name before the data survived —
// so the recovery scan's torn-write quarantine is exercised; an existing
// complete file is never destroyed, matching the atomic-rename contract.
func (s *Store) writeSnapshot(path string, payload []byte) error {
	err := writeSnapshotFile(path, payload, func() error {
		return s.cfg.Options.Faults.Hit(faults.SiteJobsFsync)
	})
	if err != nil {
		if errors.Is(err, faults.ErrTornWrite) {
			if _, statErr := os.Stat(path); errors.Is(statErr, os.ErrNotExist) {
				enc := EncodeSnapshot(payload)
				_ = os.WriteFile(path, enc[:len(enc)/2], 0o644)
			}
		}
		s.noteWrite(err)
		return err
	}
	s.noteWrite(nil)
	return nil
}

// readSnapshot is the store's verified read path: ReadSnapshotFile with
// fault injection at faults.SiteSnapshotRead. An armed Corrupt rule flips
// one bit of the bytes read before decoding — the checksum, not the
// injector, is what must catch the damage — and any other injected error
// stands in for a failing read (EIO).
func (s *Store) readSnapshot(path string) ([]byte, error) {
	if err := s.cfg.Options.Faults.Hit(faults.SiteSnapshotRead); err != nil {
		var ce *faults.CorruptError
		if !errors.As(err, &ce) {
			return nil, fmt.Errorf("jobs: read %s: %w", filepath.Base(path), err)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, rerr
		}
		faults.FlipBit(data, ce.Hit)
		payload, derr := DecodeSnapshot(data)
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), derr)
		}
		return payload, nil
	}
	return ReadSnapshotFile(path)
}

// noteWrite records the outcome of one durable write for WriteHealth.
func (s *Store) noteWrite(err error) {
	if err == nil {
		s.writeFailStreak.Store(0)
		return
	}
	s.writeFailStreak.Add(1)
	s.lastWriteErr.Store(err.Error())
}

// diskProbeInterval rate-limits the recovery probe WriteHealth issues
// while the write-fail streak is non-zero.
const diskProbeInterval = 250 * time.Millisecond

// diskProbeDue claims the next probe slot; at most one caller wins per
// interval, so concurrent /readyz scrapes cannot stampede the disk.
func (s *Store) diskProbeDue() bool {
	now := time.Now().UnixNano()
	last := s.lastDiskProbe.Load()
	return now-last >= int64(diskProbeInterval) && s.lastDiskProbe.CompareAndSwap(last, now)
}

// WriteHealth reports the store's durable-write health: the number of
// consecutive failed writes (0 when the last write succeeded) and the
// most recent failure text. The HTTP server degrades /readyz when the
// streak shows the disk is persistently refusing writes.
//
// While the streak is non-zero, WriteHealth re-verifies the condition
// with a rate-limited probe — a small synced write in the store
// directory — so a disk that healed clears the streak without waiting
// for the next real job write. An idle-but-healed store would otherwise
// report storage-failing forever, and a clustered worker would never
// rejoin rotation (its coordinator probes /readyz, which reads this).
func (s *Store) WriteHealth() (failStreak int, lastErr string) {
	if s.writeFailStreak.Load() > 0 && s.diskProbeDue() {
		probe := filepath.Join(s.dir, ".disk-probe")
		if err := s.writeSnapshot(probe, []byte("disk probe")); err == nil {
			os.Remove(probe)
		}
	}
	failStreak = int(s.writeFailStreak.Load())
	if v, ok := s.lastWriteErr.Load().(string); ok {
		lastErr = v
	}
	return failStreak, lastErr
}

// Kill simulates abrupt process death, for crash testing: running
// attempts are cancelled and abandoned with no suspend-time persistence,
// so the directory holds exactly what the last durable write left —
// what a real kill -9 leaves — then blocks until all workers exit. The
// store is unusable afterwards; Open the directory again to recover.
func (s *Store) Kill() {
	s.killed.Store(true)
	s.cancel()
	s.wg.Wait()
}

// persistRecord durably writes a job record (with fault injection at
// faults.SiteJobPersist).
func (s *Store) persistRecord(st Status) error {
	if err := s.cfg.Options.Faults.Hit(faults.SiteJobPersist); err != nil {
		s.noteWrite(err)
		return fmt.Errorf("jobs: persist %s: %w", st.ID, err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return s.writeSnapshot(s.jobPath(st.ID), payload)
}

// persistCheckpoint durably writes a search checkpoint and mirrors its
// stats into the job status so observers see progress.
func (s *Store) persistCheckpoint(id string, cp *core.Checkpoint) error {
	if id == "" {
		return errors.New("jobs: checkpoint for unknown job")
	}
	if err := s.cfg.Options.Faults.Hit(faults.SiteJobPersist); err != nil {
		s.noteWrite(err)
		return fmt.Errorf("jobs: persist checkpoint %s: %w", id, err)
	}
	payload, err := cp.Encode()
	if err != nil {
		return err
	}
	if err := s.writeSnapshot(s.ckptPath(id), payload); err != nil {
		return err
	}
	s.ckptWrites.Add(1)
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.hasCkpt = true
		j.st.Stats = cp.Stats
	}
	s.mu.Unlock()
	return nil
}

// loadCkpt reads and validates a job's durable checkpoint. Corruption is
// quarantined and returned as ErrCorruptSnapshot; a decodable-but-invalid
// checkpoint surfaces core.ErrBadCheckpoint. Either way the job no longer
// has a usable checkpoint and the caller restarts the search from
// scratch — safe, because the deterministic enumeration makes a fresh run
// return exactly what the resumed one would have.
func (s *Store) loadCkpt(id string) (*core.Checkpoint, error) {
	path := s.ckptPath(id)
	payload, err := s.readSnapshot(path)
	if err != nil {
		if errors.Is(err, ErrCorruptSnapshot) {
			s.quarantine(path, err)
			s.clearCkpt(id)
		}
		return nil, err
	}
	cp, err := core.DecodeCheckpoint(payload)
	if err != nil {
		s.quarantine(path, err)
		s.clearCkpt(id)
		return nil, err
	}
	return cp, nil
}

// clearCkpt drops a job's in-memory checkpoint flag after its durable
// checkpoint was quarantined or removed.
func (s *Store) clearCkpt(id string) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.hasCkpt = false
	}
	s.mu.Unlock()
}

func (s *Store) removeCkpt(id string) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		j.hasCkpt = false
	}
	s.mu.Unlock()
	_ = os.Remove(s.ckptPath(id))
}

func (s *Store) jobPath(id string) string  { return filepath.Join(s.dir, id+".job") }
func (s *Store) ckptPath(id string) string { return filepath.Join(s.dir, id+".ckpt") }

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// idSeq parses the numeric suffix of a generated job ID, so a reopened
// store continues the sequence past existing IDs.
func idSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return -1
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}
