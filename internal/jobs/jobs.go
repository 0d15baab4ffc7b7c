package jobs

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// Counters are the store's cumulative counters, which dimsatd exports as
// its olapdim_jobs_* metric families.
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
// error, injected disk fault — or a finished job's record that could not
// be read back. A Submit refused with it was rolled back: nothing was
// acknowledged (the job's first attempt may also have ended before any
// durable write), and the client should retry later (the HTTP layer maps
// it to 503, not 400 — the request was well-formed). Test with
// errors.Is.
var ErrStorage = errors.New("jobs: storage failure")

// errNotDurable is the cause a waiting Submit reports when the job's
// first attempt ended — killed, or a simulated crash — before any of its
// records was durable.
var errNotDurable = errors.New("jobs: first attempt ended before any durable write")

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
	// real search so their checkpoints describe real positions. Compiled,
	// when set, is the store's compiled schema (dimsatd shares the HTTP
	// server's, so one handle counts every compile); Open compiles Schema
	// otherwise.
	Options core.Options
	// CheckpointEvery is the durable checkpoint period in EXPAND steps;
	// 0 means defaultCheckpointEvery. Open refuses a negative period.
	CheckpointEvery int
	// Acquire, when non-nil, gates each executing job: it takes an
	// execution slot, and the attempt calls the returned release when it
	// ends. With wait set a worker blocks until a slot frees or ctx ends;
	// without it Acquire only tries, and a Submit that finds no free slot
	// queues its job instead of running it at once. ok is false when no
	// slot was taken. The HTTP server installs its admission semaphore
	// here so jobs and interactive requests share one concurrency cap.
	Acquire func(ctx context.Context, wait bool) (release func(), ok bool)
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

	mu sync.Mutex
	// jobs holds the live jobs: those not yet finished, and finished ones
	// whose terminal record failed to write. A finished job's durable
	// record is its status; it is read back from the directory.
	jobs    map[string]*job
	byKey   map[string]string // idempotency key → job ID, finished jobs included
	seq     int
	started bool

	acquire func(ctx context.Context, wait bool) (func(), bool)

	// compiled is the store's schema compiled once at Open (or the
	// caller's Options.Compiled); every sat attempt runs on it, and every
	// implies attempt on the reduction schema derived from it.
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

// job is the in-memory side of one live job. st and the fields below it
// are guarded by the store mutex; cancel tears down the running attempt's
// context.
type job struct {
	st      Status
	cancel  context.CancelFunc
	hasCkpt bool
	// ack is non-nil until one of the job's records is durable: its
	// submit, and a concurrent one with the same idempotency key, wait
	// on it. It is closed, and set to nil, when that record lands (acked
	// is the state written) or when the job is dropped because none can
	// be (dropped, ackErr; see dropUnacked). A first attempt that starts
	// with it still open was launched by its submit.
	ack     chan struct{}
	acked   Status
	ackErr  error
	dropped bool

	// wmu serializes the job's record writes and its drop. Each write
	// takes the state as it is when the write starts, so the last write
	// to land is of the latest state.
	wmu sync.Mutex
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
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("jobs: Config.CheckpointEvery %d is negative; the checkpoint period must be positive (0 means %d)",
			cfg.CheckpointEvery, defaultCheckpointEvery)
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
		if k := st.Request.IdempotencyKey; k != "" {
			s.byKey[k] = st.ID
		}
		if n := idSeq(st.ID); n >= s.seq {
			s.seq = n + 1
		}
		if st.State.Terminal() {
			continue // finished: the record stays on disk as its status
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
		// Interrupted by a crash or shutdown: re-enqueue. With a durable
		// checkpoint it is suspended work; without one it starts over.
		if j.hasCkpt {
			j.st.State = StateCheckpointed
		} else {
			j.st.State = StatePending
		}
		s.recovered.Add(1)
		s.logf("jobs: recovered %s (%s)", st.ID, j.st.State)
		s.jobs[st.ID] = j
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
func (s *Store) SetAcquire(f func(ctx context.Context, wait bool) (func(), bool)) {
	s.mu.Lock()
	s.acquire = f
	s.mu.Unlock()
}

// Start launches workers for every runnable job (recovered or submitted
// before Start). Submissions after Start launch immediately.
func (s *Store) Start() {
	s.mu.Lock()
	s.started = true
	var runnable []*job
	for _, j := range s.jobs {
		if !j.st.State.Terminal() {
			runnable = append(runnable, j)
		}
	}
	sort.Slice(runnable, func(i, k int) bool { return runnable[i].st.ID < runnable[k].st.ID })
	s.mu.Unlock()
	for _, j := range runnable {
		s.launch(j, nil)
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
// existing job, whose status is returned instead). The status returned
// is durable.
//
// On a started store, a job that finds an execution slot free starts its
// first attempt at once, and Submit returns when the job's first record
// is durable: a job that finishes before its first checkpoint is written
// once, already done or failed; a longer one after its first checkpoint,
// as running. A job that finds no free slot (Submit never waits for
// admission), carries a checkpoint seed, or is submitted to an unstarted
// store is written pending (or checkpointed) and returned at once.
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
	for k := req.IdempotencyKey; k != ""; {
		id, ok := s.byKey[k]
		if !ok {
			break
		}
		j := s.jobs[id]
		if j == nil {
			s.mu.Unlock()
			st, err := s.readRecord(id)
			return st, false, err
		}
		ack := j.ack
		if ack == nil {
			st := j.st
			s.mu.Unlock()
			return st, false, nil
		}
		// The key's first submit still waits for the job's first durable
		// record: wait with it, then look again, as the job may be gone.
		s.mu.Unlock()
		<-ack
		s.mu.Lock()
	}
	id := jobID(s.seq)
	s.seq++
	j := &job{st: Status{ID: id, Request: req, State: StatePending}, ack: make(chan struct{})}
	if cp != nil {
		// The durable .ckpt file is the checkpoint of record; the blob is
		// not duplicated into every job-record write.
		j.st.Request.Checkpoint = ""
		j.st.State = StateCheckpointed
		j.st.Stats = cp.Stats
	}
	ack := j.ack
	s.jobs[id] = j
	if k := req.IdempotencyKey; k != "" {
		s.byKey[k] = id
	}
	s.submitted.Add(1)
	started := s.started
	s.mu.Unlock()

	var release func()
	runNow := started && cp == nil
	if runNow && s.acquire != nil {
		release, runNow = s.acquire(s.ctx, false)
	}
	var st Status
	if runNow {
		s.launch(j, release)
		<-ack
		s.mu.Lock()
		st, err = j.acked, j.ackErr
		s.mu.Unlock()
		if err != nil {
			return Status{}, false, err
		}
	} else {
		if cp != nil {
			err = s.persistCheckpoint(j, cp)
		}
		if err == nil {
			st, err = s.writeRecord(j)
		}
		if err != nil {
			s.dropUnacked(j, err)
			return Status{}, false, fmt.Errorf("%w: %w", ErrStorage, err)
		}
	}
	s.recordJobSpan(req, "job.submit", submitStart, "ok", "jobId", id, "kind", req.Kind)
	if started && !runNow {
		s.launch(j, nil)
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
		want = s.compiled.Fingerprint()
	case KindImplies:
		alpha, perr := parser.ParseConstraint(req.Constraint)
		if perr != nil {
			return nil, perr
		}
		neg, _, _, decided, rerr := s.compiled.ImpliesReduction(alpha)
		if rerr != nil {
			return nil, rerr
		}
		if decided {
			// Propositionally constant: the attempt never searches, so a
			// seed has nothing to resume. Ignore it.
			return nil, nil
		}
		want = neg.Fingerprint()
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
	known := ok || s.issued(id)
	s.mu.Unlock()
	if !known {
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

// Status returns the current status of a job: a live job's from memory,
// a finished job's from its record. ErrUnknownJob for an ID the store
// never issued (answered without touching the disk) or whose job is
// gone; ErrStorage when a finished job's record cannot be read.
func (s *Store) Status(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		st := j.st
		s.mu.Unlock()
		return st, nil
	}
	issued := s.issued(id)
	s.mu.Unlock()
	if !issued {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return s.readRecord(id)
}

// Cancel ends a job: a queued or suspended job is cancelled in place, a
// running job's context is cancelled and its worker finalizes the state.
// Cancelling a terminal job returns ErrJobTerminal.
func (s *Store) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		issued := s.issued(id)
		s.mu.Unlock()
		if !issued {
			return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
		}
		st, err := s.readRecord(id)
		if err != nil {
			return Status{}, err
		}
		return st, fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, st.State)
	}
	if j.st.State.Terminal() {
		st := j.st
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, st.State)
	}
	j.st.State = StateCancelled
	s.cancelled.Add(1)
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	st, err := s.writeRecord(j)
	if errors.Is(err, ErrUnknownJob) {
		return Status{}, err // dropped: none of its records was durable
	}
	if err != nil {
		s.logf("jobs: persisting cancel of %s: %v", id, err)
	}
	s.removeCkpt(j)
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

// Jobs returns all job statuses, sorted by ID: the live jobs from memory
// and the finished ones from their records. A record that fails its
// checksum twice (a submit's torn first write) is skipped; any other
// failed read is ErrStorage.
func (s *Store) Jobs() ([]Status, error) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.jobs))
	live := make(map[string]bool, len(s.jobs))
	for id, j := range s.jobs {
		out = append(out, j.st)
		live[id] = true
	}
	s.mu.Unlock()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrStorage, err)
	}
	for _, ent := range ents {
		id, ok := strings.CutSuffix(ent.Name(), ".job")
		if !ok || live[id] {
			continue
		}
		st, err := s.readRecord(id)
		switch {
		case errors.Is(err, ErrCorruptSnapshot):
			s.logf("jobs: listing skips %s: %v", ent.Name(), err)
			continue
		case errors.Is(err, ErrUnknownJob):
			continue
		case err != nil:
			return nil, err
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, nil
}

// launch starts one worker goroutine for a job attempt; release, when
// non-nil, is an execution slot the caller already holds for it.
func (s *Store) launch(j *job, release func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run(j, release)
	}()
}

// run executes one attempt of a job: acquire an execution slot (unless
// the submit already holds one), load any durable checkpoint, run (or
// resume) the search, and finalize. A first attempt launched by Submit
// writes no running record: its first durable record is its first
// checkpoint's or its result.
func (s *Store) run(j *job, release func()) {
	// A first attempt that ends with none of the job's records durable
	// drops the job, so its waiting submit answers instead of hanging.
	defer s.dropUnacked(j, errNotDurable)
	if release == nil && s.acquire != nil {
		var ok bool
		if release, ok = s.acquire(s.ctx, true); !ok {
			// Store shutting down before the job got a slot; it stays
			// pending/checkpointed on disk and recovers next boot.
			return
		}
	}
	if release != nil {
		defer release()
	}

	s.mu.Lock()
	if j.st.State.Terminal() {
		s.mu.Unlock()
		return
	}
	id := j.st.ID
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.cancel = cancel
	j.st.State = StateRunning
	j.st.Attempts++
	st := j.st
	hadCkpt := j.hasCkpt
	first := j.ack != nil
	s.mu.Unlock()
	if !first {
		if _, err := s.writeRecord(j); err != nil {
			s.fail(j, fmt.Errorf("jobs: persisting state: %w", err))
			return
		}
	}

	var cp *core.Checkpoint
	if hadCkpt {
		var err error
		cp, err = s.loadCkpt(j)
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
			s.clearCkpt(j)
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
	res, resErr := s.attempt(ctx, j, first, st.Request, cp)

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
	s.recordJobSpan(st.Request, "job.attempt", attemptStart, attemptStatus,
		"jobId", id, "kind", st.Request.Kind, "attempt", strconv.Itoa(st.Attempts),
		"resumed", strconv.FormatBool(cp != nil))
	if ie != nil {
		s.fail(j, resErr)
		return
	}

	s.mu.Lock()
	cancelled := j.st.State == StateCancelled
	s.mu.Unlock()
	if cancelled {
		// Cancel persists the terminal state. A first attempt writes it
		// too, so its waiting submit acks it whichever write lands first.
		if first {
			s.writeRecord(j)
		}
		return
	}

	switch {
	case resErr == nil:
		s.complete(j, res)
	case errors.Is(resErr, context.Canceled) && s.ctx.Err() != nil:
		if s.killed.Load() {
			// Kill: abandon with no suspend-time persistence, leaving
			// the crash-faithful on-disk state for the next Open.
			return
		}
		// Store shutdown: suspend with whatever position the search
		// captured; the record stays non-terminal for recovery.
		if res.Checkpoint != nil {
			if err := s.persistCheckpoint(j, res.Checkpoint); err != nil {
				s.logf("jobs: persisting shutdown checkpoint for %s: %v", id, err)
			}
		}
		s.suspend(j, res.Stats)
	default:
		// Budget exhaustion, deadline, injected fault errors, sink
		// failures: the job's allowance is spent or its storage is
		// failing — surface the typed error.
		s.fail(j, resErr)
	}
}

// attempt runs or resumes the search for one job. The checkpoint sink
// persists every position durably before the search moves on. Cache and
// Tracer are stripped: durable jobs always run the real search so their
// checkpoints describe real positions.
func (s *Store) attempt(ctx context.Context, j *job, first bool, req Request, cp *core.Checkpoint) (core.Result, error) {
	opts := s.cfg.Options
	opts.Cache = nil
	opts.Tracer = nil
	opts.Checkpoint = s.checkpointing(j, first, req)
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
		// The reduction is deterministic, so a resumed search runs
		// against a schema with the checkpoint's fingerprint.
		neg, root, verdict, decided, err := s.compiled.ImpliesReduction(alpha)
		if err != nil {
			return core.Result{}, err
		}
		if decided {
			// Propositional constant: implied iff verdict. Encode as an
			// unsatisfiable/satisfiable result with no witness.
			return core.Result{Satisfiable: !verdict}, nil
		}
		opts.Compiled = neg
		if cp != nil {
			return core.ResumeSatisfiableContext(ctx, neg.Source(), cp, opts)
		}
		return core.SatisfiableContext(ctx, neg.Source(), root, opts)
	default:
		return core.Result{}, fmt.Errorf("jobs: unknown kind %q", req.Kind)
	}
}

// recordJobSpan records one job-lifecycle span when the job carries a
// sampled trace context and the store has a span store. Every such span
// parents directly into the propagated context, so a trace assembled
// across workers shows the job's submit, attempts, checkpoints and
// completion under the request that spawned it — even when different
// processes ran them. attrs are the span's attributes as key, value
// pairs.
func (s *Store) recordJobSpan(req Request, name string, start time.Time, status string, attrs ...string) {
	if s.cfg.Spans == nil || req.TraceContext == "" {
		return
	}
	parent, ok := obs.ParseTraceparent(req.TraceContext)
	if !ok || !parent.Sampled {
		return
	}
	sp := obs.Span{
		TraceID:    parent.TraceID,
		SpanID:     obs.NewSpanID(),
		ParentID:   parent.SpanID,
		Name:       name,
		Kind:       "internal",
		Start:      start,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Status:     status,
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	s.cfg.Spans.Add(&sp)
}

// checkpointing builds the Options.Checkpoint installation for a job:
// periodic durable sinks plus abort capture. Only the first durable
// write of the attempt is recorded as a span — with CheckpointEvery at
// its test settings a long search writes thousands of checkpoints, and
// one span proves the durability hop without flooding the trace. On a
// first attempt launched by Submit, the first checkpoint is followed by
// the job's running record, which acks the waiting submit.
func (s *Store) checkpointing(j *job, first bool, req Request) *core.Checkpointing {
	id := j.st.ID
	var spanOnce sync.Once
	recordDue := first // the search calls its sink from one goroutine
	return &core.Checkpointing{Every: s.cfg.CheckpointEvery, Sink: func(cp *core.Checkpoint) error {
		start := time.Now()
		err := s.persistCheckpoint(j, cp)
		if err == nil && recordDue {
			recordDue = false
			_, err = s.writeRecord(j)
		}
		if err == nil {
			spanOnce.Do(func() {
				s.recordJobSpan(req, "job.checkpoint", start, "ok",
					"jobId", id, "expansions", strconv.Itoa(cp.Stats.Expansions))
			})
		}
		return err
	}}
}

// complete finalizes a successful attempt.
func (s *Store) complete(j *job, res core.Result) {
	req := j.st.Request
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
	if !s.finish(j, func(st *Status) {
		st.State = StateDone
		st.Stats = res.Stats
		st.Result = r
		st.Error = ""
	}) {
		return
	}
	s.removeCkpt(j)
	// Only run, on this goroutine, changes Attempts.
	s.recordJobSpan(req, "job.complete", time.Now(), "ok",
		"jobId", j.st.ID, "attempts", strconv.Itoa(j.st.Attempts))
}

// fail finalizes a failed attempt.
func (s *Store) fail(j *job, cause error) {
	if !s.finish(j, func(st *Status) {
		st.State = StateFailed
		st.Error = cause.Error()
	}) {
		return
	}
	s.logf("jobs: %s failed: %v", j.st.ID, cause)
}

// finish applies a terminal transition and writes it, reporting whether
// the job took it: not when a Cancel ended the job first, nor when the
// job's first record failed to write, which drops it. A job whose
// terminal write failed otherwise keeps its state in memory.
func (s *Store) finish(j *job, set func(*Status)) bool {
	s.mu.Lock()
	if j.st.State.Terminal() {
		s.mu.Unlock()
		return false // cancelled meanwhile: Cancel persisted it
	}
	set(&j.st)
	state := j.st.State
	s.terminal(state).Add(1)
	s.mu.Unlock()
	if _, err := s.writeRecord(j); err != nil {
		s.logf("jobs: persisting %s state of %s: %v", state, j.st.ID, err)
		return !s.dropUnacked(j, err)
	}
	return true
}

// terminal returns the counter of a terminal state.
func (s *Store) terminal(state State) *atomic.Int64 {
	switch state {
	case StateDone:
		return &s.done
	case StateFailed:
		return &s.failed
	}
	return &s.cancelled
}

// suspend parks a job interrupted by shutdown as checkpointed (or pending
// when no checkpoint was ever captured).
func (s *Store) suspend(j *job, stats core.Stats) {
	s.mu.Lock()
	if j.st.State.Terminal() {
		s.mu.Unlock()
		return
	}
	if j.hasCkpt {
		j.st.State = StateCheckpointed
	} else {
		j.st.State = StatePending
	}
	j.st.Stats = stats
	s.mu.Unlock()
	if _, err := s.writeRecord(j); err != nil {
		s.logf("jobs: persisting suspension of %s: %v", j.st.ID, err)
	}
}

// writeRecord durably writes the job's record with the state it has when
// the write starts, and returns that state. The job's first durable
// record acks a submit waiting on it; a terminal record takes the job
// off the heap, leaving the record as its status (a later write of a
// job already off the heap has nothing to add and succeeds). A dropped
// job is not written: ErrUnknownJob.
func (s *Store) writeRecord(j *job) (Status, error) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	s.mu.Lock()
	st, dropped := j.st, j.dropped
	live := s.jobs[st.ID] == j
	s.mu.Unlock()
	switch {
	case dropped:
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, st.ID)
	case !live:
		return st, nil
	}
	if err := s.persistRecord(st); err != nil {
		return st, err
	}
	s.mu.Lock()
	if st.State.Terminal() {
		delete(s.jobs, st.ID)
	}
	if j.ack != nil {
		j.acked = st
		close(j.ack)
		j.ack = nil
	}
	s.mu.Unlock()
	return st, nil
}

// dropUnacked forgets a job none of whose records is durable — its first
// write failed, or its first attempt ended (killed, or a simulated crash)
// before writing one. No job, idempotency key, checkpoint or count of it
// remains, and a submit waiting on it answers ErrStorage with cause. It
// reports whether the job is gone; a durable job is left as it is.
func (s *Store) dropUnacked(j *job, cause error) bool {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	s.mu.Lock()
	if j.ack == nil { // durable, or dropped already
		s.mu.Unlock()
		return j.dropped
	}
	j.dropped = true
	s.submitted.Add(-1)
	if j.st.State.Terminal() {
		s.terminal(j.st.State).Add(-1)
	}
	id := j.st.ID
	delete(s.jobs, id)
	if k := j.st.Request.IdempotencyKey; k != "" && s.byKey[k] == id {
		delete(s.byKey, k)
	}
	j.ackErr = fmt.Errorf("%w: %w", ErrStorage, cause)
	close(j.ack)
	j.ack = nil
	s.mu.Unlock()
	_ = os.Remove(s.ckptPath(id))
	return true
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
func (s *Store) persistCheckpoint(j *job, cp *core.Checkpoint) error {
	id := j.st.ID
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
	j.hasCkpt = true
	j.st.Stats = cp.Stats
	s.mu.Unlock()
	return nil
}

// loadCkpt reads and validates a job's durable checkpoint. Corruption is
// quarantined and returned as ErrCorruptSnapshot; a decodable-but-invalid
// checkpoint surfaces core.ErrBadCheckpoint. Either way the job no longer
// has a usable checkpoint and the caller restarts the search from
// scratch — safe, because the deterministic enumeration makes a fresh run
// return exactly what the resumed one would have.
func (s *Store) loadCkpt(j *job) (*core.Checkpoint, error) {
	path := s.ckptPath(j.st.ID)
	payload, err := s.readSnapshot(path)
	if err != nil {
		if errors.Is(err, ErrCorruptSnapshot) {
			s.quarantine(path, err)
			s.clearCkpt(j)
		}
		return nil, err
	}
	cp, err := core.DecodeCheckpoint(payload)
	if err != nil {
		s.quarantine(path, err)
		s.clearCkpt(j)
		return nil, err
	}
	return cp, nil
}

// clearCkpt drops a job's in-memory checkpoint flag after its durable
// checkpoint was quarantined or removed.
func (s *Store) clearCkpt(j *job) {
	s.mu.Lock()
	j.hasCkpt = false
	s.mu.Unlock()
}

func (s *Store) removeCkpt(j *job) {
	s.clearCkpt(j)
	_ = os.Remove(s.ckptPath(j.st.ID))
}

// readRecord reads a finished job's record, its status once it is off
// the heap. A failed read is retried once, as the recovery scan does: a
// record that still cannot be read is ErrStorage (a missing one,
// ErrUnknownJob), and nothing is quarantined here — only the recovery
// scan condemns a record.
func (s *Store) readRecord(id string) (Status, error) {
	path := s.jobPath(id)
	payload, err := s.readSnapshot(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		payload, err = s.readSnapshot(path)
	}
	if errors.Is(err, fs.ErrNotExist) {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	var st Status
	if err == nil {
		if err = json.Unmarshal(payload, &st); err == nil && st.ID != id {
			err = fmt.Errorf("%w: record names job %q", ErrCorruptSnapshot, st.ID)
		}
	}
	if err != nil {
		return Status{}, fmt.Errorf("%w: reading %s: %w", ErrStorage, id, err)
	}
	return st, nil
}

// issued reports whether id is a job ID this store generated (the caller
// holds s.mu). Only such an ID is looked up on disk, so an unknown or
// malformed one is answered without touching it.
func (s *Store) issued(id string) bool {
	n := idSeq(id)
	return n >= 0 && n < s.seq && id == jobID(n)
}

func jobID(n int) string { return fmt.Sprintf("j%06d", n) }

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
