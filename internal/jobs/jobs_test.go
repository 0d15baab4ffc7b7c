package jobs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/obs"
)

const diamondSrc = `
schema diamond
edge A -> B -> D -> All
edge A -> C -> D
edge A -> D
`

// hardUnsatSrc mirrors the core package's hard-instance generator: a
// layered hierarchy whose root is unsatisfiable only by a contradictory
// constraint, so the search must exhaust the whole subhierarchy space.
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

func parse(t *testing.T, src string) *core.DimensionSchema {
	t.Helper()
	ds, err := core.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// await polls until the job reaches a terminal state.
func await(t *testing.T, s *Store, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s not terminal after 10s (state %s)", id, st.State)
	return Status{}
}

func TestSatJobLifecycle(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc)})
	s.Start()
	st, created, err := s.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil || !created {
		t.Fatalf("Submit = %+v, %v, %v", st, created, err)
	}
	st = await(t, s, st.ID)
	if st.State != StateDone || st.Result == nil || st.Result.Satisfiable == nil || !*st.Result.Satisfiable {
		t.Fatalf("job = %+v, want done and satisfiable", st)
	}
	if st.Result.Witness == "" {
		t.Error("satisfiable job carries no witness")
	}
	if st.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", st.Attempts)
	}
	if c := s.Counters(); c.Submitted != 1 || c.Done != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestImpliesJob(t *testing.T) {
	schema := parse(t, diamondSrc)
	s := open(t, Config{Dir: t.TempDir(), Schema: schema})
	s.Start()
	for _, con := range []string{"B.D", "A.B"} {
		alpha, err := core.ParseConstraint(con)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.Implies(schema, alpha, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := s.Submit(Request{Kind: KindImplies, Constraint: con})
		if err != nil {
			t.Fatal(err)
		}
		st = await(t, s, st.ID)
		if st.State != StateDone || st.Result == nil || st.Result.Implied == nil {
			t.Fatalf("%s: job = %+v, want done with Implied", con, st)
		}
		if *st.Result.Implied != want {
			t.Errorf("%s: implied = %v, want %v", con, *st.Result.Implied, want)
		}
		if !want && st.Result.Witness == "" {
			t.Errorf("%s: failed implication carries no counterexample", con)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc)})
	for _, req := range []Request{
		{Kind: "nope"},
		{Kind: KindSat, Category: "Z"},
		{Kind: KindImplies, Constraint: "("},
		{Kind: KindImplies, Constraint: "A.Z"},
	} {
		if _, _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted", req)
		}
	}
	if c := s.Counters(); c.Submitted != 0 {
		t.Errorf("rejected submissions counted: %+v", c)
	}
}

// TestOpenRefusesNegativeCheckpointPeriod: a negative CheckpointEvery
// is refused with an error naming it, before the directory is touched,
// and 0 still means the default period.
func TestOpenRefusesNegativeCheckpointPeriod(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	_, err := Open(Config{Dir: dir, Schema: parse(t, diamondSrc), CheckpointEvery: -1})
	if err == nil || !strings.Contains(err.Error(), "CheckpointEvery -1") {
		t.Fatalf("Open with CheckpointEvery -1 = %v, want an error naming the period", err)
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("refused Open created %s: %v", dir, statErr)
	}
	s := open(t, Config{Dir: dir, Schema: parse(t, diamondSrc)})
	if s.cfg.CheckpointEvery != defaultCheckpointEvery {
		t.Errorf("CheckpointEvery 0 opened with period %d, want %d", s.cfg.CheckpointEvery, defaultCheckpointEvery)
	}
}

func TestIdempotencyKey(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc)})
	s.Start()
	a, created, err := s.Submit(Request{Kind: KindSat, Category: "A", IdempotencyKey: "k1"})
	if err != nil || !created {
		t.Fatalf("first submit: %v created=%v", err, created)
	}
	b, created, err := s.Submit(Request{Kind: KindSat, Category: "A", IdempotencyKey: "k1"})
	if err != nil || created {
		t.Fatalf("second submit: %v created=%v", err, created)
	}
	if a.ID != b.ID {
		t.Errorf("idempotent resubmit made a new job: %s vs %s", a.ID, b.ID)
	}
	if c := s.Counters(); c.Submitted != 1 {
		t.Errorf("Submitted = %d, want 1", c.Submitted)
	}
	await(t, s, a.ID)
}

func TestCancelQueuedJob(t *testing.T) {
	// Store not started: the job stays pending and Cancel takes it
	// straight to cancelled.
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc)})
	st, _, err := s.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.Cancel(st.ID)
	if err != nil || st.State != StateCancelled {
		t.Fatalf("Cancel = %+v, %v", st, err)
	}
	if _, err := s.Cancel(st.ID); !errors.Is(err, ErrJobTerminal) {
		t.Errorf("second Cancel = %v, want ErrJobTerminal", err)
	}
	if _, err := s.Cancel("j999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel unknown = %v, want ErrUnknownJob", err)
	}
	s.Start()
	time.Sleep(10 * time.Millisecond)
	got, err := s.Status(st.ID)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("cancelled job ran after Start: %+v, %v", got, err)
	}
}

func TestRecoverPendingJobAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	schema := parse(t, diamondSrc)
	s1, err := Open(Config{Dir: dir, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "A", IdempotencyKey: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close() // never Started: job persisted pending

	s2 := open(t, Config{Dir: dir, Schema: schema})
	if c := s2.Counters(); c.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", c.Recovered)
	}
	// The idempotency key survives the restart.
	dup, created, err := s2.Submit(Request{Kind: KindSat, Category: "A", IdempotencyKey: "r1"})
	if err != nil || created || dup.ID != st.ID {
		t.Fatalf("resubmit after restart: %+v created=%v err=%v", dup, created, err)
	}
	s2.Start()
	got := await(t, s2, st.ID)
	if got.State != StateDone {
		t.Fatalf("recovered job = %+v, want done", got)
	}
}

// TestKillAndResume is the proof-of-robustness acceptance test: a worker
// is killed mid-search by an injected panic (simulating a process crash —
// no orderly state transition happens), the store is reopened as a process
// restart would, and the recovered job must resume from its last durable
// checkpoint and finish with a result identical to an uninterrupted run,
// with monotonically non-decreasing stats.
func TestKillAndResume(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	schema := parse(t, src)

	// Uninterrupted baseline.
	baseline, err := core.Satisfiable(parse(t, src), "C0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Satisfiable || baseline.Stats.Expansions < 500 {
		t.Fatalf("hard instance unsuitable: %+v", baseline.Stats)
	}

	dir := t.TempDir()
	const killAt = 301
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{killAt}})
	s1, err := Open(Config{
		Dir:             dir,
		Schema:          schema,
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the injected kill: the worker dies without any state
	// transition, exactly like a crashed process.
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fired(faults.SiteExpand) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if inj.Fired(faults.SiteExpand) == 0 {
		t.Fatal("injected panic never fired")
	}
	s1.Close()
	if got, _ := s1.Status(st.ID); got.State.Terminal() {
		t.Fatalf("killed job reached terminal state %s", got.State)
	}

	// "Restart the process": a fresh store over the same directory.
	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	if c := s2.Counters(); c.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", c.Recovered)
	}
	got, err := s2.Status(st.ID)
	if err != nil || got.State != StateCheckpointed {
		t.Fatalf("recovered job = %+v, %v, want checkpointed", got, err)
	}
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Satisfiable == nil {
		t.Fatalf("resumed job = %+v, want done", final)
	}
	if *final.Result.Satisfiable != baseline.Satisfiable {
		t.Fatalf("resumed verdict %v != uninterrupted %v", *final.Result.Satisfiable, baseline.Satisfiable)
	}
	// With Every=1 the only re-done work is the expansion in flight at
	// the kill, counted once: cumulative stats match exactly.
	if final.Stats != baseline.Stats {
		t.Errorf("resumed stats %+v != uninterrupted %+v", final.Stats, baseline.Stats)
	}
	if final.Stats.Expansions < got.Stats.Expansions {
		t.Errorf("stats went backwards: %d < %d", final.Stats.Expansions, got.Stats.Expansions)
	}
	if c := s2.Counters(); c.Resumed != 1 || c.Done != 1 {
		t.Errorf("counters = %+v, want Resumed=1 Done=1", c)
	}
}

// interruptedJobDir runs a job to its first durable checkpoint, kills the
// worker with an injected panic (no state transition, like a real crash),
// and returns the store directory and job ID ready for a recovery test.
func interruptedJobDir(t *testing.T, src string) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{200}})
	s1, err := Open(Config{
		Dir:             dir,
		Schema:          parse(t, src),
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fired(faults.SiteExpand) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close()
	return dir, st.ID
}

// TestCorruptCheckpointRestartsFromScratch flips one payload byte in a
// durable checkpoint and asserts the recovery scan quarantines it and the
// job restarts from scratch, finishing with the verdict and stats of an
// uninterrupted run. (Chaos seed 42 found the earlier behavior — failing
// the acknowledged job — as an invariant violation: a damaged checkpoint
// loses progress, never the answer.)
func TestCorruptCheckpointRestartsFromScratch(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	baseline, err := core.Satisfiable(parse(t, src), "C0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir, id := interruptedJobDir(t, src)

	ckpt := filepath.Join(dir, id+".ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40 // flip a bit inside the JSON payload
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	if c := s2.Counters(); c.CorruptRejected == 0 {
		t.Error("recovery scan did not count the corrupt checkpoint")
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	s2.Start()
	final := await(t, s2, id)
	if final.State != StateDone || final.Result == nil || final.Result.Satisfiable == nil {
		t.Fatalf("job after corrupt checkpoint = %+v, want done", final)
	}
	if *final.Result.Satisfiable != baseline.Satisfiable {
		t.Errorf("restarted verdict %v != uninterrupted %v",
			*final.Result.Satisfiable, baseline.Satisfiable)
	}
	if final.Stats != baseline.Stats {
		t.Errorf("restarted stats %+v != uninterrupted %+v", final.Stats, baseline.Stats)
	}
	if c := s2.Counters(); c.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0 (restart, not resume)", c.Resumed)
	}
}

// TestTornCheckpointQuarantinedOnRecoveryScan truncates a checkpoint
// mid-file — the torn write a non-atomic filesystem can leave — and
// asserts the recovery scan quarantines it before any attempt, so the
// recovered job restarts from scratch instead of failing at resume time.
func TestTornCheckpointQuarantinedOnRecoveryScan(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	dir, id := interruptedJobDir(t, src)

	ckpt := filepath.Join(dir, id+".ckpt")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	if c := s2.Counters(); c.CorruptRejected == 0 {
		t.Error("torn checkpoint not counted by the recovery scan")
	}
	if _, err := os.Stat(ckpt + ".corrupt"); err != nil {
		t.Errorf("torn checkpoint not quarantined: %v", err)
	}
	got, err := s2.Status(id)
	if err != nil || got.State != StatePending {
		t.Fatalf("recovered job = %+v, %v, want pending (checkpoint unusable)", got, err)
	}
	s2.Start()
	final := await(t, s2, id)
	if final.State != StateDone {
		t.Fatalf("job after torn checkpoint = %+v, want done", final)
	}
}

// TestInjectedReadCorruptionAtResume arms a Corrupt rule at snapshot.read
// so the checkpoint verifies at the recovery scan but reads corrupt at
// resume time; the store must quarantine it then and still finish the job
// from scratch with the uninterrupted verdict.
func TestInjectedReadCorruptionAtResume(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	baseline, err := core.Satisfiable(parse(t, src), "C0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir, id := interruptedJobDir(t, src)

	// Reads at Open: hit 1 = job record, hit 2 = checkpoint verify.
	// Hit 3 is loadCkpt at resume.
	inj := faults.New(faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Corrupt, On: []int{3}})
	s2 := open(t, Config{
		Dir:             dir,
		Schema:          parse(t, src),
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	if c := s2.Counters(); c.CorruptRejected != 0 {
		t.Fatalf("recovery scan rejected %d snapshots before the fault window", c.CorruptRejected)
	}
	s2.Start()
	final := await(t, s2, id)
	if final.State != StateDone || final.Result == nil || final.Result.Satisfiable == nil {
		t.Fatalf("job = %+v, want done", final)
	}
	if *final.Result.Satisfiable != baseline.Satisfiable || final.Stats != baseline.Stats {
		t.Errorf("result after injected read corruption diverged: %+v vs %+v",
			final.Stats, baseline.Stats)
	}
	if c := s2.Counters(); c.CorruptRejected == 0 {
		t.Error("injected corruption not counted")
	}
	if _, err := os.Stat(filepath.Join(dir, id+".ckpt.corrupt")); err != nil {
		t.Errorf("checkpoint not quarantined at resume: %v", err)
	}
}

// TestTransientRecordReadFaultSurvivesRecovery arms a Corrupt rule so
// the recovery scan's first read of a job record comes back damaged
// while the bytes on disk are fine. The scan must re-read before
// quarantining — forgetting the record here makes an acknowledged job
// answer 404 forever, which is the durability violation chaos seed 38
// found once its workload put a record read (not just a checkpoint
// read) inside the bitflip window.
func TestTransientRecordReadFaultSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	schema := parse(t, diamondSrc)
	s1, err := Open(Config{Dir: dir, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	inj := faults.New(faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Corrupt, On: []int{1}})
	s2 := open(t, Config{Dir: dir, Schema: schema, Options: core.Options{Faults: inj}})
	if c := s2.Counters(); c.CorruptRejected != 0 || c.Recovered != 1 {
		t.Fatalf("transient read fault condemned the record: %+v", c)
	}
	s2.Start()
	if got := await(t, s2, st.ID); got.State != StateDone {
		t.Fatalf("recovered job = %+v, want done", got)
	}

	// Real on-disk damage fails both reads identically: still quarantined.
	s2.Close()
	rec := filepath.Join(dir, st.ID+".job")
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(rec, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := open(t, Config{Dir: dir, Schema: schema})
	if c := s3.Counters(); c.CorruptRejected != 1 {
		t.Fatalf("persistent corruption not quarantined: %+v", c)
	}
	if _, err := s3.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status after quarantine = %v, want ErrUnknownJob", err)
	}
	if _, err := os.Stat(rec + ".corrupt"); err != nil {
		t.Errorf("record not renamed aside: %v", err)
	}
}

// TestFsyncFailureRefusesSubmit arms an Error rule at jobs.fsync and
// asserts Submit rolls back with the typed ErrStorage — an acknowledged
// job must imply a durable record — and that WriteHealth reports the
// failure streak until a healthy write clears it.
func TestFsyncFailureRefusesSubmit(t *testing.T) {
	inj := faults.New()
	s := open(t, Config{
		Dir:     t.TempDir(),
		Schema:  parse(t, diamondSrc),
		Options: core.Options{Faults: inj},
	})
	if err := inj.Arm(faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrNoSpace}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(Request{Kind: KindSat, Category: "A"}); !errors.Is(err, ErrStorage) {
		t.Fatalf("Submit under fsync failure = %v, want ErrStorage", err)
	} else if !errors.Is(err, faults.ErrNoSpace) {
		t.Errorf("Submit error %v does not carry the cause", err)
	}
	if streak, last := s.WriteHealth(); streak == 0 || last == "" {
		t.Errorf("WriteHealth = %d, %q after a failed write", streak, last)
	}
	if got, err := s.Jobs(); err != nil || len(got) != 0 {
		t.Errorf("rolled-back submit still listed: %+v, %v", got, err)
	}
	inj.DisarmSite(faults.SiteJobsFsync)
	st, created, err := s.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil || !created {
		t.Fatalf("Submit after heal = %v created=%v", err, created)
	}
	if streak, _ := s.WriteHealth(); streak != 0 {
		t.Errorf("WriteHealth streak = %d after healthy write, want 0", streak)
	}
	s.Start()
	await(t, s, st.ID)
}

// TestWriteHealthProbeRecoversIdleStore pins the readiness-recovery
// contract: after the disk heals, WriteHealth's rate-limited probe write
// clears the fail streak on its own — no real job write required — so an
// idle store (and the /readyz built on it) does not report
// storage-failing forever.
func TestWriteHealthProbeRecoversIdleStore(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New()
	s := open(t, Config{
		Dir:     dir,
		Schema:  parse(t, diamondSrc),
		Options: core.Options{Faults: inj},
	})
	if err := inj.Arm(faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrNoSpace}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(Request{Kind: KindSat, Category: "A"}); !errors.Is(err, ErrStorage) {
		t.Fatalf("Submit under fsync failure = %v, want ErrStorage", err)
	}
	if streak, _ := s.WriteHealth(); streak == 0 {
		t.Fatal("WriteHealth streak = 0 after a failed write")
	}
	inj.DisarmSite(faults.SiteJobsFsync)
	// No job writes from here on: only the probe can clear the streak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		streak, _ := s.WriteHealth()
		if streak == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WriteHealth streak = %d two seconds after the disk healed, want 0 via probe", streak)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if stray, _ := filepath.Glob(filepath.Join(dir, ".disk-probe*")); len(stray) != 0 {
		t.Errorf("probe left files behind: %v", stray)
	}
}

// TestTornWriteLeavesQuarantinableFile arms the torn-write fault on a
// fresh submit: the submit must fail (rolled back, nothing acknowledged)
// and the truncated record it left behind must be quarantined — not
// trusted, not fatal — by the next recovery scan.
func TestTornWriteLeavesQuarantinableFile(t *testing.T) {
	dir := t.TempDir()
	schema := parse(t, diamondSrc)
	inj := faults.New()
	s1, err := Open(Config{Dir: dir, Schema: schema, Options: core.Options{Faults: inj}})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrTornWrite, On: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Submit(Request{Kind: KindSat, Category: "A"}); !errors.Is(err, ErrStorage) {
		t.Fatalf("Submit under torn write = %v, want ErrStorage", err)
	}
	s1.Close()
	torn, err := filepath.Glob(filepath.Join(dir, "*.job"))
	if err != nil || len(torn) != 1 {
		t.Fatalf("torn record files = %v, %v, want exactly one", torn, err)
	}

	s2 := open(t, Config{Dir: dir, Schema: schema})
	if c := s2.Counters(); c.CorruptRejected != 1 {
		t.Errorf("CorruptRejected = %d, want 1 (the torn record)", c.CorruptRejected)
	}
	if _, err := os.Stat(torn[0] + ".corrupt"); err != nil {
		t.Errorf("torn record not quarantined: %v", err)
	}
	if got, err := s2.Jobs(); err != nil || len(got) != 0 {
		t.Errorf("torn record resurrected a job: %+v, %v", got, err)
	}
}

func TestCorruptJobRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	schema := parse(t, diamondSrc)
	s1, err := Open(Config{Dir: dir, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	path := filepath.Join(dir, st.ID+".job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, Config{Dir: dir, Schema: schema})
	if _, err := s2.Status(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("corrupt record still loaded: %v", err)
	}
	if c := s2.Counters(); c.CorruptRejected != 1 {
		t.Errorf("CorruptRejected = %d, want 1", c.CorruptRejected)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt record not quarantined: %v", err)
	}
}

func TestPersistFaultFailsJob(t *testing.T) {
	// An error injected at jobs.persist while the sink writes a
	// checkpoint must abort the search and fail the job: a job that
	// cannot persist progress must not pretend it is durable.
	inj := faults.New(faults.Rule{Site: faults.SiteJobPersist, Kind: faults.Error, On: []int{3}})
	s := open(t, Config{
		Dir:             t.TempDir(),
		Schema:          parse(t, hardUnsatSrc(3, 2)),
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	s.Start()
	st, _, err := s.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	final := await(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "injected") {
		t.Fatalf("job = %+v, want failed with injected persist error", final)
	}
}

func TestBudgetExhaustionFailsJob(t *testing.T) {
	s := open(t, Config{
		Dir:     t.TempDir(),
		Schema:  parse(t, hardUnsatSrc(3, 2)),
		Options: core.Options{MaxExpansions: 25},
	})
	s.Start()
	st, _, err := s.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	final := await(t, s, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "budget") {
		t.Fatalf("job = %+v, want failed on budget", final)
	}
}

func TestCloseSuspendsRunningJob(t *testing.T) {
	// A slow job interrupted by Close must park as checkpointed (durable
	// progress on disk) and complete after a restart.
	src := hardUnsatSrc(3, 2)
	dir := t.TempDir()
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: time.Millisecond})
	s1, err := Open(Config{
		Dir:             dir,
		Schema:          parse(t, src),
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inj.Hits(faults.SiteExpand) < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s1.Close()
	got, err := s1.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCheckpointed {
		t.Fatalf("suspended job = %+v, want checkpointed", got)
	}

	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %+v, want done", final)
	}
	if final.Stats.Expansions < got.Stats.Expansions {
		t.Errorf("stats went backwards across suspend: %d < %d", final.Stats.Expansions, got.Stats.Expansions)
	}
}

// TestTraceContextSurvivesKill is the distributed-tracing half of the
// crash story: the span *ring* dies with the process (a killed process
// records nothing), but the trace *context* is persisted in the job
// snapshot, so the resumed attempt on the next boot rejoins the
// submitter's trace ID.
func TestTraceContextSurvivesKill(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	schema := parse(t, src)
	dir := t.TempDir()
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{301}})
	spans1 := obs.NewSpanStore(0, "boot1")
	s1, err := Open(Config{
		Dir:             dir,
		Schema:          schema,
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
		Spans:           spans1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	parent := obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "C0", TraceContext: parent.Traceparent()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fired(faults.SiteExpand) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if inj.Fired(faults.SiteExpand) == 0 {
		t.Fatal("injected panic never fired")
	}
	names := func(spans []obs.Span) []string {
		var out []string
		for _, sp := range spans {
			out = append(out, sp.Name)
		}
		return out
	}
	got := spans1.Trace(parent.TraceID)
	if len(got) == 0 {
		t.Fatalf("first boot recorded no spans for the submit trace")
	}
	for _, sp := range got {
		if sp.Name == "job.submit" && sp.ParentID != parent.SpanID {
			t.Fatalf("job.submit parented to %s, want the submitter's span %s", sp.ParentID, parent.SpanID)
		}
	}
	s1.Close()

	// "Restart the process": a fresh store, a fresh (empty) span ring.
	spans2 := obs.NewSpanStore(0, "boot2")
	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1, Spans: spans2})
	recovered, err := s2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Request.TraceContext != parent.Traceparent() {
		t.Fatalf("recovered trace context %q, want %q (must survive the crash in the snapshot)",
			recovered.Request.TraceContext, parent.Traceparent())
	}
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job = %+v, want done", final)
	}
	// The lifecycle spans are recorded just after the state transitions
	// the await saw, so give them a beat to land.
	var attempt, complete *obs.Span
	spanDeadline := time.Now().Add(2 * time.Second)
	for {
		after := spans2.Trace(parent.TraceID)
		attempt, complete = nil, nil
		for i := range after {
			switch after[i].Name {
			case "job.attempt":
				attempt = &after[i]
			case "job.complete":
				complete = &after[i]
			}
		}
		if attempt != nil && complete != nil {
			break
		}
		if time.Now().After(spanDeadline) {
			t.Fatalf("second boot spans %v, want job.attempt and job.complete on the original trace", names(after))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if attempt.Attrs["resumed"] != "true" {
		t.Errorf("resumed attempt span attrs %v, want resumed=true", attempt.Attrs)
	}
	if attempt.ParentID != parent.SpanID || complete.ParentID != parent.SpanID {
		t.Errorf("resumed spans parented to %s/%s, want the submitter's span %s",
			attempt.ParentID, complete.ParentID, parent.SpanID)
	}
}
