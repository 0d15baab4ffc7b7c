package jobs

import (
	"encoding/base64"
	"errors"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
)

// satC0 is the sat job the seed tests hand off: C0 of hardUnsatSrc is
// unsatisfiable, so its search exhausts the subhierarchy space.
var satC0 = Request{Kind: KindSat, Category: "C0"}

// killCheckpoint runs req on a throwaway store with an injected
// mid-search kill and returns the dead job's checkpoint bytes plus the
// uninterrupted baseline for comparison: the satisfiability run of a sat
// job, the Theorem 2 run of an implies job.
func killCheckpoint(t *testing.T, src string, req Request, killAt int) ([]byte, core.Result) {
	t.Helper()
	schema := parse(t, src)
	var baseline core.Result
	var err error
	switch req.Kind {
	case KindSat:
		baseline, err = core.Satisfiable(schema, req.Category, core.Options{})
	case KindImplies:
		alpha, perr := core.ParseConstraint(req.Constraint)
		if perr != nil {
			t.Fatal(perr)
		}
		_, baseline, err = core.Implies(schema, alpha, core.Options{})
	}
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{killAt}})
	s := open(t, Config{
		Dir:             t.TempDir(),
		Schema:          schema,
		Options:         core.Options{Faults: inj},
		CheckpointEvery: 1,
	})
	s.Start()
	st, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fired(faults.SiteExpand) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if inj.Fired(faults.SiteExpand) == 0 {
		t.Fatal("injected kill never fired")
	}
	raw, err := s.CheckpointData(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return raw, baseline
}

// TestSubmitWithCheckpointSeed pins the cross-shard handoff contract:
// a job submitted with another store's checkpoint starts checkpointed
// and finishes with the verdict and cumulative stats of an
// uninterrupted run — the work done before the handoff is not redone
// and not double-counted.
func TestSubmitWithCheckpointSeed(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	raw, baseline := killCheckpoint(t, src, satC0, 1000)

	s2 := open(t, Config{Dir: t.TempDir(), Schema: parse(t, src), CheckpointEvery: 1})
	st, created, err := s2.Submit(Request{
		Kind:       KindSat,
		Category:   "C0",
		Checkpoint: base64.StdEncoding.EncodeToString(raw),
	})
	if err != nil || !created {
		t.Fatalf("Submit with seed = %+v, %v, %v", st, created, err)
	}
	if st.State != StateCheckpointed {
		t.Fatalf("seeded job state = %s, want checkpointed", st.State)
	}
	if st.Stats.Expansions == 0 {
		t.Fatal("seeded job carries no progress stats")
	}
	if st.Request.Checkpoint != "" {
		t.Fatal("checkpoint blob leaked into the job record's request")
	}
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Satisfiable == nil {
		t.Fatalf("seeded job = %+v, want done", final)
	}
	if *final.Result.Satisfiable != baseline.Satisfiable {
		t.Fatalf("seeded verdict %v != uninterrupted %v", *final.Result.Satisfiable, baseline.Satisfiable)
	}
	if final.Stats != baseline.Stats {
		t.Fatalf("seeded stats %+v != uninterrupted %+v", final.Stats, baseline.Stats)
	}
}

// TestSubmitImpliesWithCheckpointSeed is TestSubmitWithCheckpointSeed
// for an implies job, whose checkpoint pins the Theorem 2 reduction
// schema Σ ∪ {¬α}: the seed resumes on a store opened over a separately
// parsed and compiled copy of the schema, which derives a reduction
// schema of the same fingerprint, and finishes with the uninterrupted
// verdict and cumulative stats. A seed from another constraint's job pins
// another reduction schema and is refused at submit.
func TestSubmitImpliesWithCheckpointSeed(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	req := Request{Kind: KindImplies, Constraint: "C0_L0x0"}
	raw, baseline := killCheckpoint(t, src, req, 1000)
	seed := base64.StdEncoding.EncodeToString(raw)

	copyOf := parse(t, src)
	cs, err := core.Compile(copyOf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := open(t, Config{Dir: t.TempDir(), Schema: copyOf, Options: core.Options{Compiled: cs}, CheckpointEvery: 1})
	if _, _, err := s2.Submit(Request{Kind: KindImplies, Constraint: "C0_L0x1", Checkpoint: seed}); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Fatalf("Submit with another constraint's seed = %v, want ErrCheckpointMismatch", err)
	}
	if c := s2.Counters(); c.Submitted != 0 {
		t.Fatalf("refused seed counted as a submission: %+v", c)
	}
	seeded := req
	seeded.Checkpoint = seed
	st, created, err := s2.Submit(seeded)
	if err != nil || !created {
		t.Fatalf("Submit with seed = %+v, %v, %v", st, created, err)
	}
	if st.State != StateCheckpointed || st.Stats.Expansions == 0 {
		t.Fatalf("seeded job = %+v, want checkpointed with progress stats", st)
	}
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone || final.Result == nil || final.Result.Implied == nil {
		t.Fatalf("seeded job = %+v, want done with Implied", final)
	}
	if *final.Result.Implied != !baseline.Satisfiable {
		t.Fatalf("seeded verdict %v != uninterrupted %v", *final.Result.Implied, !baseline.Satisfiable)
	}
	if final.Stats != baseline.Stats {
		t.Fatalf("seeded stats %+v != uninterrupted %+v", final.Stats, baseline.Stats)
	}
}

// TestSubmitSeedSurvivesRestart: the seeded checkpoint is durable — a
// store crash after the seeded Submit recovers the job and resumes it
// from the seed, exactly like a locally-produced checkpoint.
func TestSubmitSeedSurvivesRestart(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	raw, baseline := killCheckpoint(t, src, satC0, 1000)

	dir := t.TempDir()
	s2, err := Open(Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s2.Submit(Request{
		Kind:       KindSat,
		Category:   "C0",
		Checkpoint: base64.StdEncoding.EncodeToString(raw),
	})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close() // never Started: the seed must already be on disk

	s3 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	got, err := s3.Status(st.ID)
	if err != nil || got.State != StateCheckpointed {
		t.Fatalf("recovered seeded job = %+v, %v, want checkpointed", got, err)
	}
	s3.Start()
	final := await(t, s3, st.ID)
	if final.State != StateDone || final.Stats != baseline.Stats {
		t.Fatalf("restarted seeded job = %+v, want done with stats %+v", final, baseline.Stats)
	}
}

func TestSubmitRejectsBadCheckpointSeeds(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	schema := parse(t, src)
	s := open(t, Config{Dir: t.TempDir(), Schema: schema})
	s.Start()

	// Not base64 at all.
	if _, _, err := s.Submit(Request{Kind: KindSat, Category: "C0", Checkpoint: "!!!"}); err == nil {
		t.Error("Submit accepted a non-base64 checkpoint seed")
	}
	// Base64, but not a checkpoint.
	junk := base64.StdEncoding.EncodeToString([]byte(`{"what":"ever"}`))
	if _, _, err := s.Submit(Request{Kind: KindSat, Category: "C0", Checkpoint: junk}); !errors.Is(err, core.ErrBadCheckpoint) {
		t.Errorf("Submit with junk seed = %v, want ErrBadCheckpoint", err)
	}
	// A real checkpoint from a different schema: fingerprint mismatch.
	otherRaw, _ := killCheckpoint(t, hardUnsatSrc(2, 3), satC0, 100)
	other := base64.StdEncoding.EncodeToString(otherRaw)
	if _, _, err := s.Submit(Request{Kind: KindSat, Category: "C0", Checkpoint: other}); !errors.Is(err, core.ErrCheckpointMismatch) {
		t.Errorf("Submit with foreign-schema seed = %v, want ErrCheckpointMismatch", err)
	}
	// Rejected submissions must not register jobs.
	if c := s.Counters(); c.Submitted != 0 {
		t.Errorf("rejected seeds counted as submissions: %+v", c)
	}
}

func TestCheckpointDataErrors(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc)})
	s.Start()
	if _, err := s.CheckpointData("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("CheckpointData(unknown) = %v, want ErrUnknownJob", err)
	}
	st, _, err := s.Submit(Request{Kind: KindSat, Category: "A"})
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, st.ID)
	if _, err := s.CheckpointData(st.ID); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("CheckpointData(done job) = %v, want ErrNoCheckpoint", err)
	}
}
