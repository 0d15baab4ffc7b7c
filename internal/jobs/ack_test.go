package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
)

// files returns the names in dir matching pattern.
func files(t *testing.T, dir, pattern string) []string {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestShortJobWrittenOnce pins the one-write path: on a started store a
// job that finishes before its first checkpoint is written once, already
// done, and Submit returns that result.
func TestShortJobWrittenOnce(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindSat, Category: "A"},
		{Kind: KindImplies, Constraint: "A.B"},
	} {
		t.Run(req.Kind, func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.New()
			s := open(t, Config{Dir: dir, Schema: parse(t, diamondSrc), Options: core.Options{Faults: inj}})
			s.Start()
			st, created, err := s.Submit(req)
			if err != nil || !created {
				t.Fatalf("Submit = %+v, %v, %v", st, created, err)
			}
			if st.State != StateDone || st.Result == nil || st.Attempts != 1 {
				t.Fatalf("Submit returned %+v, want done with its result after one attempt", st)
			}
			if req.Kind == KindSat && (st.Result.Satisfiable == nil || st.Result.Witness == "") {
				t.Errorf("sat result %+v, want satisfiable with a witness", st.Result)
			}
			if req.Kind == KindImplies && st.Result.Implied == nil {
				t.Errorf("implies result %+v, want Implied set", st.Result)
			}
			if n := inj.Hits(faults.SiteJobsFsync); n != 1 {
				t.Errorf("durable writes = %d, want 1", n)
			}
			if got := files(t, dir, "*.job"); len(got) != 1 {
				t.Errorf("job records = %v, want one", got)
			}
			if got := files(t, dir, "*.ckpt"); len(got) != 0 {
				t.Errorf("checkpoints = %v, want none", got)
			}
			if got, err := s.Status(st.ID); err != nil || got.State != StateDone || got.Stats != st.Stats {
				t.Errorf("Status = %+v, %v, want the submitted result", got, err)
			}
			if c := s.Counters(); c.Submitted != 1 || c.Done != 1 {
				t.Errorf("counters = %+v, want Submitted=1 Done=1", c)
			}
		})
	}
}

// TestLongJobAcksAfterFirstCheckpoint: a job still searching at its first
// checkpoint acks as running once that checkpoint and a running record
// are durable, and a kill after the ack recovers it from the checkpoint.
func TestLongJobAcksAfterFirstCheckpoint(t *testing.T) {
	src := hardUnsatSrc(3, 2)
	baseline, err := core.Satisfiable(parse(t, src), "C0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s1, err := Open(Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	st, _, err := s1.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Stats.Expansions < 1 || st.Attempts != 1 {
		t.Fatalf("Submit returned %+v, want running after its first checkpoint", st)
	}
	if _, err := ReadSnapshotFile(filepath.Join(dir, st.ID+".job")); err != nil {
		t.Fatalf("job record not durable at the ack: %v", err)
	}
	if _, err := ReadSnapshotFile(filepath.Join(dir, st.ID+".ckpt")); err != nil {
		t.Fatalf("checkpoint not durable at the ack: %v", err)
	}
	s1.Kill()

	s2 := open(t, Config{Dir: dir, Schema: parse(t, src), CheckpointEvery: 1})
	got, err := s2.Status(st.ID)
	if err != nil || got.State != StateCheckpointed {
		t.Fatalf("recovered job = %+v, %v, want checkpointed", got, err)
	}
	s2.Start()
	final := await(t, s2, st.ID)
	if final.State != StateDone || *final.Result.Satisfiable != baseline.Satisfiable || final.Stats != baseline.Stats {
		t.Fatalf("recovered job = %+v, want done with the uninterrupted %+v", final, baseline.Stats)
	}

	// Uninterrupted, the same job is one attempt and no resume.
	s3 := open(t, Config{Dir: t.TempDir(), Schema: parse(t, src), CheckpointEvery: 1})
	s3.Start()
	st3, _, err := s3.Submit(Request{Kind: KindSat, Category: "C0"})
	if err != nil {
		t.Fatal(err)
	}
	final = await(t, s3, st3.ID)
	if final.State != StateDone || final.Attempts != 1 || final.Stats != baseline.Stats {
		t.Fatalf("uninterrupted job = %+v, want done in one attempt with %+v", final, baseline.Stats)
	}
	if c := s3.Counters(); c.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0", c.Resumed)
	}
}

// slots is a test admission hook with n execution slots.
type slots chan struct{}

func (c slots) acquire(ctx context.Context, wait bool) (func(), bool) {
	if !wait {
		select {
		case c <- struct{}{}:
			return func() { <-c }, true
		default:
			return nil, false
		}
	}
	select {
	case c <- struct{}{}:
		return func() { <-c }, true
	case <-ctx.Done():
		return nil, false
	}
}

// TestSubmitNeverWaitsNorHangs covers every way a submit's wait ends. A
// submit that finds no free slot answers pending at once. A submit
// waiting on its job's first attempt ends when the job is cancelled,
// the store closes or is killed, the attempt dies by an injected panic
// before any write, or the first write fails — either with a durable
// state that the job's record on disk confirms, or with ErrStorage and
// no job, idempotency key or checkpoint left.
func TestSubmitNeverWaitsNorHangs(t *testing.T) {
	slow := faults.Rule{Site: faults.SiteExpand, Kind: faults.Latency, Every: 1, Delay: time.Millisecond}
	for _, tc := range []struct {
		name  string
		rules []faults.Rule
		short bool                 // a diamond job instead of the slow hard one
		end   func(*Store, string) // ends the wait of the submit of job id
		want  State                // the acked state; "" wants ErrStorage
	}{
		{name: "cancel", rules: []faults.Rule{slow}, end: func(s *Store, id string) { s.Cancel(id) }, want: StateCancelled},
		{name: "close", rules: []faults.Rule{slow}, end: func(s *Store, _ string) { s.Close() }, want: StateCheckpointed},
		{name: "kill", rules: []faults.Rule{slow}, end: func(s *Store, _ string) { s.Kill() }},
		{name: "panic", rules: []faults.Rule{slow, {Site: faults.SiteExpand, Kind: faults.Panic, On: []int{20}}}},
		{name: "first write fails", short: true, rules: []faults.Rule{{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrNoSpace, On: []int{1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.New(tc.rules...)
			src, cat := hardUnsatSrc(3, 2), "C0"
			if tc.short {
				src, cat = diamondSrc, "A"
			}
			// Checkpoints far apart keep the slow job's submit waiting.
			s := open(t, Config{Dir: dir, Schema: parse(t, src), Options: core.Options{Faults: inj}, CheckpointEvery: 1 << 30})
			s.Start()
			type answer struct {
				st  Status
				err error
			}
			done := make(chan answer, 1)
			go func() {
				st, _, err := s.Submit(Request{Kind: KindSat, Category: cat, IdempotencyKey: "k"})
				done <- answer{st, err}
			}()
			if tc.end != nil {
				for inj.Hits(faults.SiteExpand) < 10 {
					time.Sleep(time.Millisecond)
				}
				go tc.end(s, jobID(0))
			}
			var a answer
			select {
			case a = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("submit still waiting after 10s")
			}
			if tc.want == "" {
				if !errors.Is(a.err, ErrStorage) {
					t.Fatalf("Submit = %+v, %v, want ErrStorage", a.st, a.err)
				}
				if left := append(files(t, dir, "*.job"), files(t, dir, "*.ckpt")...); len(left) != 0 {
					t.Errorf("refused submit left %v", left)
				}
				s.Kill()
				s2 := open(t, Config{Dir: dir, Schema: parse(t, src)})
				if _, created, err := s2.Submit(Request{Kind: KindSat, Category: cat, IdempotencyKey: "k"}); err != nil || !created {
					t.Errorf("resubmit with the refused key: created=%v, %v, want a new job", created, err)
				}
				return
			}
			if a.err != nil || a.st.State != tc.want {
				t.Fatalf("Submit = %+v, %v, want %s", a.st, a.err, tc.want)
			}
			s.Close()
			payload, err := ReadSnapshotFile(filepath.Join(dir, a.st.ID+".job"))
			if err != nil {
				t.Fatalf("acked job has no durable record: %v", err)
			}
			s2 := open(t, Config{Dir: dir, Schema: parse(t, src)})
			got, err := s2.Status(a.st.ID)
			if err != nil || (got.State != tc.want && !(tc.want == StateCheckpointed && got.State == StatePending)) {
				t.Errorf("record on disk %s reads back %+v, %v, want %s", payload, got, err, tc.want)
			}
		})
	}

	t.Run("no free slot", func(t *testing.T) {
		held := make(slots, 1)
		release, _ := held.acquire(context.Background(), false)
		s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc), Acquire: held.acquire})
		s.Start()
		start := time.Now()
		st, _, err := s.Submit(Request{Kind: KindSat, Category: "A"})
		if err != nil || st.State != StatePending {
			t.Fatalf("Submit with every slot held = %+v, %v, want pending", st, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("Submit with every slot held took %s", d)
		}
		release()
		if final := await(t, s, st.ID); final.State != StateDone {
			t.Fatalf("queued job = %+v, want done once a slot freed", final)
		}
	})
}

// TestFinishedJobReads covers reading a job off the heap: an unknown or
// malformed ID touches no file, one failed read is retried, two are
// ErrStorage (never an unknown job, never a quarantine), the listing
// holds every job, and a job whose terminal write failed stays in memory.
func TestFinishedJobReads(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New()
	s := open(t, Config{Dir: dir, Schema: parse(t, diamondSrc), Options: core.Options{Faults: inj}})
	s.Start()
	var ids []string
	for _, cat := range []string{"A", "B", "C"} {
		st, _, err := s.Submit(Request{Kind: KindSat, Category: cat})
		if err != nil || st.State != StateDone {
			t.Fatalf("Submit(%s) = %+v, %v", cat, st, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range []string{"j000003", "j999999", "j1", "../x", "", "x"} {
		if _, err := s.Status(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("Status(%q) = %v, want ErrUnknownJob", id, err)
		}
	}
	if n := inj.Hits(faults.SiteSnapshotRead); n != 0 {
		t.Errorf("unknown IDs read %d snapshots, want none", n)
	}
	if err := inj.Arm(faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Error, On: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Status(ids[0]); err != nil || st.State != StateDone {
		t.Errorf("Status after one failed read = %+v, %v, want done", st, err)
	}
	if err := inj.Arm(faults.Rule{Site: faults.SiteSnapshotRead, Kind: faults.Corrupt, On: []int{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Status(ids[1]); !errors.Is(err, ErrStorage) || errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status after two failed reads = %v, want ErrStorage", err)
	}
	if got := files(t, dir, "*.corrupt"); len(got) != 0 {
		t.Errorf("a failed read quarantined %v", got)
	}
	all, err := s.Jobs()
	if err != nil || len(all) != 3 {
		t.Fatalf("Jobs = %+v, %v, want the 3 jobs", all, err)
	}
	for i, st := range all {
		if st.ID != ids[i] || st.State != StateDone {
			t.Errorf("Jobs[%d] = %+v, want %s done", i, st, ids[i])
		}
	}

	// A job whose terminal write fails keeps its state in memory.
	inj.DisarmSite(faults.SiteSnapshotRead)
	s2 := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc), Options: core.Options{Faults: inj}})
	st, _, err := s2.Submit(Request{Kind: KindSat, Category: "A"}) // unstarted: written pending
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(faults.Rule{Site: faults.SiteJobsFsync, Kind: faults.Error, Err: faults.ErrNoSpace}); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	final := await(t, s2, st.ID)
	inj.DisarmSite(faults.SiteJobsFsync)
	reads := inj.Hits(faults.SiteSnapshotRead)
	if got, err := s2.Status(st.ID); err != nil || got.State != final.State || !final.State.Terminal() {
		t.Errorf("Status = %+v, %v, want the terminal state %s from memory", got, err, final.State)
	}
	if inj.Hits(faults.SiteSnapshotRead) != reads {
		t.Error("a job whose terminal write failed was read from disk")
	}
	if _, err := os.Stat(filepath.Join(s2.dir, st.ID+".job")); err != nil {
		t.Fatalf("pending record missing: %v", err)
	}
}

// TestConcurrentSubmitsShareKeys submits from many goroutines at once,
// four idempotency keys over two execution slots, so first attempts,
// queued jobs, waiting duplicates, reads and cancels overlap. Every key
// names one job, and every returned job reads back.
func TestConcurrentSubmitsShareKeys(t *testing.T) {
	s := open(t, Config{Dir: t.TempDir(), Schema: parse(t, diamondSrc), Acquire: make(slots, 2).acquire})
	s.Start()
	ids := make([]string, 16)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _, err := s.Submit(Request{Kind: KindSat, Category: "A", IdempotencyKey: fmt.Sprint("k", i%4)})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
			if _, err := s.Status(st.ID); err != nil {
				t.Errorf("Status(%s): %v", st.ID, err)
			}
			if i%5 == 0 {
				s.Cancel(st.ID)
			}
			if _, err := s.Jobs(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if id != ids[i%4] {
			t.Errorf("submit %d with key k%d got %s, another got %s", i, i%4, id, ids[i%4])
		}
	}
	if c := s.Counters(); c.Submitted != 4 {
		t.Errorf("Submitted = %d, want one per key", c.Submitted)
	}
	for _, id := range ids[:4] {
		if st := await(t, s, id); !st.State.Terminal() {
			t.Errorf("job %s = %+v", id, st)
		}
	}
}
