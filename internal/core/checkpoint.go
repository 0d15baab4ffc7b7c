package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"olapdim/internal/schema"
)

// CheckpointVersion is the wire version of Checkpoint; DecodeCheckpoint
// rejects other versions so a format change can never be misread as a
// search position.
const CheckpointVersion = 1

// ErrBadCheckpoint reports a checkpoint that is structurally unusable:
// wrong version, missing fields, or a decision path that does not replay
// against the schema it claims to belong to. Test with errors.Is.
var ErrBadCheckpoint = errors.New("core: malformed checkpoint")

// ErrCheckpointMismatch reports a well-formed checkpoint presented with
// the wrong schema or the wrong search options: resuming it would explore
// a different tree and could return a wrong verdict, so the resume is
// refused instead. Test with errors.Is.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match schema or options")

// Checkpoint is a resumable DIMSAT search position. The EXPAND recursion
// of Figure 6 is deterministic given the schema, the root, and the two
// pruning switches: at every frame the unexpanded category ctop and its
// candidate parent sets are derived from the schema alone, and the subset
// loop enumerates masks in increasing order. A position is therefore fully
// described by the decision stack — the mask chosen at each frame currently
// on the stack (Path) — plus the next mask to try in the innermost frame
// (Next) and the Stats accumulated so far. Resuming replays Path without
// re-counting work, then continues the enumeration exactly where the
// original run stopped.
//
// Schema pins the dimension schema by fingerprint and IntoPruning /
// StructurePruning pin the heuristics; ResumeSatisfiableContext refuses a
// checkpoint whose pins do not match (ErrCheckpointMismatch), because the
// decision stack is only meaningful against the identical search tree.
type Checkpoint struct {
	// Version is CheckpointVersion at capture time.
	Version int `json:"version"`
	// Schema is the fingerprint of the dimension schema searched.
	Schema string `json:"schema"`
	// Root is the category whose satisfiability was being decided.
	Root string `json:"root"`
	// IntoPruning records !Options.DisableIntoPruning at capture.
	IntoPruning bool `json:"intoPruning"`
	// StructurePruning records !Options.DisableStructurePruning.
	StructurePruning bool `json:"structurePruning"`
	// Path is the decision stack: the subset mask chosen at each EXPAND
	// frame between the root and the current position, outermost first.
	Path []uint64 `json:"path,omitempty"`
	// Next is the first mask to try in the frame below the last Path
	// entry (0 when the frame's enumeration has not started).
	Next uint64 `json:"next"`
	// Stats is the search effort accumulated up to this position; a
	// resumed run continues counting from here, so stats are monotonically
	// non-decreasing across suspend/resume cycles.
	Stats Stats `json:"stats"`
}

// Encode serializes the checkpoint as canonical JSON.
func (cp *Checkpoint) Encode() ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	}
	return json.Marshal(cp)
}

// DecodeCheckpoint parses and validates an encoded checkpoint. Unknown
// fields, trailing garbage, a wrong version, or missing pins are rejected
// with ErrBadCheckpoint; the caller is expected to have verified storage
// integrity (checksums) already — this guards the semantic layer.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cp Checkpoint
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data", ErrBadCheckpoint)
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// validate checks the structural invariants shared by decode and resume.
func (cp *Checkpoint) validate() error {
	switch {
	case cp == nil:
		return fmt.Errorf("%w: nil checkpoint", ErrBadCheckpoint)
	case cp.Version != CheckpointVersion:
		return fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, cp.Version, CheckpointVersion)
	case cp.Schema == "":
		return fmt.Errorf("%w: missing schema fingerprint", ErrBadCheckpoint)
	case cp.Root == "" || cp.Root == schema.All:
		return fmt.Errorf("%w: invalid root %q", ErrBadCheckpoint, cp.Root)
	case cp.Stats.Expansions < 0 || cp.Stats.Checks < 0 || cp.Stats.DeadEnds < 0:
		return fmt.Errorf("%w: negative stats", ErrBadCheckpoint)
	}
	return nil
}

// CheckpointSink receives periodic checkpoints during a search. A sink
// error aborts the run (returning the wrapped error together with the
// unsaved checkpoint in Result.Checkpoint): a job that cannot persist its
// progress must not pretend it is making durable progress.
type CheckpointSink func(*Checkpoint) error

// Checkpointing configures durable progress for a DIMSAT run (install in
// Options.Checkpoint):
//
//   - With Sink set and Every > 0, the search calls Sink every Every
//     EXPAND steps with a snapshot of its position, so a crash loses at
//     most Every expansions of progress.
//   - Whenever the struct is installed (even zero-valued), a run aborted
//     by context cancellation, an expired deadline, the MaxExpansions
//     budget, or an injected fault error captures its final position in
//     Result.Checkpoint alongside the typed error, making the abort
//     resumable instead of terminal.
//
// Injected panics (and real ones) unwind without a final capture — that is
// the crash the periodic Sink exists for.
type Checkpointing struct {
	// Every is the checkpoint period in EXPAND steps; <= 0 disables the
	// periodic sink (abort capture still happens).
	Every int
	// Sink persists one checkpoint; nil disables the periodic sink.
	Sink CheckpointSink
}

// ResumeSatisfiable is ResumeSatisfiableContext with a background context.
func ResumeSatisfiable(ds *DimensionSchema, cp *Checkpoint, opts Options) (Result, error) {
	return ResumeSatisfiableContext(context.Background(), ds, cp, opts)
}

// ResumeSatisfiableContext continues a suspended DIMSAT satisfiability
// search from cp, returning exactly what the uninterrupted run would have
// returned: the search replays the checkpoint's decision stack without
// re-counting work, seeds Stats from the checkpoint, and proceeds. The
// checkpoint must match ds (by fingerprint) and the pruning switches in
// opts, or the resume is refused with ErrCheckpointMismatch; a checkpoint
// whose decision stack does not replay cleanly is refused with
// ErrBadCheckpoint. A resumed run ignores opts.Cache (it answers for a
// position, not a fresh query) and can itself be budgeted, checkpointed,
// and resumed again — MaxExpansions bounds the cumulative Stats across
// all attempts, not each attempt separately.
func ResumeSatisfiableContext(ctx context.Context, ds *DimensionSchema, cp *Checkpoint, opts Options) (_ Result, err error) {
	defer recoverAsInternal(&err)
	if err := cp.validate(); err != nil {
		return Result{}, err
	}
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return Result{}, err
	}
	if fp := cs.Fingerprint(); fp != cp.Schema {
		return Result{}, fmt.Errorf("%w: schema fingerprint %.12s.. vs checkpoint %.12s..", ErrCheckpointMismatch, fp, cp.Schema)
	}
	if cp.IntoPruning == opts.DisableIntoPruning || cp.StructurePruning == opts.DisableStructurePruning {
		return Result{}, fmt.Errorf("%w: pruning switches differ (checkpoint into=%v structure=%v)",
			ErrCheckpointMismatch, cp.IntoPruning, cp.StructurePruning)
	}
	if !ds.G.HasCategory(cp.Root) {
		return Result{}, fmt.Errorf("%w: unknown root %q", ErrCheckpointMismatch, cp.Root)
	}
	ctx, cancel := withDeadline(ctx, opts.Deadline)
	defer cancel()
	s := acquireSearch(ctx, cs, cp.Root, opts)
	defer s.release()
	s.stats = cp.Stats
	s.walkFrom(cp.Path, cp.Next)
	// The sink measures this attempt's own work; the checkpoint's prior
	// stats were fed to a sink by the attempt that produced them.
	if opts.Effort != nil {
		att := s.stats
		att.Expansions -= cp.Stats.Expansions
		att.Checks -= cp.Stats.Checks
		att.DeadEnds -= cp.Stats.DeadEnds
		opts.Effort.add(att)
	}
	if s.err != nil {
		return Result{Stats: s.stats, Checkpoint: s.cp}, s.err
	}
	return Result{Satisfiable: s.witness != nil, Witness: s.witness, Stats: s.stats}, nil
}
