package core

import (
	"sync/atomic"
	"time"
)

// This file is the core side of the observability layer (internal/obs):
// optional hooks that let a serving tier watch search effort and
// worker-pool activity without core importing obs. All hooks are
// nil-safe and cost nothing when absent.

// EffortSink accumulates the Stats of every DIMSAT run executed under an
// Options value carrying it — including the runs a batch surface fans
// out, and including aborted runs' partial stats. A request handler
// installs a fresh sink per request to measure that request's true
// search effort: cache hits add nothing (the work was done by an earlier
// request), so cached answers correctly report zero expansions.
// All methods are atomic and nil-safe.
type EffortSink struct {
	expansions atomic.Int64
	checks     atomic.Int64
	deadEnds   atomic.Int64
	runs       atomic.Int64
}

// add accumulates one run's stats; a nil sink discards.
func (e *EffortSink) add(st Stats) {
	if e == nil {
		return
	}
	e.expansions.Add(int64(st.Expansions))
	e.checks.Add(int64(st.Checks))
	e.deadEnds.Add(int64(st.DeadEnds))
	e.runs.Add(1)
}

// Stats snapshots the accumulated effort.
func (e *EffortSink) Stats() Stats {
	if e == nil {
		return Stats{}
	}
	return Stats{
		Expansions: int(e.expansions.Load()),
		Checks:     int(e.checks.Load()),
		DeadEnds:   int(e.deadEnds.Load()),
	}
}

// Runs returns how many DIMSAT runs fed the sink (cache hits excluded).
func (e *EffortSink) Runs() int64 {
	if e == nil {
		return 0
	}
	return e.runs.Load()
}

// PoolObserver watches the batch-surface worker pool (the per-bottom
// walks of the matrix and minimal sources, category sweeps, lint
// probes). Implementations
// must be safe for concurrent use; every callback sits on the fan-out
// hot path.
type PoolObserver interface {
	// BatchStart reports a fan-out of tasks beginning.
	BatchStart(tasks int)
	// BatchDone reports the fan-out finished; skipped is how many of its
	// tasks never started because the batch aborted early.
	BatchDone(skipped int)
	// TaskStart reports one task leaving the queue and starting.
	TaskStart()
	// TaskDone reports one task finishing after d, with its error.
	TaskDone(d time.Duration, err error)
}

// Fingerprint canonically identifies a dimension schema: the SHA-256 of
// its textual rendering (hierarchy plus constraints in order). It is the
// key the SatCache and checkpoint pinning use; the serving tier stamps
// it on traces and slow-search log lines so an operator can tell which
// schema a hot search ran against.
func Fingerprint(ds *DimensionSchema) string {
	return schemaFingerprint(ds)
}
