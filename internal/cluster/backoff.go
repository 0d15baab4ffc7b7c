// Package cluster turns N independent dimsatd workers into one sharded
// reasoning service. A Coordinator is an HTTP front end that routes each
// read of internal/api's table to the worker owning the ring key of its
// decoded arguments on a consistent-hash ring, so every shard's SatCache
// and jobs directory sees a stable slice of the keyspace; a read the
// table refuses is answered without a forward. The routing is
// robustness-first:
//
//   - Worker health is tracked from periodic /readyz probes plus the
//     passive error signals of forwarded traffic, debounced with
//     hysteresis so a flapping worker does not thrash the ring.
//   - Connection failures and 5xx answers fail over to the next ring
//     candidate under a bounded, context-abortable backoff; a worker's
//     429 Retry-After hint is honored before the next attempt. Job
//     submissions are only retried under a coordinator-minted
//     idempotency key, never blindly.
//   - Straggling reads are hedged: if the owning worker has not answered
//     within the hedge delay (and the request deadline leaves room), the
//     same read is raced against the next candidate and the first usable
//     response wins, with the loser's request canceled.
//   - Durable jobs survive their worker: the coordinator tracks every
//     job a worker accepted (a worker's refusal is relayed as it is),
//     mirrors the worker's latest search checkpoint, and re-enqueues
//     the job — checkpoint attached — on the shard that now owns its
//     key when the worker dies or is drained, so the job resumes
//     elsewhere with a bit-identical result.
//
// See docs/OPERATIONS.md ("Running a sharded cluster") for the topology,
// the failure model, and the job-handoff contract.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"
)

// SleepContext sleeps for d unless ctx is done first, in which case it
// returns ctx.Err() immediately — a retry backoff must never outlive the
// request it is backing off for. A non-positive d returns nil at once
// (after a ctx check), so callers can pass computed waits unguarded.
func SleepContext(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryJitter spreads a retry wait over [wait, wait*1.5) with a
// deterministic fraction derived from key and attempt number: clients
// shed together do not retry in lockstep (no thundering herd on the
// Retry-After boundary), yet every run replays the identical schedule —
// the same reproducibility-first stance as the seeded fault injector.
func RetryJitter(wait time.Duration, key string, attempt int) time.Duration {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	frac := float64(h.Sum32()%1000) / 1000 // [0, 1)
	return wait + time.Duration(frac*float64(wait)/2)
}

// RetryAfterWait resolves the backoff a 429 response asks for: the
// Retry-After header in delta-seconds when present and parsable, else
// fallback. A malformed or non-positive header value means the server's
// hint is unusable, not that the client should hammer it — the fallback
// applies there too.
func RetryAfterWait(h http.Header, fallback time.Duration) time.Duration {
	if secs, err := strconv.Atoi(h.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return fallback
}
