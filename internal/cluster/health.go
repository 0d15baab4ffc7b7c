package cluster

import (
	"sync"
	"time"
)

// healthState is a worker's debounced availability as the coordinator
// sees it.
type healthState int

const (
	stateUp healthState = iota
	stateDown
	// stateDraining marks a worker being removed by an operator: it
	// stays routable for reads already in flight but receives no new
	// traffic, while its jobs are handed off.
	stateDraining
)

func (s healthState) String() string {
	switch s {
	case stateUp:
		return "up"
	case stateDown:
		return "down"
	case stateDraining:
		return "draining"
	}
	return "unknown"
}

// healthTracker debounces per-worker health signals with hysteresis:
// a worker transitions up→down only after FailAfter consecutive
// failures and down→up only after RecoverAfter consecutive successes.
// A flapping worker — alternating one failure, one success — never
// accumulates either streak, so it never crosses a threshold and the
// ring is not thrashed by it. Both active /readyz probe outcomes and
// passive forwarding outcomes (transport errors, 5xx) feed the same
// streaks, so a worker failing real traffic is evicted without waiting
// for the next probe tick.
type healthTracker struct {
	failAfter    int
	recoverAfter int

	mu      sync.Mutex
	workers map[string]*workerHealth
	// onChange runs after mu is released whenever a worker's debounced
	// state changes.
	onChange func(worker string, from, to healthState)
}

type workerHealth struct {
	state     healthState
	failures  int // consecutive, zeroed by any success
	successes int // consecutive, zeroed by any failure
	lastErr   string
	since     time.Time
}

func newHealthTracker(failAfter, recoverAfter int, onChange func(worker string, from, to healthState)) *healthTracker {
	if failAfter < 1 {
		failAfter = 3
	}
	if recoverAfter < 1 {
		recoverAfter = 2
	}
	return &healthTracker{
		failAfter:    failAfter,
		recoverAfter: recoverAfter,
		workers:      map[string]*workerHealth{},
		onChange:     onChange,
	}
}

// add registers a worker, initially up: a cold coordinator assumes its
// configured workers are serving and lets the first probes or forwards
// correct it, rather than refusing all traffic until a probe round
// completes.
func (t *healthTracker) add(worker string, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.workers[worker]; !ok {
		t.workers[worker] = &workerHealth{state: stateUp, since: now}
	}
}

// observe records one success or failure signal for worker and returns
// the (from, to) states — equal when nothing changed. msg annotates
// failures for the status endpoint.
func (t *healthTracker) observe(worker string, ok bool, msg string, now time.Time) (from, to healthState) {
	t.mu.Lock()
	w, known := t.workers[worker]
	if !known {
		t.mu.Unlock()
		return stateUp, stateUp
	}
	from, to = w.state, w.state
	if ok {
		w.failures = 0
		w.successes++
		w.lastErr = ""
		if w.state == stateDown && w.successes >= t.recoverAfter {
			w.state, to = stateUp, stateUp
			w.since = now
		}
	} else {
		w.successes = 0
		w.failures++
		w.lastErr = msg
		if w.state == stateUp && w.failures >= t.failAfter {
			w.state, to = stateDown, stateDown
			w.since = now
		}
	}
	cb := t.onChange
	t.mu.Unlock()
	if cb != nil && from != to {
		cb(worker, from, to)
	}
	return from, to
}

// drain marks a worker draining (idempotent; a down worker can also be
// drained so its jobs are reassigned from mirrors).
func (t *healthTracker) drain(worker string, now time.Time) (from healthState, ok bool) {
	t.mu.Lock()
	w, known := t.workers[worker]
	if !known || w.state == stateDraining {
		t.mu.Unlock()
		return stateUp, false
	}
	from = w.state
	w.state = stateDraining
	w.since = now
	cb := t.onChange
	t.mu.Unlock()
	if cb != nil {
		cb(worker, from, stateDraining)
	}
	return from, true
}

// state returns worker's current debounced state (up for unknown
// workers, matching add's optimism).
func (t *healthTracker) state(worker string) healthState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w, ok := t.workers[worker]; ok {
		return w.state
	}
	return stateUp
}

// healthy reports whether worker should receive new traffic.
func (t *healthTracker) healthy(worker string) bool { return t.state(worker) == stateUp }

// snapshot returns a copy of every worker's health for the status
// endpoint.
func (t *healthTracker) snapshot() map[string]workerHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]workerHealth, len(t.workers))
	for name, w := range t.workers {
		out[name] = *w
	}
	return out
}

// countHealthy returns how many workers are up.
func (t *healthTracker) countHealthy() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, w := range t.workers {
		if w.state == stateUp {
			n++
		}
	}
	return n
}
