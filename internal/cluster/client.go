package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"olapdim/internal/faults"
	"olapdim/internal/obs"
)

// attemptOutcome classifies one forward attempt for the failover loop.
type attemptOutcome int

const (
	// outcomeUsable means the response must be relayed to the client:
	// a success, or a definitive client-visible answer (4xx — including
	// 429 after its backoff budget, and the reasoning 422s) the next
	// worker would only repeat.
	outcomeUsable attemptOutcome = iota
	// outcomeRetrySame means the same worker asked us to wait and try
	// again (429 with capacity expected back): honor Retry-After, do
	// not fail over — the shard still owns the key and its cache.
	outcomeRetrySame
	// outcomeFailover means the worker is unusable for this request
	// (connection refused/reset, 5xx): try the next ring candidate.
	outcomeFailover
)

// forwardResult is one worker's materialized response. Bodies are read
// fully before a result is returned, so losing hedge arms can close
// their connections without racing the relay.
type forwardResult struct {
	worker string
	status int
	header http.Header
	body   []byte
}

// classify maps a transport error or status code to the failover
// decision. 429 is the shed contract from internal/server: the worker
// is healthy but at capacity, so it is a retry-same (with Retry-After)
// rather than a failover — failing over would defeat shard affinity and
// stampede the neighbor. 5xx and transport errors mean this worker
// cannot answer; anything else is a definitive answer to relay.
func classify(err error, status int) attemptOutcome {
	switch {
	case err != nil:
		return outcomeFailover
	case status == http.StatusTooManyRequests:
		return outcomeRetrySame
	case status >= 500:
		return outcomeFailover
	default:
		return outcomeUsable
	}
}

// workerClient forwards one request to one worker and materializes the
// response. It is deliberately small: retry, failover and hedging
// policy live in forwardWithFailover / hedgedForward so the policies
// are testable against an httptest worker without a coordinator.
type workerClient struct {
	httpc  *http.Client
	faults *faults.Injector
	// spans, when non-nil, receives one "cluster.forward" client span per
	// attempt whose context carries a sampled trace. Hedge arms run do()
	// concurrently, so the traceparent is injected into each attempt's own
	// request — the shared header map is never mutated.
	spans *obs.SpanStore
	// onAttempt, when set, observes every forward attempt: the worker,
	// its wall-clock latency, the transport error (nil on an HTTP
	// answer) and the status code (0 on a transport error). The
	// coordinator hangs its forward metrics and passive health signals
	// here so every code path — failover, hedge arms, job polls —
	// feeds them uniformly.
	onAttempt func(worker string, d time.Duration, err error, status int)
	// budget, when non-nil, rate-limits retries (attempts beyond a
	// request's first, hedge arms included) across all requests sharing
	// this client. onBudgetExhausted observes each denied retry.
	budget            *retryBudget
	onBudgetExhausted func()
}

// errInjectedForward wraps a fault-injection activation at
// cluster.forward so tests can distinguish it from real transport
// errors if needed; classify treats both as failover.
var errInjectedForward = errors.New("cluster: injected forward fault")

// do sends method path?query with body to worker (a base URL) and
// reads the full response. A faults hit at cluster.forward before the
// attempt simulates an unreachable shard.
func (wc *workerClient) do(ctx context.Context, worker, method, pathAndQuery string, header http.Header, body []byte) (res *forwardResult, err error) {
	start := time.Now()
	var fwdSpan *obs.Span
	var child obs.SpanContext
	if parent, ok := obs.SpanFrom(ctx); ok && parent.Sampled {
		fwdSpan, child = obs.StartSpan(parent, "cluster.forward", "client")
	}
	defer func() {
		if wc.onAttempt != nil {
			status := 0
			if res != nil {
				status = res.status
			}
			wc.onAttempt(worker, time.Since(start), err, status)
		}
		if fwdSpan != nil {
			fwdSpan.SetAttr("worker", worker)
			fwdSpan.SetAttr("path", pathAndQuery)
			outcome := "ok"
			switch {
			case errors.Is(err, context.Canceled):
				// A cancelled attempt is almost always a losing hedge arm
				// (or an abandoned client); its span is recorded as
				// cancelled, not failed, so traces distinguish the two.
				outcome = "cancelled"
			case err != nil:
				outcome = "error"
			case res != nil && res.status >= 500:
				outcome = "error"
			}
			if res != nil {
				fwdSpan.SetAttr("status", strconv.Itoa(res.status))
			}
			fwdSpan.Finish(outcome)
			wc.spans.Add(fwdSpan)
		}
	}()
	if ferr := wc.faults.Hit(faults.SiteClusterForward); ferr != nil {
		return nil, fmt.Errorf("%w: %v", errInjectedForward, ferr)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, worker+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if child.Valid() {
		req.Header.Set(obs.HeaderTraceparent, child.Traceparent())
	}
	resp, err := wc.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &forwardResult{worker: worker, status: resp.StatusCode, header: resp.Header, body: b}, nil
}

const (
	// maxAttempts caps one request's forward attempts across all
	// candidates, the arms of a hedged read included.
	maxAttempts = 3
	// maxSheds caps how many 429-retry-same rounds one worker gets
	// before its shed answer is relayed as definitive.
	maxSheds = 2
)

// forwardPolicy bounds a failover loop.
type forwardPolicy struct {
	// baseBackoff seeds the exponential between-candidate backoff and
	// the Retry-After fallback for malformed headers.
	baseBackoff time.Duration
	// idempotent gates retrying after a request may have reached a
	// worker. Non-idempotent mutations without an idempotency key must
	// set this false: they are only retried when the attempt provably
	// never left (the fault injector refused it before the dial).
	idempotent bool
}

// errRetryBudget reports a walk that the retry budget stopped before it
// made an attempt of its own.
var errRetryBudget = errors.New("cluster: retry budget exhausted")

// forwardWithFailover walks candidates in ring order applying the
// policy, starting at candidates[from]: each candidate before it has
// already taken one attempt (the arms of a hedged read), and those
// attempts count against maxAttempts. It reports the usable result, the
// request's attempts in all (for the retry counter) and whether any
// candidate beyond the first was tried (for the failover counter). When
// every candidate is exhausted it returns the last error or unusable
// result.
func (wc *workerClient) forwardWithFailover(ctx context.Context, candidates []string, from int, method, pathAndQuery string, header http.Header, body []byte, pol forwardPolicy) (res *forwardResult, attempts int, failedOver bool, err error) {
	if pol.baseBackoff <= 0 {
		pol.baseBackoff = 50 * time.Millisecond
	}
	if len(candidates) == 0 {
		return nil, 0, false, errors.New("cluster: no candidate workers")
	}
	attempts = from
	var lastErr error
	var lastRes *forwardResult
walk:
	for ci := from; ci < len(candidates) && attempts < maxAttempts; ci++ {
		worker := candidates[ci]
		sheds := 0
		for attempts < maxAttempts {
			if attempts >= 1 && !wc.retryToken() {
				// Retry budget exhausted coordinator-wide: relay the best
				// answer already in hand rather than amplify the storm.
				if lastRes == nil && lastErr == nil {
					lastErr = errRetryBudget
				}
				break walk
			}
			attempts++
			r, derr := wc.do(ctx, worker, method, pathAndQuery, header, body)
			status := 0
			if r != nil {
				status = r.status
			}
			switch classify(derr, status) {
			case outcomeUsable:
				return r, attempts, ci > 0, nil
			case outcomeRetrySame:
				lastRes, lastErr = r, nil
				sheds++
				if sheds >= maxSheds || attempts >= maxAttempts {
					// Out of shed budget: the 429 (with its Retry-After)
					// is the honest answer; relay it so the client's own
					// backoff takes over.
					return r, attempts, ci > 0, nil
				}
				wait := RetryAfterWait(r.header, pol.baseBackoff)
				if serr := SleepContext(ctx, RetryJitter(wait, pathAndQuery, attempts)); serr != nil {
					return nil, attempts, ci > 0, serr
				}
			case outcomeFailover:
				lastRes, lastErr = r, derr
				if !pol.idempotent && !errors.Is(derr, errInjectedForward) {
					// The request may have reached the worker; without an
					// idempotency key a retry could apply the mutation
					// twice. Surface the failure instead.
					return r, attempts, ci > 0, derr
				}
				if ci+1 < len(candidates) && attempts < maxAttempts {
					wait := pol.baseBackoff << uint(min(attempts-1, 4))
					if serr := SleepContext(ctx, RetryJitter(wait, pathAndQuery, attempts)); serr != nil {
						return nil, attempts, true, serr
					}
				}
				continue walk
			}
		}
	}
	if lastRes != nil {
		return lastRes, attempts, attempts > 1, nil
	}
	return nil, attempts, attempts > 1, lastErr
}

// retryToken draws one token from the retry budget for an attempt beyond
// a request's first, and counts a denial.
func (wc *workerClient) retryToken() bool {
	if wc.budget.allow(time.Now()) {
		return true
	}
	if wc.onBudgetExhausted != nil {
		wc.onBudgetExhausted()
	}
	return false
}

// retryBudgetWindow is the period over which the retry budget counts its
// tokens before they refill.
const retryBudgetWindow = time.Second

// retryBudget is a coordinator-wide cap on forward retries (attempts
// beyond a request's first, hedge arms included) per retryBudgetWindow:
// with N clients hammering a partitioned shard, per-request retry policy
// alone multiplies load on the survivors by maxAttempts — the budget
// turns that amplification into a constant. Nil or non-positive max
// means unlimited.
type retryBudget struct {
	mu    sync.Mutex
	max   int
	start time.Time
	used  int
}

func newRetryBudget(max int) *retryBudget {
	return &retryBudget{max: max}
}

// allow consumes one retry token, rolling the window when it expires.
func (rb *retryBudget) allow(now time.Time) bool {
	if rb == nil || rb.max <= 0 {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.start.IsZero() || now.Sub(rb.start) >= retryBudgetWindow {
		rb.start = now
		rb.used = 0
	}
	if rb.used >= rb.max {
		return false
	}
	rb.used++
	return true
}

// hedgePolicy tunes straggler hedging for idempotent reads.
type hedgePolicy struct {
	// delay is how long the primary gets before the hedge launches.
	delay time.Duration
	// minHeadroom is the minimum remaining request deadline for a hedge
	// to be worth launching; below it the hedge could not finish either,
	// so launching one only doubles load during a brownout.
	minHeadroom time.Duration
}

// hedgedForward races primary against one hedge arm for an idempotent
// read. The primary starts immediately; if it has not produced a usable
// response within pol.delay (and the deadline leaves minHeadroom), the
// same request is sent to hedge and the first usable response wins,
// canceling the loser. A non-usable primary answer (5xx, transport
// error) promotes the hedge immediately rather than waiting out the
// delay. The hedge arm is a retry: it launches only when the retry
// budget grants it a token. Results flow through a channel with capacity
// for both arms so the loser's goroutine never blocks — the leak-check
// tests pin this.
func (wc *workerClient) hedgedForward(ctx context.Context, primary, hedge, method, pathAndQuery string, header http.Header, body []byte, pol hedgePolicy) (res *forwardResult, hedged, hedgeWon bool, err error) {
	type armResult struct {
		res   *forwardResult
		err   error
		hedge bool
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan armResult, 2)
	launch := func(worker string, isHedge bool) {
		r, derr := wc.do(ctx, worker, method, pathAndQuery, header, body)
		results <- armResult{r, derr, isHedge}
	}
	go launch(primary, false)

	if pol.delay <= 0 {
		pol.delay = 20 * time.Millisecond
	}
	if pol.minHeadroom <= 0 {
		pol.minHeadroom = 2 * pol.delay
	}
	canHedge := hedge != "" && hedge != primary
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < pol.delay+pol.minHeadroom {
		canHedge = false
	}
	pending := 1
	// startHedge considers the hedge once: it launches when the budget
	// grants a token and the cluster.hedge fault site lets it through.
	startHedge := func() {
		canHedge = false
		if !wc.retryToken() || wc.faults.Hit(faults.SiteClusterHedge) != nil {
			return
		}
		hedged = true
		pending++
		go launch(hedge, true)
	}

	timer := time.NewTimer(pol.delay)
	defer timer.Stop()
	var lastErr error
	var lastRes *forwardResult
	for {
		select {
		case <-timer.C:
			if canHedge {
				startHedge()
			}
		case ar := <-results:
			pending--
			status := 0
			if ar.res != nil {
				status = ar.res.status
			}
			if ar.err == nil && classify(nil, status) != outcomeFailover {
				// Usable (or at least definitive) answer: first one wins.
				return ar.res, hedged, ar.hedge, nil
			}
			lastRes, lastErr = ar.res, ar.err
			if canHedge {
				// Primary failed before the delay elapsed: promote the
				// hedge now instead of waiting.
				startHedge()
			}
			if pending == 0 {
				if lastRes != nil {
					return lastRes, hedged, false, nil
				}
				return nil, hedged, false, lastErr
			}
		case <-ctx.Done():
			return nil, hedged, false, ctx.Err()
		}
	}
}
