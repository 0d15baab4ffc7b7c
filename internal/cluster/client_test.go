package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"olapdim/internal/faults"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		want   attemptOutcome
	}{
		{"connect refused", errors.New("dial tcp: connection refused"), 0, outcomeFailover},
		{"429 shed", nil, http.StatusTooManyRequests, outcomeRetrySame},
		{"503 overloaded", nil, http.StatusServiceUnavailable, outcomeFailover},
		{"500 internal", nil, http.StatusInternalServerError, outcomeFailover},
		{"200 ok", nil, http.StatusOK, outcomeUsable},
		{"404 definitive", nil, http.StatusNotFound, outcomeUsable},
		{"422 reasoning error", nil, http.StatusUnprocessableEntity, outcomeUsable},
	}
	for _, c := range cases {
		if got := classify(c.err, c.status); got != c.want {
			t.Errorf("classify(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetryAfterWait(t *testing.T) {
	fallback := 250 * time.Millisecond
	cases := []struct {
		name   string
		header string
		want   time.Duration
	}{
		{"absent", "", fallback},
		{"well-formed", "3", 3 * time.Second},
		{"malformed word", "soon", fallback},
		{"malformed date-ish", "Tue, 29 Oct", fallback},
		{"negative", "-2", fallback},
		{"zero", "0", fallback},
		{"fractional", "1.5", fallback},
	}
	for _, c := range cases {
		h := http.Header{}
		if c.header != "" {
			h.Set("Retry-After", c.header)
		}
		if got := RetryAfterWait(h, fallback); got != c.want {
			t.Errorf("RetryAfterWait(%s=%q) = %v, want %v", c.name, c.header, got, c.want)
		}
	}
}

func TestRetryJitterDeterministicAndBounded(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 5; attempt++ {
		a := RetryJitter(base, "/sat?category=X", attempt)
		b := RetryJitter(base, "/sat?category=X", attempt)
		if a != b {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
		if a < base || a >= base+base/2 {
			t.Fatalf("jitter %v outside [%v, %v)", a, base, base+base/2)
		}
	}
	if RetryJitter(base, "k", 1) == RetryJitter(base, "k", 2) &&
		RetryJitter(base, "k", 2) == RetryJitter(base, "k", 3) {
		t.Fatal("jitter never varies across attempts")
	}
}

func TestSleepContextAbortsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := SleepContext(ctx, 5*time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cancelled sleep took %v, want immediate return", d)
	}
	if err := SleepContext(context.Background(), 0); err != nil {
		t.Fatalf("zero sleep: %v", err)
	}
}

func TestFailoverOnConnectRefusedAnd5xx(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer good.Close()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	refused := httptest.NewServer(http.HandlerFunc(nil))
	refusedURL := refused.URL
	refused.Close() // now nothing listens there

	wc := &workerClient{httpc: http.DefaultClient}
	for _, first := range []string{bad.URL, refusedURL} {
		res, attempts, failedOver, err := wc.forwardWithFailover(context.Background(),
			[]string{first, good.URL}, 0, http.MethodGet, "/x", nil, nil,
			forwardPolicy{baseBackoff: time.Millisecond, idempotent: true})
		if err != nil || res == nil || res.status != http.StatusOK {
			t.Fatalf("first=%s: res=%+v err=%v, want 200 from failover", first, res, err)
		}
		if res.worker != good.URL || !failedOver || attempts != 2 {
			t.Fatalf("first=%s: worker=%s failedOver=%v attempts=%d, want good worker on attempt 2",
				first, res.worker, failedOver, attempts)
		}
	}
}

func TestRetryAfterHonoredOn429ThenSuccess(t *testing.T) {
	var calls atomic.Int32
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer shedding.Close()

	wc := &workerClient{httpc: http.DefaultClient}
	start := time.Now()
	res, attempts, failedOver, err := wc.forwardWithFailover(context.Background(),
		[]string{shedding.URL}, 0, http.MethodGet, "/x", nil, nil,
		forwardPolicy{baseBackoff: time.Millisecond, idempotent: true})
	if err != nil || res == nil || res.status != http.StatusOK {
		t.Fatalf("res=%+v err=%v, want eventual 200", res, err)
	}
	if attempts != 2 || failedOver {
		t.Fatalf("attempts=%d failedOver=%v, want retry-same on one worker", attempts, failedOver)
	}
	// The 1-second Retry-After must have been honored (with jitter, so
	// at least the full second).
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retried after %v, Retry-After asked for 1s", waited)
	}
}

func TestShedBudgetRelays429(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer always.Close()
	wc := &workerClient{httpc: http.DefaultClient}
	res, _, _, err := wc.forwardWithFailover(context.Background(),
		[]string{always.URL}, 0, http.MethodGet, "/x", nil, nil,
		forwardPolicy{baseBackoff: time.Millisecond, idempotent: true})
	if err != nil || res == nil || res.status != http.StatusTooManyRequests {
		t.Fatalf("res=%+v err=%v, want the honest 429 relayed after the shed budget", res, err)
	}
	if res.header.Get("Retry-After") == "" {
		t.Fatal("relayed 429 lost its Retry-After header")
	}
}

// TestNonIdempotentNotRetriedAfterReachingWorker pins the mutation
// safety rule: once a non-idempotent request may have reached a worker,
// a failure surfaces instead of retrying on the next candidate.
func TestNonIdempotentNotRetriedAfterReachingWorker(t *testing.T) {
	var badCalls, goodCalls atomic.Int32
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		goodCalls.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer good.Close()

	wc := &workerClient{httpc: http.DefaultClient}
	res, attempts, _, _ := wc.forwardWithFailover(context.Background(),
		[]string{bad.URL, good.URL}, 0, http.MethodPost, "/jobs", nil, []byte(`{}`),
		forwardPolicy{baseBackoff: time.Millisecond, idempotent: false})
	if attempts != 1 || goodCalls.Load() != 0 {
		t.Fatalf("attempts=%d goodCalls=%d: non-idempotent request was retried", attempts, goodCalls.Load())
	}
	if res == nil || res.status != http.StatusInternalServerError {
		t.Fatalf("res=%+v, want the 500 surfaced", res)
	}

	// But an injected fault fires before the dial — the request provably
	// never left, so even a non-idempotent request may move on.
	inj := faults.New(faults.Rule{Site: faults.SiteClusterForward, Kind: faults.Error, On: []int{1}})
	wcf := &workerClient{httpc: http.DefaultClient, faults: inj}
	res, attempts, failedOver, err := wcf.forwardWithFailover(context.Background(),
		[]string{bad.URL, good.URL}, 0, http.MethodPost, "/jobs", nil, []byte(`{}`),
		forwardPolicy{baseBackoff: time.Millisecond, idempotent: false})
	if err != nil || res == nil || res.status != http.StatusOK || !failedOver || attempts != 2 {
		t.Fatalf("res=%+v attempts=%d failedOver=%v err=%v, want failover after pre-dial fault",
			res, attempts, failedOver, err)
	}
	if badCalls.Load() != 1 {
		t.Fatalf("bad worker dialed %d times, the injected fault should have skipped it", badCalls.Load())
	}
}

func TestRetryBudgetWindow(t *testing.T) {
	rb := newRetryBudget(3)
	now := time.Unix(2000, 0)
	for i := 0; i < 3; i++ {
		if !rb.allow(now) {
			t.Fatalf("budget refused retry %d of 3", i+1)
		}
	}
	if rb.allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("budget admitted a 4th retry inside the window")
	}
	// The window rolls: tokens refill a full second after the first use.
	if !rb.allow(now.Add(1100 * time.Millisecond)) {
		t.Fatal("budget refused a retry after the window rolled")
	}

	// Nil and non-positive-max budgets are unlimited.
	var nilRB *retryBudget
	if !nilRB.allow(now) {
		t.Fatal("nil budget refused a retry")
	}
	unlimited := newRetryBudget(0)
	for i := 0; i < 100; i++ {
		if !unlimited.allow(now) {
			t.Fatal("max<=0 budget refused a retry")
		}
	}
}

func TestHedgeWinsOnStragglerAndCancelsLoser(t *testing.T) {
	release := make(chan struct{})
	var slowDone atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			slowDone.Store(true)
			return
		}
		w.Write([]byte(`{"from":"slow"}`))
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"from":"fast"}`))
	}))
	defer fast.Close()

	wc := &workerClient{httpc: http.DefaultClient}
	res, hedged, hedgeWon, err := wc.hedgedForward(context.Background(), slow.URL, fast.URL,
		http.MethodGet, "/x", nil, nil, hedgePolicy{delay: 10 * time.Millisecond})
	if err != nil || res == nil || res.status != http.StatusOK {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if !hedged || !hedgeWon || res.worker != fast.URL {
		t.Fatalf("hedged=%v hedgeWon=%v worker=%s, want the hedge arm to win", hedged, hedgeWon, res.worker)
	}
	// The straggler's request context must be cancelled promptly.
	deadline := time.Now().Add(2 * time.Second)
	for !slowDone.Load() {
		if time.Now().After(deadline) {
			t.Fatal("losing arm's request was never cancelled")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHedgeFailedPrimaryPromotesImmediately(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusBadGateway)
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer good.Close()

	wc := &workerClient{httpc: http.DefaultClient}
	start := time.Now()
	res, hedged, hedgeWon, err := wc.hedgedForward(context.Background(), bad.URL, good.URL,
		http.MethodGet, "/x", nil, nil, hedgePolicy{delay: 5 * time.Second})
	if err != nil || res == nil || res.status != http.StatusOK || !hedged || !hedgeWon {
		t.Fatalf("res=%+v hedged=%v hedgeWon=%v err=%v", res, hedged, hedgeWon, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("promotion took %v, should not wait out the %v hedge delay", d, 5*time.Second)
	}
}

func TestHedgeSkippedWhenDeadlineTooTight(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer slow.Close()
	var hedgeCalls atomic.Int32
	spare := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hedgeCalls.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer spare.Close()

	wc := &workerClient{httpc: http.DefaultClient}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	// Remaining deadline (80ms) < delay (30ms) + minHeadroom (60ms):
	// hedging would only double load, so it must not launch.
	res, hedged, _, err := wc.hedgedForward(ctx, slow.URL, spare.URL,
		http.MethodGet, "/x", nil, nil, hedgePolicy{delay: 30 * time.Millisecond})
	if err != nil || res == nil {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if hedged || hedgeCalls.Load() != 0 {
		t.Fatalf("hedged=%v hedgeCalls=%d, want hedge skipped under a tight deadline", hedged, hedgeCalls.Load())
	}
}

// TestHedgeDoesNotLeakGoroutines pins the buffered-channel design:
// losing hedge arms must finish and exit even though nobody reads their
// result, across many hedged requests.
func TestHedgeDoesNotLeakGoroutines(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))

	base := runtime.NumGoroutine()
	wc := &workerClient{httpc: &http.Client{}}
	for i := 0; i < 50; i++ {
		res, _, _, err := wc.hedgedForward(context.Background(), slow.URL, fast.URL,
			http.MethodGet, "/x", nil, nil, hedgePolicy{delay: time.Millisecond})
		if err != nil || res == nil {
			t.Fatalf("request %d: res=%+v err=%v", i, res, err)
		}
	}
	close(release)
	slow.Close()
	fast.Close()
	wc.httpc.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
