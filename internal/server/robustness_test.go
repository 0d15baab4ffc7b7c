package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/paper"
)

// TestPanicContainedMidMatrix is the headline containment test: a panic
// injected mid-request must come back as a structured 500, the very next
// request must succeed, and /stats must count the contained failure. The
// process never dies. Two requests are poisoned: /categories in its 7th
// worker-pool task (one task per category of the location schema, seven
// in all), and /matrix in the 20th EXPAND step of its walk.
func TestPanicContainedMidMatrix(t *testing.T) {
	cases := []struct {
		path  string
		rule  faults.Rule
		check func(t *testing.T, ts *httptest.Server)
	}{
		{"/categories", faults.Rule{Site: faults.SitePoolTask, Kind: faults.Panic, On: []int{7}}, func(t *testing.T, ts *httptest.Server) {
			var cats []categoryInfo
			if code := get(t, ts, "/categories", &cats); code != 200 {
				t.Fatalf("categories after contained panic = %d, want 200", code)
			}
			if len(cats) != 7 || cats[len(cats)-1].Name != "Store" || !cats[len(cats)-1].Satisfiable {
				t.Errorf("recovered categories = %+v", cats)
			}
		}},
		{"/matrix", faults.Rule{Site: faults.SiteExpand, Kind: faults.Panic, On: []int{20}}, func(t *testing.T, ts *httptest.Server) {
			var m matrixResponse
			if code := get(t, ts, "/matrix", &m); code != 200 {
				t.Fatalf("matrix after contained panic = %d, want 200", code)
			}
			if !m.Complete || m.From["Country"]["City"] != "yes" {
				t.Errorf("recovered matrix = complete %v, cell %q", m.Complete, m.From["Country"]["City"])
			}
		}},
	}
	for _, c := range cases {
		s, err := NewWithConfig(paper.LocationSch(), Config{Options: core.Options{Faults: faults.New(c.rule)}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s)
		t.Cleanup(ts.Close)

		var e struct {
			Error string `json:"error"`
		}
		if code := get(t, ts, c.path, &e); code != http.StatusInternalServerError {
			t.Fatalf("poisoned %s status = %d, want 500", c.path, code)
		}
		if !strings.Contains(e.Error, "internal error") || !strings.Contains(e.Error, "injected panic") {
			t.Errorf("%s error body = %q, want structured internal error naming the panic", c.path, e.Error)
		}

		// The On-rule fired once and never again: the next request is clean.
		c.check(t, ts)

		if n := statNumber(t, statsOf(t, ts), "olapdim_contained_panics_total"); n < 1 {
			t.Errorf("%s: contained panics = %v, want >= 1", c.path, n)
		}
	}
}

// TestHandlerPanicContained exercises the outermost boundary: a panic
// escaping a handler itself (not the reasoner) is recovered by ServeHTTP,
// answered 500, counted, and the server keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	s, err := New(paper.LocationSch(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	if code := get(t, ts, "/boom", nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d, want 500", code)
	}
	if code := get(t, ts, "/healthz", nil); code != 200 {
		t.Errorf("healthz after handler panic = %d, want 200", code)
	}
	if n := statNumber(t, statsOf(t, ts), "olapdim_contained_panics_total"); n < 1 {
		t.Errorf("contained panics = %v, want >= 1", n)
	}
}

// TestShedLoadDeterministic drives concurrency past a one-slot semaphore
// with no queue: while a stalled request holds the slot, the next request
// is deterministically shed with 429 + Retry-After, /readyz reports
// overloaded, and after the dust settles no goroutines have leaked.
func TestShedLoadDeterministic(t *testing.T) {
	base := runtime.NumGoroutine()

	s, err := NewWithConfig(paper.LocationSch(), Config{
		MaxConcurrent: 1,
		MaxQueue:      -1, // no queue: slot busy => immediate shed
		RetryAfter:    2 * time.Second,
		Options: core.Options{
			Faults: faults.New(faults.Rule{
				Site: faults.SiteExpand, Kind: faults.Latency, On: []int{1}, Delay: 500 * time.Millisecond,
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	getCode := func(path string) (int, http.Header) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	slow := make(chan int, 1)
	go func() {
		code, _ := getCode("/sat?category=Store")
		slow <- code
	}()

	// Wait until the slow request holds the only slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.met.inflight.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	code, hdr := getCode("/sat?category=City")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want 2", got)
	}
	if code, _ := getCode("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz under load = %d, want 503", code)
	}
	// Non-reasoning endpoints bypass admission and keep answering.
	if code, _ := getCode("/healthz"); code != 200 {
		t.Errorf("healthz under load = %d, want 200", code)
	}

	if code := <-slow; code != 200 {
		t.Errorf("slow request status = %d, want 200", code)
	}
	// The slot release races the client seeing the response; poll briefly.
	deadline = time.Now().Add(2 * time.Second)
	for {
		if code, _ := getCode("/readyz"); code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("readyz never recovered after load")
			break
		}
		time.Sleep(time.Millisecond)
	}

	if n := statNumber(t, statsOf(t, ts), "olapdim_http_shed_total"); n < 1 {
		t.Errorf("shed = %v, want >= 1", n)
	}

	// Zero goroutine leaks: tear the server down and wait for the count
	// to settle back to the baseline.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	ts.Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at start, %d after settling", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueWaitExpiresToShed covers the queued path: with one slot and a
// one-deep queue bounded by a short wait, a queued request is shed with
// 429 once the wait expires while the slot stays busy.
func TestQueueWaitExpiresToShed(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     50 * time.Millisecond,
		Options: core.Options{
			Faults: faults.New(faults.Rule{
				Site: faults.SiteExpand, Kind: faults.Latency, On: []int{1}, Delay: time.Second,
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	slow := make(chan int, 1)
	go func() { slow <- get(t, ts, "/sat?category=Store", nil) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.met.inflight.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if code := get(t, ts, "/sat?category=City", nil); code != http.StatusTooManyRequests {
		t.Fatalf("queued request status = %d, want 429 after queue wait", code)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond {
		t.Errorf("shed after %v, want >= the 50ms queue wait", waited)
	}
	if code := <-slow; code != 200 {
		t.Errorf("slow request status = %d, want 200", code)
	}
}

// TestOversizedBodyRejected checks the request body limit: a POST past
// MaxBodyBytes answers 413 and a small body on the same server still works.
func TestOversizedBodyRejected(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{MaxBodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	huge := `{"constraint": "` + strings.Repeat("x", 200) + `"}`
	if code := post(t, ts, "/implies", huge, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", code)
	}
	if code := post(t, ts, "/implies", `{"constraint": "Store.Country"}`, nil); code != 200 {
		t.Errorf("small body status = %d, want 200", code)
	}
}

func TestHealthEndpoints(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	var ready readyzResponse
	if code := get(t, ts, "/readyz", &ready); code != 200 {
		t.Fatalf("readyz status = %d", code)
	}
	if ready.Status != "ready" {
		t.Errorf("readyz status field = %q, want ready", ready.Status)
	}
}

// TestMatrixPartialDegradationUnderBudget starves the matrix with a
// one-expansion budget: instead of the 503 a /sat request gets, /matrix
// answers 200 with every cell unknown and Complete false.
func TestMatrixPartialDegradationUnderBudget(t *testing.T) {
	s, err := NewWithConfig(paper.LocationSch(), Config{Options: core.Options{MaxExpansions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var m matrixResponse
	if code := get(t, ts, "/matrix", &m); code != 200 {
		t.Fatalf("matrix status = %d, want 200 (partial degradation)", code)
	}
	if m.Complete {
		t.Error("budget-starved matrix reported complete")
	}
	var unknown int
	for _, row := range m.From {
		for _, v := range row {
			if v == "unknown" {
				unknown++
			}
		}
	}
	if unknown == 0 {
		t.Error("no unknown cells in a budget-starved partial matrix")
	}
	// The same budget on a single-cell endpoint is a hard 503.
	if code := get(t, ts, "/sat?category=Store", nil); code != http.StatusServiceUnavailable {
		t.Errorf("sat status = %d, want 503", code)
	}
}
