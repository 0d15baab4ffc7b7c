// Webservice: consume the dimension-constraint reasoner as an HTTP
// service — the integration path for OLAP middleware that is not written
// in Go. Starts an in-process server over the paper's schema (the same
// handler cmd/dimsatd serves) and walks the endpoints with plain HTTP,
// including the overload contract: requests shed with 429 + Retry-After
// are retried with backoff until the server admits them (see
// docs/OPERATIONS.md for the full failure model). Every response carries
// an X-Request-ID header; the client logs it so a slow or shed call can
// be correlated with the server's request log and the requestId of the
// request's span.
// The client also mints a W3C `traceparent` for the calls it cares about,
// so every retry of a shed request joins one distributed trace, and logs
// the X-Trace-ID the server answers with — the key into GET
// /debug/spans/{traceID} (see docs/OBSERVABILITY.md, "Distributed
// tracing").
//
//	go run ./examples/webservice
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"olapdim/internal/cluster"
	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

func main() {
	// Production posture: every reasoning request gets a 5 s deadline and
	// an expansion budget (DIMSAT is NP-complete — unbounded requests are
	// a denial-of-service invitation), and verdicts are memoized across
	// requests in a shared cache.
	srv, err := server.NewWithConfig(paper.LocationSch(), server.Config{
		Options:        core.Options{MaxExpansions: 100000, Cache: core.NewSatCache()},
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("serving locationSch at %s (same handler as cmd/dimsatd)\n\n", ts.URL)

	// Which categories exist, and can they hold members?
	var cats []struct {
		Name        string `json:"name"`
		Satisfiable bool   `json:"satisfiable"`
		Bottom      bool   `json:"bottom"`
	}
	getJSON(ts.URL+"/categories", &cats)
	fmt.Println("GET /categories:")
	for _, c := range cats {
		mark := ""
		if c.Bottom {
			mark = "  (bottom)"
		}
		fmt.Printf("  %-12s satisfiable=%v%s\n", c.Name, c.Satisfiable, mark)
	}
	fmt.Println()

	// Is a constraint implied?
	var imp struct {
		Implied        bool   `json:"implied"`
		Counterexample string `json:"counterexample"`
	}
	postJSON(ts.URL+"/implies", `{"constraint": "Store_SaleRegion"}`, &imp)
	fmt.Printf("POST /implies Store_SaleRegion: implied=%v\n", imp.Implied)
	fmt.Printf("  counterexample: %s\n\n", imp.Counterexample)

	// The summarizability question middleware actually asks before
	// rewriting a query against a materialized view.
	for _, body := range []string{
		`{"target":"Country","from":["City"]}`,
		`{"target":"Country","from":["State","Province"]}`,
	} {
		var sum struct {
			Summarizable bool `json:"summarizable"`
		}
		postJSON(ts.URL+"/summarizable", body, &sum)
		fmt.Printf("POST /summarizable %s -> %v\n", body, sum.Summarizable)
	}
	fmt.Println()

	// Operational telemetry: GET /stats is the metrics registry as JSON,
	// keyed by the /metrics family names — request counts, cache
	// effectiveness, the cumulative DIMSAT work the service has done, and
	// each latency histogram's quantiles with the exemplar naming the
	// trace of its slowest request.
	var stats struct {
		Requests    uint64 `json:"olapdim_http_requests_received_total"`
		CacheHits   uint64 `json:"olapdim_cache_hits_total"`
		CacheMisses uint64 `json:"olapdim_cache_misses_total"`
		Expansions  uint64 `json:"olapdim_cache_work_expansions_total"`
		Latency     map[string]struct {
			P99             float64       `json:"p99"`
			SlowestExemplar *obs.Exemplar `json:"slowestExemplar"`
		} `json:"olapdim_http_request_duration_seconds"`
	}
	getJSON(ts.URL+"/stats", &stats)
	fmt.Printf("GET /stats: %d requests, cache %d/%d hits, %d expansions total\n",
		stats.Requests, stats.CacheHits, stats.CacheHits+stats.CacheMisses, stats.Expansions)
	if lat := stats.Latency["2xx"]; lat.SlowestExemplar != nil {
		fmt.Printf("  2xx latency p99 %.1f ms; the slowest answer's trace: GET /debug/spans/%s\n",
			1000*lat.P99, lat.SlowestExemplar.TraceID)
	}
	fmt.Println()

	overloadDemo()
}

// overloadDemo provokes the admission controller and shows the client
// side of the contract: a well-behaved caller treats 429 as "come back
// after Retry-After", not as a failure. The server is configured with a
// single execution slot and no queue, and an injected search stall keeps
// that slot busy — the same fault harness the robustness tests use.
func overloadDemo() {
	srv, err := server.NewWithConfig(paper.LocationSch(), server.Config{
		MaxConcurrent: 1,
		MaxQueue:      -1,
		RetryAfter:    time.Second,
		Options: core.Options{
			Faults: faults.New(faults.Rule{
				Site: faults.SiteExpand, Kind: faults.Latency, On: []int{1}, Delay: 1500 * time.Millisecond,
			}),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fmt.Println("overload demo: one execution slot, no queue, a stalled search holding it")
	slow := make(chan struct{})
	go func() {
		defer close(slow)
		// The slow call is the one worth tracing: mint a sampled trace
		// context so the server records a server.request span for it, and
		// log the trace ID — the handle an operator would paste into
		// GET /debug/spans/{traceID} to see where the time went.
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/sat?category=Store", nil)
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("traceparent", mintTraceContext().Traceparent())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("  slow request %s (trace %s) finished with %d\n",
			requestID(resp), traceID(resp), resp.StatusCode)
	}()
	time.Sleep(100 * time.Millisecond) // let the slow request take the slot

	var sat struct {
		Satisfiable bool `json:"satisfiable"`
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := getJSONRetry(ctx, ts.URL+"/sat?category=City", &sat, 5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  after retrying: City satisfiable=%v\n", sat.Satisfiable)
	<-slow
}

// getJSONRetry is getJSON with the retry contract of docs/OPERATIONS.md:
// on 429 it waits the server's Retry-After hint (falling back to an
// exponential backoff when the header is absent or malformed) and tries
// again, up to maxAttempts. The backoff sleep runs through
// cluster.SleepContext, so cancelling ctx aborts the wait immediately —
// a caller whose own deadline expired must not sit out a multi-second
// Retry-After before noticing. The jitter and Retry-After parsing are
// the shared helpers the cluster coordinator's worker client uses.
func getJSONRetry(ctx context.Context, url string, out any, maxAttempts int) error {
	backoff := 250 * time.Millisecond
	// One trace context for the whole retry loop: every attempt sends the
	// same traceparent, so shed attempts and the eventual admitted one are
	// one trace on the server side.
	tp := mintTraceContext().Traceparent()
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("traceparent", tp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := cluster.RetryJitter(cluster.RetryAfterWait(resp.Header, backoff), url, attempt)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= maxAttempts {
				return fmt.Errorf("still shed after %d attempts", attempt)
			}
			// The shed response still carries a request ID: quote it when
			// reporting so the operator can find the exact request in the
			// server's JSON log.
			fmt.Printf("  attempt %d (%s trace %s) shed with 429, retrying in %s\n",
				attempt, requestID(resp), traceID(resp), wait)
			if err := cluster.SleepContext(ctx, wait); err != nil {
				return fmt.Errorf("giving up mid-backoff: %w", err)
			}
			backoff *= 2
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d (request %s)", url, resp.StatusCode, requestID(resp))
		}
		fmt.Printf("  attempt %d (%s trace %s) admitted\n", attempt, requestID(resp), traceID(resp))
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// requestID extracts the server-minted correlation ID, the key into the
// request log.
func requestID(resp *http.Response) string {
	if id := resp.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	return "no-request-id"
}

// traceID extracts the distributed-trace ID the server answered with, the
// key into GET /debug/spans/{traceID} (and, behind a coordinator,
// GET /cluster/trace/{traceID}).
func traceID(resp *http.Response) string {
	if id := resp.Header.Get("X-Trace-ID"); id != "" {
		return id
	}
	return "no-trace-id"
}

// mintTraceContext starts a client-side sampled trace: the server honors
// an adopted traceparent's sampled flag regardless of its own sampling
// rate, so the caller decides which calls are worth a recorded span.
func mintTraceContext() obs.SpanContext {
	return obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url, body string, out any) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
