package loadgen

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// jobPoll is the poll cadence of an OpJobs request.
	jobPoll = 20 * time.Millisecond
	// maxJobWait bounds how long one OpJobs request polls for a terminal
	// state after the issuing phase has ended, so a wedged job cannot
	// hang the drain.
	maxJobWait = 30 * time.Second
)

// Runner executes one spec against a live server. Base is the server's
// root URL ("http://127.0.0.1:8080"); a nil Client uses a dedicated one
// with keep-alives sized to the concurrency.
type Runner struct {
	Spec   Spec
	Base   string
	Client *http.Client
}

// Report counts the requests of one run. Errors counts the requests that
// failed: a transport error (also counted in TransportErrors), a status
// outside 2xx other than 429, or a job that did not end done. Shed
// counts the 429 answers, which are not errors.
type Report struct {
	Requests        int64
	Errors          int64
	TransportErrors int64
	Shed            int64
}

type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeFailed
	outcomeTransport
)

func (r *Report) count(out outcome) {
	atomic.AddInt64(&r.Requests, 1)
	switch out {
	case outcomeShed:
		atomic.AddInt64(&r.Shed, 1)
	case outcomeTransport:
		atomic.AddInt64(&r.TransportErrors, 1)
		fallthrough
	case outcomeFailed:
		atomic.AddInt64(&r.Errors, 1)
	}
}

// Run sends the planner's stream until Duration passes, MaxRequests are
// issued or ctx is done, then waits for the requests in flight. One
// producer feeds Concurrency workers in stream order, so the issued
// sequence is the planner's even though completions interleave.
func (rn *Runner) Run(ctx context.Context) (*Report, error) {
	spec := rn.Spec.withDefaults()
	planner, err := NewPlanner(spec)
	if err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(rn.Base, "/")
	client := rn.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        spec.Concurrency * 2,
			MaxIdleConnsPerHost: spec.Concurrency * 2,
		}}
	}

	rep := &Report{}
	end := time.Now().Add(spec.Duration)
	ch := make(chan Request)
	var wg sync.WaitGroup
	for w := 0; w < spec.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range ch {
				rep.count(execute(ctx, client, base, req, end))
			}
		}()
	}
	for issued := 0; ctx.Err() == nil && time.Now().Before(end); issued++ {
		if spec.MaxRequests > 0 && issued >= spec.MaxRequests {
			break
		}
		ch <- planner.Next()
	}
	close(ch)
	wg.Wait()
	return rep, nil
}

// execute performs one request and classifies its outcome. An OpJobs
// request polls the submitted job to a terminal state.
func execute(ctx context.Context, client *http.Client, base string, req Request, end time.Time) outcome {
	status, body, err := do(ctx, client, req.Method, base+req.Path, req.Body)
	switch {
	case err != nil:
		return outcomeTransport
	case status == http.StatusTooManyRequests:
		return outcomeShed
	case status < 200 || status > 299:
		return outcomeFailed
	case req.Op != OpJobs:
		return outcomeOK
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
		return outcomeFailed
	}
	deadline := end.Add(maxJobWait)
	for {
		switch view.State {
		case "done":
			return outcomeOK
		case "failed", "cancelled":
			return outcomeFailed
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return outcomeFailed
		}
		time.Sleep(jobPoll)
		status, body, err = do(ctx, client, http.MethodGet, base+"/jobs/"+view.ID, "")
		if err != nil {
			return outcomeTransport
		}
		if status != http.StatusOK || json.Unmarshal(body, &view) != nil {
			return outcomeFailed
		}
	}
}

// do issues one HTTP request and returns its status and body.
func do(ctx context.Context, client *http.Client, method, url, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, b, err
}
