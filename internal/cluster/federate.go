package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"olapdim/internal/api"
	"olapdim/internal/obs"
)

// This file is the coordinator's cross-node observability plane (its own
// span store is served at GET /debug/spans like every worker's):
//
//   - GET /cluster/trace/{traceID} fans out to every worker's
//     /debug/spans/{traceID}, merges the answers with the coordinator's
//     own spans, and assembles the cross-node trace tree.
//   - GET /cluster/metrics scrapes every worker's /metrics, relabels
//     each sample with worker="<base-url>", folds in the coordinator's
//     registry as worker="coordinator", and serves one merged
//     Prometheus exposition — per-worker values stay visible, so sums
//     and rates aggregate without double counting.
//
// Debug fan-out traffic deliberately bypasses workerClient.do: a worker
// that simply does not retain a trace answers 404, and that must not
// feed the health streaks, breakers or forward metrics.

// fetch GETs worker+path directly (no health/breaker/metrics side
// effects) and returns the body of a 200 answer.
func (c *Coordinator) fetch(ctx context.Context, worker, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s%s answered %s", worker, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// handleClusterTrace assembles one distributed trace across the whole
// cluster: the coordinator's own spans plus every worker's, fetched in
// parallel. Workers that are down or never saw the trace contribute
// nothing; 404 means no node retains it.
func (c *Coordinator) handleClusterTrace(w http.ResponseWriter, r *http.Request) {
	obs.Untraced(r.Context())
	traceID := r.PathValue("traceID")
	all := append([]obs.Span(nil), c.spans.Trace(traceID)...)
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	c.mu.Unlock()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProbeTimeout)
			defer cancel()
			body, err := c.fetch(ctx, worker, "/debug/spans/"+traceID)
			if err != nil {
				return
			}
			var resp struct {
				Spans []obs.Span `json:"spans"`
			}
			if json.Unmarshal(body, &resp) != nil {
				return
			}
			mu.Lock()
			all = append(all, resp.Spans...)
			mu.Unlock()
		}(wk)
	}
	wg.Wait()
	asm := obs.Assemble(traceID, all)
	if len(asm.Spans) == 0 {
		api.WriteError(w, http.StatusNotFound, "no spans retained for trace %q on any node", traceID)
		return
	}
	api.WriteJSON(w, http.StatusOK, asm)
}

// handleClusterMetrics serves the federated exposition: the
// coordinator's registry plus every reachable worker's scrape, each
// sample relabeled with its origin.
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	obs.Untraced(r.Context())
	fed := newFederation()
	c.mu.Lock()
	workers := append([]string(nil), c.workers...)
	c.mu.Unlock()
	type scrape struct {
		worker string
		text   string
		err    error
	}
	results := make([]scrape, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), c.cfg.ProbeTimeout)
			defer cancel()
			body, err := c.fetch(ctx, worker, "/metrics")
			results[i] = scrape{worker: worker, text: string(body), err: err}
		}(i, wk)
	}
	wg.Wait()
	for _, s := range results {
		if s.err != nil {
			c.met.federationScrapes.With("fail").Inc()
			c.cfg.Logf("cluster: federation scrape of %s failed: %v", s.worker, s.err)
			continue
		}
		c.met.federationScrapes.With("ok").Inc()
		fed.ingest(s.worker, s.text)
	}
	// The coordinator's own registry is serialized after the worker
	// scrapes so the scrape counters incremented above — including this
	// very federation pass — appear in the answer.
	var own bytes.Buffer
	c.reg.WritePrometheus(&own)
	fed.ingest("coordinator", own.String())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fed.write(w)
}

// fedSample is one exposition sample line, relabeled with its origin.
type fedSample struct {
	// name is the sample name: the family name, or family_bucket/_sum/
	// _count for histograms.
	name   string
	labels string // rendered label set, worker label first
	value  string
}

// fedFamily merges one metric family across scrapes. The first scrape
// to declare HELP/TYPE wins (workers run the same binary, so they
// agree); samples accumulate in ingestion order, which keeps each
// worker's bucket series contiguous and le-ordered.
type fedFamily struct {
	name, typ, help string
	samples         []fedSample
}

// federation accumulates scrapes into merged families. The exposition
// text parser is sequential-context: a sample line belongs to the
// family most recently declared by a # TYPE/# HELP header, which is how
// obs.Registry (and every Prometheus client library) lays scrapes out.
type federation struct {
	fams map[string]*fedFamily
}

func newFederation() *federation {
	return &federation{fams: map[string]*fedFamily{}}
}

func (f *federation) family(name string) *fedFamily {
	fam, ok := f.fams[name]
	if !ok {
		fam = &fedFamily{name: name}
		f.fams[name] = fam
	}
	return fam
}

// sampleOf reports whether a sample name belongs to family fam
// (identical, or a histogram's _bucket/_sum/_count series).
func sampleOf(sample, fam string) bool {
	if sample == fam {
		return true
	}
	rest, ok := strings.CutPrefix(sample, fam)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// splitSample parses one sample line into name, raw label body and
// value. The closing brace is found from the right: label values may
// contain escaped braces, but the value and optional timestamp after
// the label set never do.
func splitSample(line string) (name, labels, value string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", "", false
		}
		return line[:i], line[i+1 : j], strings.TrimSpace(line[j+1:]), true
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return "", "", "", false
	}
	return line[:i], "", strings.TrimSpace(line[i+1:]), true
}

// ingest parses one node's exposition text and appends its samples,
// each relabeled with worker="<origin>".
func (f *federation) ingest(origin, text string) {
	var cur *fedFamily
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(line[len("# HELP "):], " ")
			cur = f.family(name)
			if cur.help == "" {
				cur.help = help
			}
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(line[len("# TYPE "):], " ")
			cur = f.family(name)
			if cur.typ == "" {
				cur.typ = typ
			}
		case line == "" || strings.HasPrefix(line, "#"):
			// Blank or an unrecognized comment: skip.
		default:
			name, labels, value, ok := splitSample(line)
			if !ok || value == "" {
				continue
			}
			fam := cur
			if fam == nil || !sampleOf(name, fam.name) {
				// A stray sample with no preceding header — not something
				// obs.Registry emits, but a scrape is untrusted input.
				fam = f.family(name)
			}
			relabeled := fmt.Sprintf("worker=%q", origin)
			if labels != "" {
				relabeled += "," + labels
			}
			fam.samples = append(fam.samples, fedSample{name: name, labels: relabeled, value: value})
		}
	}
}

// write renders the merged exposition, families sorted by name so the
// output is diffable across scrapes.
func (f *federation) write(w io.Writer) {
	names := make([]string, 0, len(f.fams))
	for name := range f.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := f.fams[name]
		if fam.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help)
		}
		typ := fam.typ
		if typ == "" {
			typ = "untyped"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, typ)
		for _, s := range fam.samples {
			fmt.Fprintf(w, "%s{%s} %s\n", s.name, s.labels, s.value)
		}
	}
}
