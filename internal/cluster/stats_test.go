package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/faults"
	"olapdim/internal/jobs"
	"olapdim/internal/obs"
	"olapdim/internal/paper"
	"olapdim/internal/server"
)

// uptimeFamilies move between any two renderings; they are the only
// families the agreement check skips.
var uptimeFamilies = map[string]bool{
	"olapdim_uptime_seconds":         true,
	"olapdim_cluster_uptime_seconds": true,
}

// renderBoth renders reg's /metrics and /stats views back to back. A
// background loop or a span landing after its response can move a
// family between the two, so it brackets the JSON view with two
// expositions and retries until they agree outside the uptime gauges:
// then nothing moved while the JSON view was rendered.
func renderBoth(t *testing.T, reg *obs.Registry) (map[string]float64, map[string]json.RawMessage) {
	t.Helper()
	for try := 0; ; try++ {
		before := parseExposition(t, reg)
		var js strings.Builder
		if err := reg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		after := parseExposition(t, reg)
		if fmt.Sprint(before) == fmt.Sprint(after) {
			var view map[string]json.RawMessage
			if err := json.Unmarshal([]byte(js.String()), &view); err != nil {
				t.Fatalf("decoding /stats %s: %v", js.String(), err)
			}
			return before, view
		}
		if try == 50 {
			t.Fatal("the registry never held still for one rendering of both views")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// parseExposition renders reg's /metrics view as sample → value, keyed
// name{labels}, without the uptime gauges.
func parseExposition(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, ok := splitSample(line)
		if !ok {
			t.Fatalf("unparsable sample %q", line)
		}
		if uptimeFamilies[name] {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[name+"{"+labels+"}"] = v
	}
	return out
}

// checkStatsAgree requires every family of reg to read the same in its
// /stats view as in its /metrics view: each counter and gauge, each
// series of a labeled family, each histogram's count and sum, and each
// info gauge's labels.
func checkStatsAgree(t *testing.T, node string, reg *obs.Registry) {
	t.Helper()
	prom, view := renderBoth(t, reg)
	fams := reg.Families()
	if len(view) != len(fams) {
		t.Errorf("%s: /stats has %d families, the registry %d", node, len(view), len(fams))
	}
	checked := map[string]bool{}
	want := func(sample string, got float64) {
		t.Helper()
		checked[sample] = true
		if v, ok := prom[sample]; !ok || v != got {
			t.Errorf("%s: /stats %s = %v, /metrics %v (present %v)", node, sample, got, v, ok)
		}
	}
	for _, f := range fams {
		if uptimeFamilies[f.Name] {
			continue
		}
		raw, ok := view[f.Name]
		if !ok {
			t.Errorf("%s: %s missing from /stats", node, f.Name)
			continue
		}
		var info map[string]string
		if json.Unmarshal(raw, &info) == nil && len(info) > 0 {
			keys := make([]string, 0, len(info))
			for k := range info {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			pairs := make([]string, len(keys))
			for i, k := range keys {
				pairs[i] = fmt.Sprintf("%s=%q", k, info[k])
			}
			want(f.Name+"{"+strings.Join(pairs, ",")+"}", 1)
			continue
		}
		series := map[string]json.RawMessage{"": raw}
		if f.Label != "" {
			series = nil
			if err := json.Unmarshal(raw, &series); err != nil {
				t.Errorf("%s: /stats %s = %s: %v", node, f.Name, raw, err)
				continue
			}
		}
		for label, v := range series {
			lp := ""
			if f.Label != "" {
				lp = fmt.Sprintf("%s=%q", f.Label, label)
			}
			if f.Type == obs.TypeHistogram {
				var h struct {
					Count uint64  `json:"count"`
					Sum   float64 `json:"sum"`
				}
				if err := json.Unmarshal(v, &h); err != nil {
					t.Errorf("%s: /stats %s{%s} = %s: %v", node, f.Name, lp, v, err)
					continue
				}
				want(f.Name+"_count{"+lp+"}", float64(h.Count))
				want(f.Name+"_sum{"+lp+"}", h.Sum)
				continue
			}
			var n float64
			if err := json.Unmarshal(v, &n); err != nil {
				t.Errorf("%s: /stats %s{%s} = %s: %v", node, f.Name, lp, v, err)
				continue
			}
			want(f.Name+"{"+lp+"}", n)
		}
	}
	// Every /metrics sample but the histogram buckets has its /stats twin.
	for sample := range prom {
		if !checked[sample] && !strings.Contains(sample, "_bucket{") {
			t.Errorf("%s: /metrics %s has no /stats value", node, sample)
		}
	}
}

// TestStatsAgreeWithMetrics sends reads, a refused read, an unknown
// path and a job through a coordinator to one worker, then renders each
// node's /stats and /metrics views from the same registry: every family
// but the uptime gauges must read the same in both.
func TestStatsAgreeWithMetrics(t *testing.T) {
	store, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Schema: paper.LocationSch(), CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := server.NewWithConfig(paper.LocationSch(), server.Config{
		Jobs:    store,
		Options: core.Options{Faults: faults.New()},
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Start()
	w := httptest.NewServer(srv)
	t.Cleanup(w.Close)
	c, ts := startCoordinator(t, Config{HedgeDelay: -1, Faults: faults.New()}, w.URL)

	for _, path := range []string{"/sat?category=Store", "/sat?category=Store", "/explain?category=City",
		"/matrix", "/sources?target=Country&max=2", "/sat?category=Nope", "/nowhere"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, post := range []struct{ path, body string }{
		{"/implies", `{"constraint": "Store.City"}`},
		{"/jobs", `{"kind": "sat", "category": "City"}`},
	} {
		resp, err := http.Post(ts.URL+post.path, "application/json", strings.NewReader(post.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s = %d", post.path, resp.StatusCode)
		}
	}

	checkStatsAgree(t, "worker", srv.Registry())
	checkStatsAgree(t, "coordinator", c.Registry())
}

// TestCoordinatorStatsExemplarNamesAssembledTrace: a sampled read slowed
// at the coordinator's forward is the slowest request it served, so its
// /stats names the read's trace as the exemplar of
// olapdim_cluster_http_request_duration_seconds, and /cluster/trace
// assembles that trace from the coordinator and the worker.
func TestCoordinatorStatsExemplarNamesAssembledTrace(t *testing.T) {
	worker, _ := startTracedWorker(t, paper.LocationSch(), "server")
	inj := faults.New(faults.Rule{Site: faults.SiteClusterForward, Kind: faults.Latency, Delay: 150 * time.Millisecond, On: []int{1}})
	_, ts := startCoordinator(t, Config{HedgeDelay: -1, Faults: inj}, worker.URL)

	// The coordinator samples every trace it mints (SpanSample 1).
	resp, err := http.Get(ts.URL + "/sat?category=Store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get(obs.HeaderTraceID)
	if resp.StatusCode != http.StatusOK || traceID == "" {
		t.Fatalf("/sat through the coordinator = %d, trace %q", resp.StatusCode, traceID)
	}

	// The exemplar is taken when the request's root span finishes, just
	// after the answer; poll until /stats names it.
	var named string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var st struct {
			Latency map[string]struct {
				Count           uint64        `json:"count"`
				SlowestExemplar *obs.Exemplar `json:"slowestExemplar"`
			} `json:"olapdim_cluster_http_request_duration_seconds"`
		}
		r, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&st)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("coordinator /stats = %d: %v", r.StatusCode, err)
		}
		if ex := st.Latency["2xx"].SlowestExemplar; ex != nil {
			if named = ex.TraceID; named == traceID {
				break
			}
		}
	}
	if named != traceID {
		t.Fatalf("coordinator /stats 2xx latency exemplar = %q, want the slowed read's %s", named, traceID)
	}

	var asm obs.TraceAssembly
	ok := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) && !ok; time.Sleep(10 * time.Millisecond) {
		asm, ok = fetchAssembly(t, ts.URL, named)
	}
	if !ok {
		t.Fatalf("/cluster/trace/%s never answered 200", named)
	}
	if asm.TraceID != traceID || !asm.WellParented || len(asm.Nodes) != 2 {
		t.Errorf("assembled exemplar trace = id %s, wellParented %v, nodes %v; want %s, true, coordinator and server",
			asm.TraceID, asm.WellParented, asm.Nodes, traceID)
	}
}

// TestCoordinatorScrapesAndProbesAreUntraced: on the coordinator,
// /metrics, /stats, /debug/spans, /debug/spans/{id}, /healthz, /readyz,
// /cluster, /cluster/metrics and /cluster/trace/{id} are counted and
// timed but record no span and offer no exemplar. A collector slows
// every render of the coordinator's registry well past a warm read, so
// a scrape offered as an exemplar would be named the slowest 2xx
// request.
func TestCoordinatorScrapesAndProbesAreUntraced(t *testing.T) {
	worker, _ := startTracedWorker(t, paper.LocationSch(), "server")
	c, ts := startCoordinator(t, Config{HedgeDelay: -1}, worker.URL)
	c.Registry().GaugeFunc("olapdim_test_slow_collection", "A gauge that takes 100ms to collect.",
		func() float64 { time.Sleep(100 * time.Millisecond); return 0 })

	traced := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		return resp.Header.Get(obs.HeaderTraceID)
	}
	first := traced("/sat?category=Store")
	reads := map[string]bool{first: true}
	for i := 0; i < 20; i++ {
		reads[traced("/sat?category=Store")] = true
	}
	var probes []string
	for _, path := range []string{"/metrics", "/stats", "/cluster", "/cluster/metrics", "/cluster/trace/" + first,
		"/debug/spans", "/debug/spans/" + first, "/healthz", "/readyz"} {
		probes = append(probes, traced(path))
	}

	// A request is timed just after its answer: wait until /stats has
	// counted every read and probe.
	var ex *obs.Exemplar
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		var st struct {
			Latency map[string]struct {
				Count           uint64        `json:"count"`
				SlowestExemplar *obs.Exemplar `json:"slowestExemplar"`
			} `json:"olapdim_cluster_http_request_duration_seconds"`
		}
		if code := coordGet(t, ts.URL, "/stats", &st); code != http.StatusOK {
			t.Fatalf("coordinator /stats = %d", code)
		}
		if ex = st.Latency["2xx"].SlowestExemplar; st.Latency["2xx"].Count >= uint64(len(reads)+len(probes)) {
			break
		}
	}
	if ex == nil || !reads[ex.TraceID] {
		t.Fatalf("coordinator /stats 2xx latency exemplar %+v names no read", ex)
	}
	var list struct {
		TraceIDs []string `json:"traceIds"`
	}
	if code := coordGet(t, ts.URL, "/debug/spans", &list); code != http.StatusOK {
		t.Fatalf("coordinator /debug/spans = %d", code)
	}
	for _, id := range probes {
		if slices.Contains(list.TraceIDs, id) {
			t.Errorf("probe trace %s recorded spans", id)
		}
	}
}
