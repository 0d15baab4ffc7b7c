// Package obs is the observability layer of the dimension-constraint
// service: a dependency-free metrics registry with Prometheus text
// exposition and a JSON view of the same families (with their
// exemplars), a structured JSON-lines logger with request-ID propagation,
// distributed spans kept in a bounded per-node span store, and the
// request observer that dimsatd and the cluster coordinator both put
// around every HTTP request.
//
// The registry holds three instrument kinds — atomic counters, gauges and
// fixed-bucket histograms — optionally split by one label, plus
// collect-at-scrape functions for counters owned elsewhere (the SatCache,
// the job store, the fault injector). Everything is safe for concurrent
// use from serving hot paths; an observation is one or two atomic
// operations, never an allocation.
//
// Metric names are validated at registration (see CheckName) and linted
// against the serving conventions (see Lint, cmd/metricslint): the
// olapdim_ namespace, snake_case, counters end in _total, duration
// metrics end in _seconds.
// docs/OBSERVABILITY.md catalogs every metric the server registers.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types as exposed in the Prometheus TYPE comment.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// CheckName validates the basic syntax of a metric or label name:
// snake_case ASCII, starting with a letter, no consecutive or trailing
// underscores. Registration panics on violations — metric names are
// compile-time constants, so a bad one is a programmer error caught by
// any test that constructs the registry.
func CheckName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("obs: metric name %q is not snake_case", name)
	}
	return nil
}

// namespace is the prefix every served metric family carries.
const namespace = "olapdim_"

// Lint applies the serving naming conventions on top of CheckName:
// every name lives in the olapdim_ namespace, counters must end in
// _total, non-counters must not, and any metric whose name speaks of
// time (duration, latency) must be in base seconds (end in _seconds).
// cmd/metricslint runs this over every family the server and the
// coordinator register, so a drive-by metric with a nonconforming name
// fails `make check` rather than landing on a dashboard.
func Lint(name, typ string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	if !strings.HasPrefix(name, namespace) {
		return fmt.Errorf("obs: %s %q is outside the %s namespace", typ, name, namespace)
	}
	isTotal := strings.HasSuffix(name, "_total")
	if typ == TypeCounter && !isTotal {
		return fmt.Errorf("obs: counter %q must end in _total", name)
	}
	if typ != TypeCounter && isTotal {
		return fmt.Errorf("obs: %s %q must not end in _total (counters only)", typ, name)
	}
	for _, w := range []string{"duration", "latency"} {
		if strings.Contains(name, w) && !strings.HasSuffix(name, "_seconds") {
			return fmt.Errorf("obs: %s %q mentions %q but is not in base seconds (_seconds)", typ, name, w)
		}
	}
	return nil
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta and returns the new value, so callers
// using the gauge as their own bookkeeping (admission queues) need no
// shadow atomic.
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Observations
// are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	ex     atomic.Pointer[Exemplar]
}

// Exemplar links a histogram's tail to a concrete trace: the trace ID of
// the largest observation recorded so far and its value. Exposed through
// /stats (exposition format 0.0.4 has no exemplar syntax), it turns "p99
// moved" into "go read this trace".
type Exemplar struct {
	TraceID string  `json:"traceId"`
	Value   float64 `json:"value"`
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveWithExemplar records one sample and, when it is the largest
// seen so far and carries a trace ID, retains it as the histogram's
// exemplar, reporting that it took it and the trace ID of the exemplar
// it displaced ("" for none). The keep-max policy means the exemplar
// always names the slowest-bucket observation — the request worth
// reading a trace for.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) (displaced string, took bool) {
	h.Observe(v)
	if traceID == "" {
		return "", false
	}
	for {
		old := h.ex.Load()
		if old != nil && old.Value >= v {
			return "", false
		}
		if h.ex.CompareAndSwap(old, &Exemplar{TraceID: traceID, Value: v}) {
			if old != nil {
				displaced = old.TraceID
			}
			return displaced, true
		}
	}
}

// Exemplar returns the retained slowest-observation exemplar, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	ex := h.ex.Load()
	if ex == nil {
		return Exemplar{}, false
	}
	return *ex, true
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the cumulative count at each configured upper bound
// (excluding +Inf), index-aligned with the bounds passed at registration.
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation within the bucket the rank falls
// into, the same estimate Prometheus's histogram_quantile computes. The
// lower edge of the first bucket is taken as 0 (observations are
// non-negative in every layout this package ships); a rank landing in
// the +Inf bucket is clamped to the highest finite bound, so the
// estimate is always finite. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	lower := 0.0
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			return lower + (bound-lower)*frac
		}
		cum += c
		lower = bound
	}
	return h.bounds[len(h.bounds)-1]
}

// family is one registered metric family: a fixed name/help/type plus
// either static series (by label value) or a collect-at-scrape function.
type family struct {
	name   string
	help   string
	typ    string
	label  string // label name for vector families, "" otherwise
	bounds []float64

	mu     sync.Mutex
	series map[string]any // label value ("" for plain) -> *Counter/*Gauge/*Histogram
	// collect, when non-nil, supersedes series: it returns current values
	// by label value at scrape time (counters and gauges only).
	collect func() map[string]float64
	// info, when non-nil, marks a constant info gauge: one series with
	// this fixed label set and the constant value 1 (the build_info
	// convention).
	info map[string]string
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Register every family once, at construction time;
// duplicate or syntactically invalid names panic.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(name, help, typ, label string, bounds []float64, collect func() map[string]float64) *family {
	if err := CheckName(name); err != nil {
		panic(err)
	}
	if label != "" {
		if err := CheckName(label); err != nil {
			panic(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, label: label, bounds: bounds,
		series: map[string]any{}, collect: collect}
	r.families[name] = f
	return f
}

// Counter registers and returns a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, "", nil, nil)
	c := &Counter{}
	f.series[""] = c
	return c
}

// Gauge registers and returns a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, "", nil, nil)
	g := &Gauge{}
	f.series[""] = g
	return g
}

// Histogram registers and returns a plain fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, "", buckets, nil)
	h := newHistogram(buckets)
	f.series[""] = h
	return h
}

// CounterVec is a counter family split by one label.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with one label dimension.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, label, nil, nil)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.series[value].(*Counter)
	if !ok {
		c = &Counter{}
		v.f.series[value] = c
	}
	return c
}

// Value returns the count for one label value, 0 while With has not
// created it; unlike With it leaves the family's series as they are.
func (v *CounterVec) Value(value string) uint64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.series[value].(*Counter); ok {
		return c.Value()
	}
	return 0
}

// HistogramVec is a histogram family split by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with one label dimension.
// All series share the bucket layout.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, label, buckets, nil)}
}

// With returns the histogram for one label value, creating it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.series[value].(*Histogram)
	if !ok {
		h = newHistogram(v.f.bounds)
		v.f.series[value] = h
	}
	return h
}

// CounterFunc registers a counter whose value is read at scrape time —
// for cumulative counts owned by another subsystem (cache hits, job
// lifecycle transitions). f must be safe for concurrent use and
// monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(name, help, TypeCounter, "", nil, func() map[string]float64 {
		return map[string]float64{"": f()}
	})
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, TypeGauge, "", nil, func() map[string]float64 {
		return map[string]float64{"": f()}
	})
}

// Info registers a constant info gauge: a single series carrying the
// given fixed labels with the constant value 1, the Prometheus
// convention for build and runtime metadata (joins on the labels, value
// carries nothing). Label names are validated like metric names; label
// values are free-form.
func (r *Registry) Info(name, help string, labels map[string]string) {
	for k := range labels {
		if err := CheckName(k); err != nil {
			panic(err)
		}
	}
	f := r.register(name, help, TypeGauge, "", nil, nil)
	copied := make(map[string]string, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
	f.info = copied
}

// CounterVecFunc registers a labeled counter family collected at scrape
// time: f returns the current value per label value (e.g. fault
// injections fired per site).
func (r *Registry) CounterVecFunc(name, help, label string, f func() map[string]float64) {
	r.register(name, help, TypeCounter, label, nil, f)
}

// FamilyInfo describes one registered family, for linting and catalogs.
type FamilyInfo struct {
	Name  string
	Type  string
	Help  string
	Label string // "" for unlabeled families
}

// Families lists the registered families sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		label := f.label
		if f.info != nil {
			label = strings.Join(sortedKeys(f.info), ",")
		}
		out = append(out, FamilyInfo{Name: f.name, Type: f.typ, Help: f.help, Label: label})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sorted returns the registered families sorted by name.
func (r *Registry) sorted() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, name := range sortedKeys(r.families) {
		fams = append(fams, r.families[name])
	}
	return fams
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshot copies f's series by label value: the instruments of a
// static family, or the float64 values a collected family reads now.
// The copy is taken under f.mu and rendered after it, so a scrape never
// holds up a With on a serving path.
func (f *family) snapshot() map[string]any {
	out := map[string]any{}
	if f.collect != nil {
		for k, v := range f.collect() {
			out[k] = v
		}
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, m := range f.series {
		out[k] = m
	}
	return out
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and series sorted by name so scrapes
// are diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sorted() {
		f.write(w)
	}
}

// WriteJSON renders every family as one JSON object keyed by its
// exposition name, the view GET /stats serves. A plain counter or gauge
// is its value, a labeled family an object keyed by label value, an
// info gauge its labels, and a histogram its count and sum, its
// interpolated p50, p90, p99 and p999 once it has observations, and its
// slowestExemplar when it retains one. Exposition format 0.0.4 has no
// exemplar syntax, so this is where exemplars surface.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.sorted()
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		out[f.name] = f.jsonValue()
	}
	return json.NewEncoder(w).Encode(out)
}

// ServeStats renders the registry as JSON (WriteJSON), making it
// mountable at GET /stats. The request is untraced.
func (r *Registry) ServeStats(w http.ResponseWriter, req *http.Request) {
	Untraced(req.Context())
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteJSON(w) // a failed write has lost its client: no one to tell
}

// histogramJSON is a histogram's WriteJSON value; the quantiles are
// left out while it is empty, so no zero reads as a measurement.
type histogramJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	*quantilesJSON
	SlowestExemplar *Exemplar `json:"slowestExemplar,omitempty"`
}

// quantilesJSON are a non-empty histogram's interpolated quantiles.
type quantilesJSON struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// jsonValue is f's WriteJSON value.
func (f *family) jsonValue() any {
	if f.info != nil {
		return f.info
	}
	vals := f.snapshot()
	for k, m := range vals {
		switch m := m.(type) {
		case *Counter:
			vals[k] = m.Value()
		case *Gauge:
			vals[k] = m.Value()
		case *Histogram:
			h := histogramJSON{Count: m.Count(), Sum: m.Sum()}
			if h.Count > 0 {
				h.quantilesJSON = &quantilesJSON{
					P50: m.Quantile(0.50), P90: m.Quantile(0.90),
					P99: m.Quantile(0.99), P999: m.Quantile(0.999),
				}
			}
			if ex, ok := m.Exemplar(); ok {
				h.SlowestExemplar = &ex
			}
			vals[k] = h
		}
	}
	if f.label == "" {
		return vals[""]
	}
	return vals
}

func (f *family) write(w io.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)

	if f.info != nil {
		keys := sortedKeys(f.info)
		pairs := make([]string, len(keys))
		for i, k := range keys {
			pairs[i] = fmt.Sprintf("%s=%q", k, f.info[k])
		}
		fmt.Fprintf(w, "%s{%s} 1\n", f.name, strings.Join(pairs, ","))
		return
	}

	series := f.snapshot()
	for _, k := range sortedKeys(series) {
		switch m := series[k].(type) {
		case float64:
			fmt.Fprintf(w, "%s%s %s\n", f.name, f.labelPair(k), formatFloat(m))
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelPair(k), m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelPair(k), m.Value())
		case *Histogram:
			cum := m.Buckets()
			for j, bound := range m.bounds {
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.bucketLabel(k, formatFloat(bound)), cum[j])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.bucketLabel(k, "+Inf"), m.Count())
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelPair(k), formatFloat(m.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, f.labelPair(k), m.Count())
		}
	}
}

// labelPair renders {label="value"} for vector families, "" otherwise.
func (f *family) labelPair(value string) string {
	if f.label == "" {
		return ""
	}
	return fmt.Sprintf(`{%s=%q}`, f.label, value)
}

// bucketLabel renders the le label, merged with the family label if any.
func (f *family) bucketLabel(value, le string) string {
	if f.label == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return fmt.Sprintf(`{%s=%q,le=%q}`, f.label, value, le)
}

// formatFloat renders a float like Prometheus clients do: integers
// without a decimal point, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ServeHTTP renders the registry, making it mountable at GET /metrics.
// The request is untraced.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	Untraced(req.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// DurationBuckets is the default latency bucket layout, in seconds:
// 1ms to ~16s in powers of four, fitting both cache hits and budgeted
// worst-case searches.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384}
}

// LatencyBuckets is a fine-grained latency layout, in seconds: powers of
// two from 100µs to ~26s. Twice the resolution of DurationBuckets keeps
// the interpolation error of Histogram.Quantile small enough for p99.9
// reporting.
func LatencyBuckets() []float64 {
	out := make([]float64, 19)
	b := 0.0001
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// EffortBuckets is the default search-effort bucket layout (EXPAND or
// CHECK steps per request): exponential from 1 to ~1M, the range between
// a trivially pruned search and an exhausted serving budget.
func EffortBuckets() []float64 {
	return []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
}
