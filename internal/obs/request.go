package obs

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// RequestMetrics are the families a node counts its HTTP requests in:
// Received at arrival, before routing; Total and Duration at completion,
// by status class (the code_class label).
type RequestMetrics struct {
	Received *Counter
	Total    *CounterVec
	Duration *HistogramVec
}

// The trace-context headers, in the canonical form http.Header keeps
// them in, so reading or writing one does not canonicalize it again.
const (
	HeaderRequestID   = "X-Request-Id"
	HeaderTraceID     = "X-Trace-Id"
	HeaderTraceparent = "Traceparent"
)

// RequestOutcome is what the observer learned about one request, handed
// back for the node's access log.
type RequestOutcome struct {
	ID       string
	TraceID  string
	Status   int
	Duration time.Duration
}

// RequestObserver is the observation boundary dimsatd and the cluster
// coordinator each put around every HTTP request, so both nodes
// correlate, sample, count and trace requests the same way. Safe for
// concurrent use.
type RequestObserver struct {
	span    string
	spans   *SpanStore
	sample  int64
	seq     atomic.Int64
	ids     *IDSource
	metrics RequestMetrics
}

// NewRequestObserver returns the observer of one node. span names the
// node's root span ("server.request", "coordinator.request"), recorded
// into spans for every sampled request. Every sample-th request arriving
// without a traceparent starts a sampled trace (0 and 1 mean every
// request, negative none).
func NewRequestObserver(span string, spans *SpanStore, sample int, m RequestMetrics) *RequestObserver {
	if sample == 0 {
		sample = 1
	}
	return &RequestObserver{span: span, spans: spans, sample: int64(sample), ids: NewIDSource(), metrics: m}
}

// Serve runs next under the node's request observation:
//
//  1. A valid inbound X-Request-ID is adopted, anything else replaced by
//     a minted ID, which is also written back into r.Header so a request
//     forwarded onward carries it. The ID is echoed and put in the context.
//  2. A well-formed inbound traceparent is adopted with its sampled flag;
//     otherwise a trace is minted, sampled every sample-th time. The trace
//     ID is echoed as X-Trace-ID.
//  3. The root span is opened as a child of the caller's span and put in
//     the context, and the response status is captured.
//  4. The request is counted and timed by status class, with the trace ID
//     as the latency exemplar when sampled; the span store keeps the
//     exemplar's trace (SpanStore.ObserveExemplar).
//  5. A sampled request's root span is finished with its method, path,
//     status and request ID, and recorded.
//
// A request whose handler called Untraced is counted and timed but
// neither offered as an exemplar nor recorded, sampled or not.
func (o *RequestObserver) Serve(w http.ResponseWriter, r *http.Request, next http.Handler) RequestOutcome {
	o.metrics.Received.Inc()
	id := r.Header.Get(HeaderRequestID)
	if !ValidRequestID(id) {
		id = o.ids.Next()
		r.Header.Set(HeaderRequestID, id)
	}
	w.Header().Set(HeaderRequestID, id)

	parent, adopted := ParseTraceparent(r.Header.Get(HeaderTraceparent))
	if !adopted {
		parent = SpanContext{TraceID: NewTraceID(), Sampled: o.sample > 0 && (o.seq.Add(1)-1)%o.sample == 0}
	}
	span, sc := StartSpan(parent, o.span, "server")
	w.Header().Set(HeaderTraceID, sc.TraceID)
	rs := &scope{Context: r.Context(), id: id, sc: sc, hasSpan: true}
	r = r.WithContext(rs)

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	next.ServeHTTP(sw, r)
	out := RequestOutcome{ID: id, TraceID: sc.TraceID, Status: sw.status, Duration: time.Since(start)}

	class := codeClass(out.Status)
	o.metrics.Total.With(class).Inc()
	if !sc.Sampled || rs.untraced {
		o.metrics.Duration.With(class).Observe(out.Duration.Seconds())
		return out
	}
	o.spans.ObserveExemplar(o.metrics.Duration.With(class), out.Duration.Seconds(), sc.TraceID)
	span.SetAttr("method", r.Method)
	span.SetAttr("path", r.URL.Path)
	span.SetAttr("status", strconv.Itoa(out.Status))
	span.SetAttr("requestId", id)
	st := "ok"
	if out.Status >= 500 {
		st = "error"
	}
	span.Finish(st)
	o.spans.Add(span)
	return out
}

// Untraced marks the observed request that carries ctx as one to count
// and time but not trace: its RequestObserver records no span for it
// and offers it to no exemplar. The handlers that only report on the
// node (its metrics, its span store, its health probes) call it, so a
// scrape or a probe is never named the node's slowest request and takes
// no span ring slots from the reads it reports on. Call it from the
// handler, on the request's own context, before returning.
func Untraced(ctx context.Context) {
	if s := scopeOf(ctx); s != nil {
		s.untraced = true
	}
}

// Healthz answers liveness, untraced: 200 "ok" while the process serves.
func Healthz(w http.ResponseWriter, r *http.Request) {
	Untraced(r.Context())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// statusWriter captures the status of the response: the first
// WriteHeader, or 200 when the body is written without one.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// codeClass buckets an HTTP status for the code_class label, "1xx" to
// "5xx", without allocating.
func codeClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	case status >= 200:
		return "2xx"
	}
	return "1xx"
}
