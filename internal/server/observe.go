package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/obs"
)

// statusWriter captures the response status so the completion middleware
// can label the request counter and latency histogram by status class.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// codeClass buckets an HTTP status for the code_class metric label:
// "2xx", "4xx", "5xx", ...
func codeClass(status int) string {
	return fmt.Sprintf("%dxx", status/100)
}

// reasoning is the per-request observability scope of one reasoning
// handler: a derived context under the request timeout, a fresh effort
// sink, and — on sampled requests — a structured search tracer. Handlers
// call beginReasoning after validating their input, run the engine with
// rz.ctx and rz.opts, and defer rz.finish, which records the effort
// histograms, the slow-search log line, and the ring trace.
type reasoning struct {
	s      *Server
	ctx    context.Context
	cancel context.CancelFunc

	id       string
	endpoint string
	// detail carries the request argument (category, root, target); set
	// by the handler before finish runs.
	detail string
	start  time.Time

	// sc is the request's span context (scOK when one was attached), so
	// the reasoning phase can be recorded as a child span and the
	// slow-search log line can name the trace.
	sc   obs.SpanContext
	scOK bool

	opts   core.Options
	effort *core.EffortSink
	tracer *obs.SearchTracer
}

// beginReasoning opens the observability scope for one reasoning
// request. Every request gets its own EffortSink so per-request search
// effort lands in the histograms even when the engine answers several
// sub-searches (the matrix's per-bottom walks, per-bottom implications).
// Every traceEvery-th request additionally carries a SearchTracer; a traced
// request bypasses the shared cache and runs serially (core semantics
// for Options.Tracer), which is exactly what makes its EXPAND/CHECK
// sequence complete — hence sampling rather than always-on tracing.
func (s *Server) beginReasoning(r *http.Request, endpoint string) *reasoning {
	ctx, cancel := s.requestContext(r)
	rz := &reasoning{
		s:        s,
		ctx:      ctx,
		cancel:   cancel,
		id:       obs.RequestIDFrom(r.Context()),
		endpoint: endpoint,
		start:    time.Now(),
		opts:     s.opts,
		effort:   &core.EffortSink{},
	}
	rz.sc, rz.scOK = obs.SpanFrom(r.Context())
	rz.opts.Effort = rz.effort
	if s.traceEvery > 0 && (s.traceSeq.Add(1)-1)%int64(s.traceEvery) == 0 {
		rz.tracer = obs.NewSearchTracer(s.traceEvents)
		rz.opts.Tracer = rz.tracer
	}
	return rz
}

// finish closes the scope: it cancels the derived context, feeds the
// request's search effort into the histograms, emits the slow-search
// log line when the expansion threshold was crossed, and stores the
// structured trace (when this request was sampled) under the request ID
// for GET /debug/traces/{id}.
func (rz *reasoning) finish() {
	rz.cancel()
	s := rz.s
	st := rz.effort.Stats()
	traceID := ""
	if rz.scOK && rz.sc.Sampled {
		traceID = rz.sc.TraceID
	}
	s.met.searchExpansions.ObserveWithExemplar(float64(st.Expansions), traceID)
	s.met.searchChecks.Observe(float64(st.Checks))
	s.met.searchBacktracks.Observe(float64(st.DeadEnds))

	durMS := float64(time.Since(rz.start)) / float64(time.Millisecond)
	slow := s.slowExpansions > 0 && st.Expansions >= s.slowExpansions
	if slow {
		s.met.slowSearches.Inc()
		s.logger.Log("slow_search", map[string]any{
			"requestId":  rz.id,
			"traceId":    rz.sc.TraceID,
			"endpoint":   rz.endpoint,
			"detail":     rz.detail,
			"schema":     s.fingerprint,
			"expansions": st.Expansions,
			"checks":     st.Checks,
			"deadEnds":   st.DeadEnds,
			"durationMs": durMS,
			"threshold":  s.slowExpansions,
		})
	}
	if rz.scOK && rz.sc.Sampled {
		sp := &obs.Span{
			TraceID:    rz.sc.TraceID,
			SpanID:     obs.NewSpanID(),
			ParentID:   rz.sc.SpanID,
			Name:       "server.reason",
			Kind:       "internal",
			Start:      rz.start,
			DurationMS: durMS,
			Status:     "ok",
		}
		sp.SetAttr("endpoint", rz.endpoint)
		if rz.detail != "" {
			sp.SetAttr("detail", rz.detail)
		}
		sp.SetAttr("expansions", fmt.Sprint(st.Expansions))
		s.spans.Add(sp)
	}
	if rz.tracer != nil && rz.id != "" {
		events, truncated := rz.tracer.Events()
		s.ring.Put(&obs.Trace{
			ID:         rz.id,
			Endpoint:   rz.endpoint,
			Detail:     rz.detail,
			Schema:     s.fingerprint,
			Start:      rz.start,
			DurationMS: durMS,
			Expansions: st.Expansions,
			Checks:     st.Checks,
			DeadEnds:   st.DeadEnds,
			Slow:       slow,
			Truncated:  truncated,
			Events:     events,
		})
		s.met.tracesRecorded.Inc()
	}
}

// traceListResponse is the GET /debug/traces body.
type traceListResponse struct {
	Capacity int `json:"capacity"`
	Count    int `json:"count"`
	// IDs lists retained request IDs, newest first.
	IDs []string `json:"ids"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, traceListResponse{
		Capacity: s.ring.Cap(), Count: s.ring.Len(), IDs: s.ring.IDs(),
	})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.ring.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no trace retained for request %q (tracing samples every %d requests)", id, s.traceEvery)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// spanListResponse is the GET /debug/spans body: which traces this node
// retains spans for, newest first.
type spanListResponse struct {
	Node     string   `json:"node,omitempty"`
	Spans    int      `json:"spans"`
	TraceIDs []string `json:"traceIds"`
}

// spanTraceResponse is the GET /debug/spans/{traceID} body — also the
// wire format the coordinator's /cluster/trace fan-out consumes.
type spanTraceResponse struct {
	TraceID string     `json:"traceId"`
	Node    string     `json:"node,omitempty"`
	Spans   []obs.Span `json:"spans"`
}

func (s *Server) handleSpanList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, spanListResponse{
		Node: s.spans.Node(), Spans: s.spans.Len(), TraceIDs: s.spans.TraceIDs(),
	})
}

func (s *Server) handleSpanTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceID")
	spans := s.spans.Trace(id)
	if spans == nil {
		writeErr(w, http.StatusNotFound, "no spans retained for trace %q", id)
		return
	}
	writeJSON(w, http.StatusOK, spanTraceResponse{TraceID: id, Node: s.spans.Node(), Spans: spans})
}
