package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"olapdim/internal/core"
	"olapdim/internal/obs"
)

// reasoning is the per-request observability scope of one reasoning
// read: the request's context, options carrying the request deadline,
// and a fresh effort sink. The handler skeleton (Server.serve) opens it
// after the table's decode, runs the read with rz.ctx and rz.opts, and
// defers rz.finish, which records the effort histograms, the slow-search
// log line and, on sampled requests, the server.reason span.
type reasoning struct {
	s   *Server
	ctx context.Context

	id       string
	endpoint string
	// detail carries the request arguments (category, root, target), as
	// the table's Op.Detail renders them.
	detail string
	start  time.Time

	// sc is the request's span context (zero when none was attached), so
	// the reasoning phase can be recorded as a child span and the
	// slow-search log line can name the trace.
	sc obs.SpanContext

	opts   core.Options
	effort core.EffortSink
}

// beginReasoning opens the observability scope for one reasoning
// request. Every request gets its own EffortSink so per-request search
// effort lands in the histograms even when the engine answers several
// sub-searches (the matrix's per-bottom walks, per-bottom implications).
// Observation never changes the work: a sampled request runs with the
// same options, shared cache and pool as an unsampled one.
//
// The request timeout goes to the engine as Options.Deadline rather than
// as a derived context: the engine derives one only when it searches or
// waits on another request's search, so a warm hit starts no timer.
func (s *Server) beginReasoning(r *http.Request, endpoint, detail string) *reasoning {
	rz := &reasoning{
		s:        s,
		ctx:      r.Context(),
		endpoint: endpoint,
		detail:   detail,
		start:    time.Now(),
		opts:     s.opts,
	}
	rz.id = obs.RequestIDFrom(rz.ctx)
	rz.sc, _ = obs.SpanFrom(rz.ctx)
	if s.timeout > 0 {
		rz.opts.Deadline = rz.start.Add(s.timeout)
	}
	rz.opts.Effort = &rz.effort
	return rz
}

// finish closes the scope: it feeds the request's search effort into
// the histograms, emits the slow-search log line when the expansion
// threshold was crossed, and records the server.reason span when the
// request's trace is sampled. The span carries the schema fingerprint,
// the request argument and the search effort; `dimsat trace` or a
// core.Options.Tracer replays the search's EXPAND/CHECK sequence from
// them.
func (rz *reasoning) finish() {
	s := rz.s
	st := rz.effort.Stats()
	traceID := ""
	if rz.sc.Sampled {
		traceID = rz.sc.TraceID
	}
	s.spans.ObserveExemplar(s.met.searchExpansions, float64(st.Expansions), traceID)
	s.met.searchChecks.Observe(float64(st.Checks))
	s.met.searchBacktracks.Observe(float64(st.DeadEnds))

	durMS := float64(time.Since(rz.start)) / float64(time.Millisecond)
	if s.slowExpansions > 0 && st.Expansions >= s.slowExpansions {
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
	if rz.sc.Sampled {
		sp := obs.Span{
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
		sp.SetAttr("schema", s.fingerprint)
		sp.SetAttr("expansions", strconv.Itoa(st.Expansions))
		sp.SetAttr("checks", strconv.Itoa(st.Checks))
		sp.SetAttr("deadEnds", strconv.Itoa(st.DeadEnds))
		s.spans.Add(&sp)
	}
}
