// Package api describes dimsatd's reads once. Each entry of Reads names
// a read, gives its route and decodes and validates its query or JSON
// body into Args, from which the coordinator's ring key, the
// server.reason span's detail and a rendered request all derive. dimsatd
// serves each entry through one handler skeleton, the cluster
// coordinator routes it by its key (and answers what the decode refuses
// without forwarding it), and loadgen renders its requests through it.
// The package also holds what both nodes read and write alike: the body
// of a job submit (JobRequest), the JSON error envelope, the body cap's
// 413 and, through Mux, the 404 and 405 of unmatched routes. It links
// only the standard library, so the coordinator stays free of the
// engine.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// MaxBody is the default request-body cap in bytes: dimsatd's default
// -max-body and the coordinator's fixed limit.
const MaxBody = 1 << 20

// MaxSources caps /sources' max. Each of the O(N^max) candidate source
// sets is tested against the walks' reaching sets, so an unbounded size
// would let one request schedule exponential work.
const MaxSources = 3

// Args are the decoded arguments of one read; each read sets the fields
// it takes.
type Args struct {
	Category   string   // sat, explain
	Root       string   // frozen
	Target     string   // summarizable, sources
	From       []string // summarizable: the source categories
	Max        int      // sources: the largest source set, 1 to MaxSources
	Constraint string   // implies: the constraint source as sent
	Provenance bool     // implies: also report the touched set and unsat core
}

// JobRequest is the body of a POST /jobs submit: the reasoning a
// durable job performs. Both nodes decode it with DecodeJSON, so a
// submit gets the same answer from either, and the coordinator keeps
// its copy to resubmit the job on another shard.
type JobRequest struct {
	// Kind is "sat" or "implies".
	Kind string `json:"kind"`
	// Category is the root category of a sat job.
	Category string `json:"category,omitempty"`
	// Constraint is the constraint source text of an implies job.
	Constraint string `json:"constraint,omitempty"`
	// IdempotencyKey, when non-empty, deduplicates submissions: a second
	// submit with the same key returns the existing job instead of
	// creating a new one. The coordinator mints one when the client
	// sends none, so that a resubmit of the job is a retry.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
	// Checkpoint, when non-empty, seeds the job from a base64-encoded
	// core.Checkpoint captured elsewhere — the cross-shard handoff path:
	// a cluster coordinator re-enqueues a dead worker's job here with its
	// last mirrored checkpoint, and the first attempt resumes the search
	// instead of restarting it. The checkpoint must pin the exact schema
	// the worker would search for the request (its schema for sat, the
	// negation reduction for implies) or the submit is refused.
	Checkpoint string `json:"checkpoint,omitempty"`
	// TraceContext, when non-empty, is the W3C traceparent of the
	// distributed trace this job belongs to. It is persisted with the job
	// record (snapshot v2), so the trace ID survives crashes, restarts
	// and cross-shard handoff: every lifecycle span of every attempt —
	// on whichever worker runs it — parents into the same trace.
	TraceContext string `json:"traceContext,omitempty"`
}

// Op describes one read.
type Op struct {
	// Name is the loadgen operation and the prefix of the ring key.
	Name string
	// Method and Path are the route; Path is also the endpoint the
	// server.reason span names.
	Method, Path string
	// Decode reads the arguments from a GET's query or from the first
	// JSON value of a POST's body, which both nodes read whole first
	// (ReadBody). Refuse answers the error it returns for a missing or
	// malformed argument: the 400 both nodes answer.
	Decode func(r *http.Request, body io.Reader) (Args, error)
	// Key is the coordinator's ring key for a request.
	Key func(Args) string
	// Detail is the server.reason span's detail, "" for no arguments.
	Detail func(Args) string
	// Render renders a request: its path with the query, and its JSON
	// body ("" for a GET).
	Render func(Args) (path, body string)
}

// The reads. Explain routes with sat's key: both decide the same
// (schema, category) verdict, so one shard's SatCache serves both.
var (
	Schema     = fixed("schema")
	Categories = fixed("categories")
	Sat        = category("sat")
	Explain    = category("explain")
	Implies    = &Op{Name: "implies", Method: http.MethodPost, Path: "/implies",
		Decode: func(_ *http.Request, body io.Reader) (Args, error) {
			var req impliesRequest
			err := DecodeJSON(body, &req)
			return Args{Constraint: req.Constraint, Provenance: req.Provenance}, err
		},
		Key:    func(a Args) string { return "implies/" + a.Constraint },
		Detail: func(a Args) string { return "constraint=" + a.Constraint },
		Render: func(a Args) (string, string) {
			return "/implies", mustJSON(impliesRequest{a.Constraint, a.Provenance})
		},
	}
	Summarizable = &Op{Name: "summarizable", Method: http.MethodPost, Path: "/summarizable",
		Decode: func(_ *http.Request, body io.Reader) (Args, error) {
			var req summarizableRequest
			err := DecodeJSON(body, &req)
			return Args{Target: req.Target, From: req.From}, err
		},
		Key:    func(a Args) string { return "summarizable/" + a.Target },
		Detail: func(a Args) string { return fmt.Sprintf("target=%s from=%v", a.Target, a.From) },
		Render: func(a Args) (string, string) {
			return "/summarizable", mustJSON(summarizableRequest{a.From, a.Target})
		},
	}
	Frozen = &Op{Name: "frozen", Method: http.MethodGet, Path: "/frozen",
		Decode: func(r *http.Request, _ io.Reader) (Args, error) {
			root, err := required(r.URL.Query(), "root")
			return Args{Root: root}, err
		},
		Key:    func(a Args) string { return "frozen/" + a.Root },
		Detail: func(a Args) string { return "root=" + a.Root },
		Render: func(a Args) (string, string) { return "/frozen?root=" + url.QueryEscape(a.Root), "" },
	}
	Matrix  = fixed("matrix")
	Sources = &Op{Name: "sources", Method: http.MethodGet, Path: "/sources",
		Decode: decodeSources,
		Key:    func(a Args) string { return "sources/" + a.Target },
		Detail: func(a Args) string { return fmt.Sprintf("target=%s max=%d", a.Target, a.Max) },
		Render: func(a Args) (string, string) {
			return fmt.Sprintf("/sources?max=%d&target=%s", a.Max, url.QueryEscape(a.Target)), ""
		},
	}
)

// Reads lists every read.
var Reads = []*Op{Schema, Categories, Sat, Explain, Implies, Summarizable, Frozen, Matrix, Sources}

// Lookup returns the read named name, or nil.
func Lookup(name string) *Op {
	for _, op := range Reads {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Pattern is the http.ServeMux pattern of op's route.
func (op *Op) Pattern() string { return op.Method + " " + op.Path }

// fixed is a GET read that takes no arguments, keyed by its name.
func fixed(name string) *Op {
	return &Op{Name: name, Method: http.MethodGet, Path: "/" + name,
		Decode: func(*http.Request, io.Reader) (Args, error) { return Args{}, nil },
		Key:    func(Args) string { return name },
		Detail: func(Args) string { return "" },
		Render: func(Args) (string, string) { return "/" + name, "" },
	}
}

// category is a GET read of one category: /sat and /explain, which
// share their ring key.
func category(name string) *Op {
	return &Op{Name: name, Method: http.MethodGet, Path: "/" + name,
		Decode: func(r *http.Request, _ io.Reader) (Args, error) {
			c, err := required(r.URL.Query(), "category")
			return Args{Category: c}, err
		},
		Key:    func(a Args) string { return "sat/" + a.Category },
		Detail: func(a Args) string { return "category=" + a.Category },
		Render: func(a Args) (string, string) { return "/" + name + "?category=" + url.QueryEscape(a.Category), "" },
	}
}

// impliesRequest and summarizableRequest are the POST bodies. Their type
// names appear in the messages of JSON type errors, and their fields
// render in key order, as a map's would.
type impliesRequest struct {
	Constraint string `json:"constraint"`
	Provenance bool   `json:"provenance,omitempty"`
}

type summarizableRequest struct {
	From   []string `json:"from"`
	Target string   `json:"target"`
}

// decodeSources reads /sources' target and its max, 2 when absent.
func decodeSources(r *http.Request, _ io.Reader) (Args, error) {
	q := r.URL.Query()
	target, err := required(q, "target")
	if err != nil {
		return Args{}, err
	}
	a := Args{Target: target, Max: 2}
	if s := q.Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return Args{}, errors.New("max must be a positive integer")
		}
		if n > MaxSources {
			return Args{}, fmt.Errorf("max exceeds the limit of %d", MaxSources)
		}
		a.Max = n
	}
	return a, nil
}

func required(q url.Values, name string) (string, error) {
	v := q.Get(name)
	if v == "" {
		return "", fmt.Errorf("missing %s parameter", name)
	}
	return v, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("api: marshaling a request body: %v", err))
	}
	return string(b)
}

// ReadBody reads all of r's body, at most limit bytes of it (no cap when
// limit <= 0). Both nodes read every POST body they serve with it, so
// the whole body counts against the cap; Refuse answers a read past the
// cap 413.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := io.Reader(r.Body)
	if limit > 0 {
		body = http.MaxBytesReader(w, r.Body, limit)
	}
	b, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return b, nil
}

// DecodeJSON decodes the first JSON value of body into v.
func DecodeJSON(body io.Reader, v any) error {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	return nil
}

// WriteJSON answers status with v as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers status with the JSON error envelope,
// {"error": message}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// Refuse answers err, as Decode, DecodeJSON or ReadBody returned it, and
// reports the status written: 413 for a body past its cap, else 400.
func Refuse(w http.ResponseWriter, err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return http.StatusRequestEntityTooLarge
	}
	WriteError(w, http.StatusBadRequest, "%v", err)
	return http.StatusBadRequest
}
