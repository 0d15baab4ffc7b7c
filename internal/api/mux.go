package api

import (
	"net/http"
	"strings"
)

// Mux is an http.ServeMux whose unmatched requests get the JSON error
// envelope: 405 with the Allow header when the path serves other methods
// (HEAD wherever GET is, as in ServeMux), else 404. Its catch-all route
// finds the allowed methods by routing the request once per method, so
// a matched request routes as through any ServeMux.
type Mux struct{ http.ServeMux }

// NewMux returns a Mux with no routes.
func NewMux() *Mux {
	m := &Mux{}
	m.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allow []string // sorted, as ServeMux lists them
		for _, method := range []string{"DELETE", "GET", "HEAD", "OPTIONS", "PATCH", "POST", "PUT", "TRACE"} {
			probe := r.Clone(r.Context())
			probe.Method = method
			if _, pattern := m.Handler(probe); pattern != "/" {
				allow = append(allow, method)
			}
		}
		if allow == nil {
			WriteError(w, http.StatusNotFound, "no route for %s", r.URL.Path)
			return
		}
		w.Header().Set("Allow", strings.Join(allow, ", "))
		WriteError(w, http.StatusMethodNotAllowed, "method %s not allowed on %s", r.Method, r.URL.Path)
	})
	return m
}

// ServeHTTP routes r. ServeMux answers the asterisk request target
// ("OPTIONS * HTTP/1.1") with a bare 400 before routing; Mux gives that
// 400 the envelope.
func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		w.Header().Set("Connection", "close")
		WriteError(w, http.StatusBadRequest, "request target * is not served")
		return
	}
	m.ServeMux.ServeHTTP(w, r)
}
