package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Logger writes structured JSON lines — one object per event — to a
// single writer, serialized by a mutex so concurrent requests never
// interleave bytes. Every line carries ts (RFC 3339, UTC) and event;
// callers add the rest. A nil *Logger discards everything, so logging
// call sites need no guards.
type Logger struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogger returns a logger writing JSON lines to w; a nil w yields a
// nil logger, whose methods are no-ops.
func NewLogger(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w}
}

// Log emits one event line. fields must not contain the reserved keys
// "ts" and "event" (they would be overwritten). Keys are rendered in
// sorted order (encoding/json map behavior), so lines are diffable.
func (l *Logger) Log(event string, fields map[string]any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["event"] = event
	line, err := json.Marshal(rec)
	if err != nil {
		// A field that cannot marshal (a channel, a cycle) is a programmer
		// error; degrade to a loggable note rather than dropping the event.
		line, _ = json.Marshal(map[string]any{
			"ts": time.Now().UTC().Format(time.RFC3339Nano), "event": event,
			"error": fmt.Sprintf("unloggable fields: %v", err),
		})
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}

// Request emits the "request" event of one observed request: its IDs,
// method, path, status and duration. The fields are built only when the
// logger writes somewhere.
func (l *Logger) Request(r *http.Request, out RequestOutcome) {
	if l == nil {
		return
	}
	l.Log("request", map[string]any{
		"requestId":  out.ID,
		"traceId":    out.TraceID,
		"method":     r.Method,
		"path":       r.URL.Path,
		"status":     out.Status,
		"durationMs": float64(out.Duration) / float64(time.Millisecond),
	})
}

// WithRequestID returns a context carrying the request ID, propagated by
// the server through every reasoning call so traces, slow-search log
// lines and access-log lines for one request share one key.
func WithRequestID(ctx context.Context, id string) context.Context {
	s := &scope{Context: ctx, id: id}
	if up := scopeOf(ctx); up != nil {
		s.sc, s.hasSpan = up.sc, up.hasSpan
	}
	return s
}

// RequestIDFrom extracts the request ID, "" when none was attached.
func RequestIDFrom(ctx context.Context) string {
	if s := scopeOf(ctx); s != nil {
		return s.id
	}
	return ""
}

// IDSource mints request IDs: a random per-process prefix (so IDs from
// successive restarts do not collide in aggregated logs) plus an atomic
// sequence number. Safe for concurrent use.
type IDSource struct {
	prefix string
	seq    atomic.Uint64
}

// NewIDSource returns an ID source with a fresh random prefix.
func NewIDSource() *IDSource {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness within the process still holds
		// via the sequence number.
		now := time.Now().UnixNano()
		b = [4]byte{byte(now >> 24), byte(now >> 16), byte(now >> 8), byte(now)}
	}
	return &IDSource{prefix: hex.EncodeToString(b[:])}
}

// Next returns the next request ID, e.g. "9f1c2a3b-000042": the prefix
// and the sequence number, zero-padded to six digits.
func (s *IDSource) Next() string {
	var digits [20]byte
	seq := strconv.AppendUint(digits[:0], s.seq.Add(1), 10)
	b := make([]byte, 0, 32)
	b = append(append(b, s.prefix...), '-')
	for i := len(seq); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, seq...))
}

// ValidRequestID reports whether a forwarded X-Request-ID is safe to
// adopt as a log key: non-empty, bounded, printable ASCII with no
// whitespace or control bytes. Anything else is discarded and a fresh
// ID minted — an inbound header must never be able to forge log lines
// or smuggle delimiters into the structured log.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}
