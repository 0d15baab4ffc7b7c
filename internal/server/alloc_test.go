package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"olapdim/internal/obs"
	"olapdim/internal/paper"
)

// warmReads are the four reads of the served mix, each with the
// allocation ceiling of one sampled, warm answer through Server.ServeHTTP.
// 11 allocations of each are the test's own httptest request and
// recorder.
var warmReads = []struct {
	method, target, body string
	ceiling              float64
}{
	{"GET", "/sat?category=Store", "", 44},
	{"POST", "/implies", `{"constraint":"Store.Country"}`, 57},
	{"POST", "/summarizable", `{"target":"Country","from":["City"]}`, 78},
	{"GET", "/sources?target=Country&max=2", "", 93},
}

// TestWarmReadAllocationCeiling pins what a sampled read costs around a
// SatCache hit: its spans, IDs, headers and reasoning scope, under a
// request timeout as dimsatd sets one.
func TestWarmReadAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	s, err := NewWithConfig(paper.LocationSch(), Config{
		RequestTimeout: 10 * time.Second,
		SpanSample:     1,
		Spans:          obs.NewSpanStore(64, "test"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range warmReads {
		serve := func() {
			req := httptest.NewRequest(rd.method, rd.target, strings.NewReader(rd.body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s = %d: %s", rd.method, rd.target, rec.Code, rec.Body)
			}
		}
		serve() // warm the cache
		got := testing.AllocsPerRun(200, serve)
		t.Logf("%s %s: %.1f allocations", rd.method, rd.target, got)
		if got > rd.ceiling {
			t.Errorf("%s %s allocates %.1f times, ceiling %.0f", rd.method, rd.target, got, rd.ceiling)
		}
	}
}
