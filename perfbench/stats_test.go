package main

import (
	"errors"
	"testing"
	"time"
)

func TestSupportsNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 0.5, false},
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 500}, {0.9, 900}, {0.99, 990}, {1, 1000}, {0.0001, 1},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(empty) = %v, want 0", got)
	}
}

func TestWeightedQuantile(t *testing.T) {
	// With equal weights it is the nearest-rank quantile.
	xs := make([]float64, 100)
	ones := make([]float64, 100)
	for i := range xs {
		xs[i], ones[i] = float64(100-i), 1
	}
	for _, p := range []float64{0.01, 0.5, 0.9, 1} {
		if got, want := weightedQuantile(xs, ones, p), quantile(sortedCopy(xs), p); got != want {
			t.Errorf("equal weights, p=%v: got %v, want %v", p, got, want)
		}
	}
	// Ten schemas, one timed four times and nine timed once, each schema
	// weighing one in all: the four fast passes of schema 0 count as one
	// schema, so the median is schema 4's time, not a pass of schema 0.
	vals := []float64{1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	weights := []float64{0.25, 0.25, 0.25, 0.25, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := weightedQuantile(vals, weights, 0.5); got != 5 {
		t.Errorf("per-schema weights: median %v, want 5", got)
	}
	if got := weightedQuantile(vals, weights, 0.9); got != 9 {
		t.Errorf("per-schema weights: p90 %v, want 9", got)
	}
	if got := weightedQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

func TestBucketMediansIgnoreOneStalledBucket(t *testing.T) {
	// Five one-second buckets of 100 reads at 1ms, except bucket 2, a
	// stall: 10 reads at 50ms. A trailing partial bucket is dropped.
	var at, lat []float64
	for b := 0; b < 5; b++ {
		n, v := 100, 1.0
		if b == 2 {
			n, v = 10, 50
		}
		for i := 0; i < n; i++ {
			at = append(at, float64(b)+float64(i)/float64(n))
			lat = append(lat, v)
		}
	}
	at, lat = append(at, 5.2), append(lat, 99)
	got := bucketMedians(at, lat, 1, 5.5)
	if got.buckets != 5 || got.minCount != 10 || got.rate != 100 || got.p50 != 1 || got.p90 != 1 {
		t.Fatalf("bucketMedians = %+v, want 5 buckets, min 10, rate 100, p50 1, p90 1", got)
	}
	short := bucketMedians([]float64{0.1, 0.2}, []float64{3, 4}, 1, 0.5)
	if short.buckets != 1 || short.rate != 4 || short.p50 != 3 {
		t.Fatalf("window shorter than a bucket: %+v, want one bucket at 4/s, p50 3", short)
	}
}

func TestSplitSlicesAlternatesUntracedFirst(t *testing.T) {
	d := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		a, b, on, off int
	}{
		{0, 1000, 500, 500}, // four whole slices, the first untraced
		{0, 1100, 500, 600}, // a partial fifth slice is untraced
		{0, 800, 300, 500},  // a partial fourth slice is traced
		{240, 260, 10, 10},  // a fetch across the first boundary
		{300, 310, 10, 0},   // inside the first traced slice
	}
	for _, c := range cases {
		on, off := splitSlices(d(c.a), d(c.b), d(250))
		if on != d(c.on) || off != d(c.off) {
			t.Errorf("splitSlices(%dms, %dms) = %v, %v; want %dms, %dms", c.a, c.b, on, off, c.on, c.off)
		}
	}
}

func TestFamilyLookupSurvivesRename(t *testing.T) {
	old := scrape{"dimsat_cache_hits_total": 5}
	renamed := scrape{"olapdim_cache_hits_total": 9}
	if v, ok := delta(old, renamed, "cache_hits_total"); !ok || v != 4 {
		t.Fatalf("delta across the rename = %v, %v; want 4, true", v, ok)
	}
	if _, ok := delta(old, scrape{}, "cache_hits_total"); ok {
		t.Fatal("a family missing after the window must be absent, not zero")
	}
	l := newLayers()
	l.fromDelta("cache.misses", old, renamed, "cache_misses_total", 1)
	if _, reported := l.result([]string{"cache"})["cache.misses"]; reported {
		t.Fatal("an absent family was reported")
	}
	want := "cache.misses (no cache_misses_total family)"
	found := false
	for _, a := range l.absent {
		found = found || a == want
	}
	if !found {
		t.Fatalf("absent = %v, want it to list %q", l.absent, want)
	}
}

func TestFailedRatioCountsShedsAndWrongAnswers(t *testing.T) {
	var tl tally
	tl.add(classify(200, nil, true))
	tl.add(classify(200, nil, true))
	tl.add(classify(429, nil, true))                // shed
	tl.add(classify(200, nil, false))               // wrong answer
	tl.add(classify(503, nil, true))                // error status
	tl.add(classify(0, errors.New("reset"), false)) // transport error
	tl.add(classify(202, nil, true))                // accepted job
	tl.add(classify(200, nil, true))
	if tl.attempted != 8 || tl.shed != 1 || tl.wrong != 1 || tl.errors != 2 {
		t.Fatalf("tally = %+v", tl)
	}
	if got := tl.failedRatio(); got != 0.5 {
		t.Fatalf("failedRatio = %v, want 0.5", got)
	}
	var empty tally
	if empty.failedRatio() != 0 {
		t.Fatal("empty tally must report ratio 0")
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: "p", Name: "matrix", Start: at(0), End: at(10)},
		// Two pool tasks overlapping on [3,4], a third outlasting the parent.
		{ID: "a", Parent: "p", Name: "task", Start: at(1), End: at(4)},
		{ID: "b", Parent: "p", Name: "task", Start: at(3), End: at(6)},
		{ID: "c", Parent: "p", Name: "task", Start: at(8), End: at(12)},
		// A grandchild is charged to its own parent only.
		{ID: "g", Parent: "a", Name: "probe", Start: at(1), End: at(2)},
	}
	self := selfTimes(spans)
	// Children cover [1,6] ∪ [8,10] = 7ms of the parent's 10ms.
	if got := self["matrix"]; got != 3*time.Millisecond {
		t.Errorf("matrix self = %v, want 3ms", got)
	}
	// a: 3ms minus its 1ms probe; b: 3ms; c: 4ms.
	if got := self["task"]; got != 9*time.Millisecond {
		t.Errorf("task self = %v, want 9ms", got)
	}
	if got := self["probe"]; got != time.Millisecond {
		t.Errorf("probe self = %v, want 1ms", got)
	}
}
