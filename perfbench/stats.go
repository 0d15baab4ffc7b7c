package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie above a percentile before the
// benchmark reports that percentile as supported by its sample.
const minTail = 10

// rank is the 1-based nearest-rank position of quantile p among n
// samples. The small epsilon keeps p·n from rounding up past an exact
// rank (0.99·1000 is not exactly 990 in binary).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supports reports whether n samples leave at least minTail samples
// beyond the nearest-rank p-quantile.
func supports(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// quantile returns the nearest-rank p-quantile of sorted samples: always
// one of the measured values, never an interpolation. Zero when empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// weightedQuantile returns the smallest of vals at which the cumulative
// weight, in ascending order of vals, reaches p of the total weight:
// always one of the measured values, and the nearest-rank quantile when
// every weight is equal. Zero when empty.
func weightedQuantile(vals, weights []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := make([]int, len(vals))
	total := 0.0
	for i, w := range weights {
		idx[i] = i
		total += w
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	acc, target := 0.0, p*total*(1-1e-9)
	for _, i := range idx {
		acc += weights[i]
		if acc >= target {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// bucketed is the per-bucket view of a measured window.
type bucketed struct {
	rate, p50, p90 float64 // medians over buckets
	buckets        int
	minCount       int // fewest samples in one bucket
}

// bucketMedians cuts a window of span seconds into consecutive buckets
// of w seconds, drops a trailing partial bucket (a window shorter than w
// is one bucket), assigns each sample to the bucket holding its time
// stamp at, and returns the median over buckets of each bucket's rate
// (samples per second), p50 and p90 of vals.
func bucketMedians(at, vals []float64, w, span float64) bucketed {
	n := int(span / w)
	if n < 1 {
		n, w = 1, span
	}
	per := make([][]float64, n)
	for i, t := range at {
		if b := int(t / w); b >= 0 && b < n {
			per[b] = append(per[b], vals[i])
		}
	}
	var rates, p50s, p90s []float64
	out := bucketed{buckets: n, minCount: len(at)}
	for _, xs := range per {
		sort.Float64s(xs)
		rates = append(rates, float64(len(xs))/w)
		p50s = append(p50s, quantile(xs, 0.5))
		p90s = append(p90s, quantile(xs, 0.9))
		if len(xs) < out.minCount {
			out.minCount = len(xs)
		}
	}
	out.rate, out.p50, out.p90 = median(rates), median(p50s), median(p90s)
	return out
}

// splitSlices splits the interval [a, b), given as offsets into a
// window, into the time it spends in traced slices (the odd-numbered
// slices of length slice) and in untraced ones.
func splitSlices(a, b, slice time.Duration) (on, off time.Duration) {
	for a < b {
		end := min((a/slice+1)*slice, b)
		if (a/slice)%2 == 1 {
			on += end - a
		} else {
			off += end - a
		}
		a = end
	}
	return on, off
}

// mean is the arithmetic mean of xs, zero when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, zero when b is zero (a per-op figure over no ops).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome classifies one operation. Everything but ok counts as a
// failure: a shed request and a wrong answer fail just like an error.
type outcome int

const (
	ok outcome = iota
	shed
	errored
	wrong
)

// classify maps one HTTP exchange to its outcome: a transport error or a
// non-2xx status is an error, 429 is a shed, and a 2xx whose body differs
// from the in-process answer is wrong.
func classify(status int, err error, matches bool) outcome {
	switch {
	case err != nil:
		return errored
	case status == 429:
		return shed
	case status < 200 || status > 299:
		return errored
	case !matches:
		return wrong
	}
	return ok
}

// tally counts attempted operations by outcome.
type tally struct {
	attempted, shed, errors, wrong int64
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case shed:
		t.shed++
	case errored:
		t.errors++
	case wrong:
		t.wrong++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.shed += o.shed
	t.errors += o.errors
	t.wrong += o.wrong
}

func (t tally) failed() int64 { return t.shed + t.errors + t.wrong }

// failedRatio is failed over attempted operations.
func (t tally) failedRatio() float64 { return ratio(float64(t.failed()), float64(t.attempted)) }

// span is one timed call into a layer, recorded by the benchmark itself
// or fetched from a server's span store.
type span struct {
	ID, Parent, Name string
	Start, End       time.Time
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval covered by its children. Children may
// overlap each other (a worker pool runs tasks side by side) and may
// outlast the parent; only the union of their intervals, clipped to the
// parent, is subtracted.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.End.Sub(s.Start) - covered(s, kids[s.ID])
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type interval struct{ a, b time.Time }
	var ivs []interval
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, interval{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = iv
			continue
		}
		if iv.b.After(cur.b) {
			cur.b = iv.b
		}
	}
	return total + cur.b.Sub(cur.a)
}
