package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer samples is one outlier's value.
const minTail = 10

// percentileLadder is the set of percentiles a timing is summarised
// at, in ascending order.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples: the smallest sample with at least p% of the samples
// at or below it. It returns 0 for an empty input.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n > 0
// samples. The tolerance keeps p*n that is whole in decimal (99.9% of
// 10000) from rounding up past itself in binary.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// supported reports whether the p-th percentile of n samples has at
// least minTail samples beyond it.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minTail
}

// topPercentile returns the highest percentile of percentileLadder
// that n samples support, or 0 when even the median lacks minTail
// samples beyond it.
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range percentileLadder {
		if supported(n, p) {
			top = p
		}
	}
	return top
}

// latencies collects one operation type's latencies.
type latencies struct {
	samples []float64 // nanoseconds
}

func (l *latencies) add(d time.Duration) { l.samples = append(l.samples, float64(d)) }

func (l *latencies) merge(o *latencies) { l.samples = append(l.samples, o.samples...) }

// summary is a sorted view of a latency sample.
type summary struct {
	sorted []float64
}

func (l *latencies) summarise() summary {
	s := append([]float64(nil), l.samples...)
	sort.Float64s(s)
	return summary{sorted: s}
}

func (s summary) n() int { return len(s.sorted) }

// at returns the p-th percentile in nanoseconds and whether the sample
// supports it.
func (s summary) at(p float64) (float64, bool) {
	return quantile(s.sorted, p), supported(len(s.sorted), p)
}

func (s summary) mean() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.sorted {
		sum += v
	}
	return sum / float64(len(s.sorted))
}

// openLoopSample is one open-loop request: when it was due, when the
// generator actually sent it, and when it completed.
type openLoopSample struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (s openLoopSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent.
func (s openLoopSample) lateness() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// clock is the time source the open-loop generator schedules against;
// tests substitute a scripted one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpenLoop issues op(i) for i = 0, 1, ... at start + i/rate until
// the next due time is at or past end, one request at a time: a request
// that is late because its predecessor stalled is sent at once, and
// its latency still counts from its due time. A failed request yields
// an error instead of a sample.
func runOpenLoop(c clock, start, end time.Time, rate float64, op func(i int) error) ([]openLoopSample, []error) {
	var samples []openLoopSample
	var errs []error
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return samples, errs
		}
		c.SleepUntil(due)
		sent := c.Now()
		err := op(i)
		done := c.Now()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		samples = append(samples, openLoopSample{due: due, sent: sent, done: done})
	}
}

// quartiles returns the three cut points of values into four groups,
// computed exactly as Python's statistics.quantiles(values, n=4) (the
// default exclusive method, which extrapolates for tiny samples), so
// spreads read the same here as in any external stability check. With
// fewer than two values every cut point is that value (or 0).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	at := func(k int) float64 {
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
