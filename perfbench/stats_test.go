package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"tierdb/internal/trace"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := quantile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if v, ok := (summary{sorted: s}).at(95); !ok || v != 190 {
		t.Errorf("p95 of 200 samples = %g supported=%v, want 190 supported", v, ok)
	}
	if _, ok := (summary{sorted: s[:199]}).at(95); ok {
		t.Error("p95 of 199 samples reported as supported")
	}
}

// The stability check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 12, 11, 13, 50, 9, 10.5, 11.5, 12.5, 10.2}, [3]float64{10.15, 11.25, 12.625}},
	} {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, med, q3, c.want)
				break
			}
		}
	}
}

// scriptedClock advances only when the generator sleeps or an operation
// takes time.
type scriptedClock struct{ now time.Time }

func (c *scriptedClock) Now() time.Time { return c.now }

func (c *scriptedClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	start := time.Unix(1000, 0)
	clk := &scriptedClock{now: start}
	// 100 requests/s: one due every 10ms. Request 1 stalls for 35ms,
	// delaying requests 2-4 behind it.
	took := []time.Duration{1 * ms, 35 * ms, 1 * ms, 1 * ms, 1 * ms, 1 * ms}
	samples, errs := runOpenLoop(clk, start, start.Add(60*ms), 100, func(i int) error {
		clk.now = clk.now.Add(took[i])
		return nil
	})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	wantLatency := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms, 1 * ms}
	wantLate := []time.Duration{0, 0, 25 * ms, 16 * ms, 7 * ms, 0}
	if len(samples) != len(wantLatency) {
		t.Fatalf("%d samples, want %d", len(samples), len(wantLatency))
	}
	for i, s := range samples {
		if s.latency() != wantLatency[i] || s.lateness() != wantLate[i] {
			t.Errorf("request %d: latency %v lateness %v, want %v and %v",
				i, s.latency(), s.lateness(), wantLatency[i], wantLate[i])
		}
	}
}

func TestOpenLoopKeepsScheduleAndCountsErrors(t *testing.T) {
	start := time.Unix(0, 0)
	clk := &scriptedClock{now: start}
	var sentAt []time.Duration
	samples, errs := runOpenLoop(clk, start, start.Add(time.Second), 4, func(i int) error {
		sentAt = append(sentAt, clk.now.Sub(start))
		if i == 1 {
			return errors.New("refused")
		}
		return nil
	})
	// Requests are due at 0, 250, 500 and 750ms; the failed one yields
	// an error, not a sample, and does not shift the schedule.
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond}
	if len(sentAt) != len(want) || len(samples) != 3 || len(errs) != 1 {
		t.Fatalf("sent at %v, %d samples, %d errors; want %v, 3, 1", sentAt, len(samples), len(errs), want)
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Errorf("request %d sent at %v, want %v", i, sentAt[i], want[i])
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	root := &trace.Span{ID: 1, Name: "client.send", StartNs: 0, EndNs: 100}
	req := &trace.Span{ID: 2, Parent: 1, Name: "server.request", StartNs: 10, EndNs: 90}
	// Overlapping children count once; a child sticking out of its
	// parent counts only inside it.
	a := &trace.Span{ID: 3, Parent: 2, Name: "exec.scan", StartNs: 20, EndNs: 50}
	b := &trace.Span{ID: 4, Parent: 2, Name: "exec.probe", StartNs: 40, EndNs: 60}
	c := &trace.Span{ID: 5, Parent: 2, Name: "exec.materialize", StartNs: 80, EndNs: 95}
	got := selfTimes([]*trace.Span{root, req, a, b, c})
	want := map[*trace.Span]time.Duration{root: 20, req: 30, a: 30, b: 20, c: 15}
	for s, w := range want {
		if got[s] != w {
			t.Errorf("%s self time %v, want %v", s.Name, got[s], w)
		}
	}
}
