package trace

import (
	"sort"

	"tierdb/internal/metrics"
)

// Ring is the bounded lock-free ring completed spans are published
// into: the metrics package's generic ring over spans. A nil *Ring is
// valid and records nothing.
type Ring = metrics.Ring[Span]

// NewRing builds a ring holding up to capacity spans (minimum 1).
func NewRing(capacity int) *Ring {
	return metrics.NewRing(capacity, func(s *Span) *uint64 { return &s.Seq })
}

// ByTrace returns all spans of one trace still present in r, ordered by
// start time (ties broken by publish sequence so the order is total).
func ByTrace(r *Ring, id TraceID) []*Span {
	if id == 0 {
		return nil
	}
	out := r.Select(func(s *Span) bool { return s.Trace == id })
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNs != out[b].StartNs {
			return out[a].StartNs < out[b].StartNs
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}
