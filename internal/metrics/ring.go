package metrics

import (
	"sort"
	"sync/atomic"
)

// TraceEntry is one captured query execution in a TraceRing: the trace
// itself plus wall-clock context the executor measured around it.
type TraceEntry struct {
	// Seq is the entry's position in the capture sequence (monotone,
	// starts at 0); it survives ring wrap-around, so consumers can tell
	// how many entries were dropped between two snapshots.
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock start time of the query.
	UnixNano int64 `json:"unix_nano"`
	// WallNs is the query's wall-clock duration in nanoseconds (as
	// opposed to the trace's modeled DRAMNs/DeviceNs).
	WallNs int64 `json:"wall_ns"`
	// Err carries the query's error text when it failed (the trace is
	// then partially filled).
	Err string `json:"err,omitempty"`
	// TraceID links the entry to its distributed trace (16 hex digits)
	// when the query ran under a sampled request span; /trace/{id} on
	// the observability server resolves it to the full span tree.
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the per-query execution trace.
	Trace *Trace `json:"trace"`
}

// TraceRing is the bounded ring of recently captured query traces.
type TraceRing = Ring[TraceEntry]

// NewTraceRing builds a ring holding up to capacity trace entries
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	return NewRing(capacity, func(e *TraceEntry) *uint64 { return &e.Seq })
}

// Ring is a bounded lock-free ring of recent entries — captured query
// traces here, completed spans in the trace package. Writers claim a
// slot with one atomic add and publish the entry with one atomic
// pointer store; the ring never holds more than its capacity — older
// entries are overwritten. Readers get a point-in-time copy via
// Snapshot. A nil *Ring is valid and records nothing, so capture call
// sites need no branches.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	seq   func(*T) *uint64 // the entry's capture-sequence field
}

// NewRing builds a ring holding up to capacity entries (minimum 1);
// seq returns the field of an entry that Add stamps with its capture
// sequence number.
func NewRing[T any](capacity int, seq func(*T) *uint64) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], capacity), seq: seq}
}

// Add stamps e with its capture sequence number (monotone from 0; it
// survives wrap-around, so consumers can tell how many entries were
// dropped between two snapshots) and stores it in the next slot,
// overwriting the oldest entry once the ring is full. No-op on a nil
// ring or entry.
func (r *Ring[T]) Add(e *T) {
	if r == nil || e == nil {
		return
	}
	seq := r.next.Add(1) - 1
	*r.seq(e) = seq
	r.slots[seq%uint64(len(r.slots))].Store(e)
}

// Cap returns the ring's capacity (0 on nil).
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Added returns the total number of entries ever added (0 on nil);
// entries beyond Cap have been overwritten.
func (r *Ring[T]) Added() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the ring's current entries, newest first, at most
// Cap of them. Concurrent writers may overwrite slots while the
// snapshot is taken; each returned entry is still internally consistent
// (the pointer swap is atomic), but the set may mix generations.
func (r *Ring[T]) Snapshot() []*T { return r.Select(nil) }

// Select is Snapshot restricted to the entries keep accepts (nil keeps
// all).
func (r *Ring[T]) Select(keep func(*T) bool) []*T {
	if r == nil {
		return nil
	}
	var out []*T
	if keep == nil {
		out = make([]*T, 0, len(r.slots))
	}
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && (keep == nil || keep(e)) {
			out = append(out, e)
		}
	}
	// Newest first; sequence numbers are unique, so the order is total.
	sort.Slice(out, func(a, b int) bool { return *r.seq(out[a]) > *r.seq(out[b]) })
	return out
}
