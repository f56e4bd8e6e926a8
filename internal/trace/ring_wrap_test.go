package trace

import (
	"fmt"
	"sync"
	"testing"

	"tierdb/internal/metrics"
)

// TestRingWraparoundConcurrent hammers small rings of both entry kinds —
// completed spans and captured query traces — with many writers so the
// publish sequence wraps many times, snapshotting throughout, then pins
// the exact final window after a sequential tail. For spans it also
// checks that ByTrace filters the same window, ordered by start time.
func TestRingWraparoundConcurrent(t *testing.T) {
	t.Run("spans", func(t *testing.T) {
		r := NewRing(ringCap)
		wraparound(t, r,
			func(m int64) *Span { return &Span{Trace: 1, StartNs: m, EndNs: m, Name: fmt.Sprintf("m%d", m)} },
			func(s *Span) bool { return s.EndNs == s.StartNs && s.Name == fmt.Sprintf("m%d", s.StartNs) },
			func(s *Span) uint64 { return s.Seq })
		byTrace := ByTrace(r, 1)
		if len(byTrace) != ringCap {
			t.Fatalf("ByTrace returned %d spans, want %d", len(byTrace), ringCap)
		}
		for i := 1; i < len(byTrace); i++ {
			if byTrace[i-1].StartNs > byTrace[i].StartNs {
				t.Fatalf("ByTrace not start-ordered at %d", i)
			}
		}
	})
	t.Run("trace entries", func(t *testing.T) {
		wraparound(t, metrics.NewTraceRing(ringCap),
			func(m int64) *metrics.TraceEntry {
				return &metrics.TraceEntry{UnixNano: m, WallNs: m, Err: fmt.Sprintf("m%d", m)}
			},
			func(e *metrics.TraceEntry) bool {
				return e.WallNs == e.UnixNano && e.Err == fmt.Sprintf("m%d", e.UnixNano)
			},
			func(e *metrics.TraceEntry) uint64 { return e.Seq })
	})
}

const ringCap = 8

// wraparound drives one ring through the wrap-around scenario. mk builds
// an entry whose marker fields all derive from one value; intact reports
// whether a read-back entry's markers still agree (no torn entry); seq
// reads the sequence number Add stamped. Every snapshot must hold at
// most Cap entries, newest first, with unique seqs and no torn entries.
func wraparound[T any](t *testing.T, r *metrics.Ring[T], mk func(int64) *T, intact func(*T) bool, seq func(*T) uint64) {
	const (
		writers = 8
		perW    = 400
	)
	check := func(entries []*T) {
		t.Helper()
		if len(entries) > ringCap {
			t.Fatalf("snapshot has %d entries, cap %d", len(entries), ringCap)
		}
		seen := make(map[uint64]bool, len(entries))
		for i, e := range entries {
			if seen[seq(e)] {
				t.Fatalf("duplicate seq %d in snapshot", seq(e))
			}
			seen[seq(e)] = true
			if i > 0 && seq(entries[i-1]) <= seq(e) {
				t.Fatalf("snapshot not newest-first: seq %d before %d", seq(entries[i-1]), seq(e))
			}
			if !intact(e) {
				t.Fatalf("torn entry at seq %d: %+v", seq(e), e)
			}
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				check(r.Snapshot())
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				r.Add(mk(int64(w*perW + i)))
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readers.Wait()

	if got := r.Added(); got != writers*perW {
		t.Fatalf("Added = %d, want %d", got, writers*perW)
	}
	// A slow writer can be the last to store into a slot even though a
	// later seq already landed there, so the concurrent phase only
	// guarantees uniqueness and coherence. A sequential tail of Cap
	// entries deterministically owns every slot: the snapshot must then
	// be exactly the last Cap seqs, descending.
	for i := 0; i < ringCap; i++ {
		r.Add(mk(int64(writers*perW + i)))
	}
	final := r.Snapshot()
	check(final)
	if len(final) != ringCap {
		t.Fatalf("final snapshot has %d entries, want %d", len(final), ringCap)
	}
	added := r.Added()
	for i, e := range final {
		if want := added - 1 - uint64(i); seq(e) != want {
			t.Fatalf("final[%d].Seq = %d, want %d", i, seq(e), want)
		}
	}
}
