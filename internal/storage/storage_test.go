package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"tierdb/internal/device"
)

func testStoreRoundTrip(t *testing.T, s Store) {
	t.Helper()
	id1, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("Allocate returned duplicate id %d", id1)
	}
	if s.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s.NumPages())
	}
	w := make([]byte, PageSize)
	for i := range w {
		w[i] = byte(i % 251)
	}
	if err := s.WritePage(id2, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, PageSize)
	if err := s.ReadPage(id2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("page round trip corrupted data")
	}
	// Fresh page reads back zeroed.
	if err := s.ReadPage(id1, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, make([]byte, PageSize)) {
		t.Error("fresh page not zeroed")
	}
	// Out-of-range and bad buffer sizes error.
	if err := s.ReadPage(99, r); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range read: %v", err)
	}
	if err := s.WritePage(99, w); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range write: %v", err)
	}
	if err := s.ReadPage(id1, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := s.WritePage(id1, make([]byte, 10)); err == nil {
		t.Error("short write buffer accepted")
	}
}

func TestMemStore(t *testing.T) {
	testStoreRoundTrip(t, NewMemStore())
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testStoreRoundTrip(t, s)
	if s.Path() != path {
		t.Errorf("Path = %q, want %q", s.Path(), path)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 200; i++ {
				id := ids[(g*31+i)%pages]
				for j := range buf {
					buf[j] = byte(g)
				}
				if err := s.WritePage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := s.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTimedStoreChargesClock(t *testing.T) {
	var clock Clock
	ts := NewTimedStore(NewMemStore(), device.XPoint, &clock, 1)
	id, err := ts.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	const n = 100
	for i := 0; i < n; i++ {
		if err := ts.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if clock.Elapsed() != 0 || clock.Reads() != 0 {
		t.Fatal("page IO booked time by itself; only a settled ledger may")
	}
	c := Charge(ts, Ledger{PageReads: n})
	want := device.XPoint.RandomReadTime(n, 1)
	if got := clock.Elapsed(); got != want || c.Read != want {
		t.Errorf("clock = %v, cost = %v, want %v", got, c.Read, want)
	}
	if clock.Reads() != n {
		t.Errorf("Reads = %d, want %d", clock.Reads(), n)
	}
	clock.Reset()
	if clock.Elapsed() != 0 || clock.Reads() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestTimedStoreWriteCharges(t *testing.T) {
	var clock Clock
	ts := NewTimedStore(NewMemStore(), device.CSSD, &clock, 1)
	Charge(ts, Ledger{PageWrites: 1})
	if clock.Elapsed() != device.CSSD.WriteLatency {
		t.Errorf("write charged %v, want %v", clock.Elapsed(), device.CSSD.WriteLatency)
	}
	if clock.Reads() != 0 {
		t.Errorf("a write booked %d reads", clock.Reads())
	}
}

func TestTimedStoreThreads(t *testing.T) {
	var qd1, qd8 Clock
	Charge(NewTimedStore(NewMemStore(), device.HDD, &qd1, 1), Ledger{PageReads: 1})
	ts := NewTimedStore(NewMemStore(), device.HDD, &qd8, 8)
	Charge(ts, Ledger{PageReads: 1})
	if qd8.Elapsed() <= qd1.Elapsed() {
		t.Error("HDD concurrent read should be slower than QD1")
	}
	if ts.Profile().Name != "HDD" {
		t.Errorf("Profile = %q", ts.Profile().Name)
	}
}

func TestPriceLinearAndParallelShare(t *testing.T) {
	one := Price(device.XPoint, 1, Ledger{PageReads: 1, Touches: 1})
	many := Price(device.XPoint, 1, Ledger{PageReads: 7, Touches: 7})
	if many.Read != 7*one.Read || many.DRAM != 7*one.DRAM || one.DRAM != DRAMTouch {
		t.Errorf("serial price not linear: one %+v, seven %+v", one, many)
	}
	var sum Ledger
	sum.Add(Ledger{PageReads: 3, Touches: 2})
	sum.Add(Ledger{PageReads: 4, Touches: 5})
	if Price(device.XPoint, 1, sum) != many {
		t.Error("a summed ledger must price like its parts")
	}
	// A 4-worker phase costs its per-worker share, rounded up, at four
	// concurrent streams.
	par := Price(device.XPoint, 1, Ledger{Workers: 4, PageReads: 10, Touches: 3})
	if want := (10*device.XPoint.RandomReadTime(1, 4) + 3) / 4; par.Read != want {
		t.Errorf("parallel read = %v, want %v", par.Read, want)
	}
	if want := (3*DRAMTouch + 3) / 4; par.DRAM != want {
		t.Errorf("parallel DRAM = %v, want %v", par.DRAM, want)
	}
	// Sequential streams are priced each on its own share of the bytes.
	seq := Price(device.XPoint, 1, Ledger{Workers: 4, SeqStreams: 4, SeqBytes: 4 << 20})
	if want := device.DRAM.SequentialReadTime(1<<20, 4); seq.DRAM != want {
		t.Errorf("4 streams over 4 MiB = %v, want %v", seq.DRAM, want)
	}
}

func TestChargeUntimedPricesDRAMOnly(t *testing.T) {
	c := Charge(NewMemStore(), Ledger{PageReads: 5, Touches: 2})
	if c.Device() != 0 || c.DRAM != 2*DRAMTouch {
		t.Errorf("untimed charge = %+v, want DRAM only", c)
	}
}
