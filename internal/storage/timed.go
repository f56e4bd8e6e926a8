package storage

import (
	"strings"
	"sync/atomic"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/metrics"
)

// Clock is the engine-wide sink of modeled time: the virtual clock the
// reproduction reports instead of the paper's physical testbed. Work is
// counted in private Ledgers and priced once when it finishes; each
// priced ledger is added here once, never a page at a time, and
// experiment harnesses report the totals as "measured" runtimes. Safe
// for concurrent use.
type Clock struct {
	nanos atomic.Int64
	reads atomic.Int64
}

// Add books d of modeled time and reads page reads (no-op on nil).
func (c *Clock) Add(d time.Duration, reads int64) {
	if c == nil {
		return
	}
	if d != 0 {
		c.nanos.Add(int64(d))
	}
	if reads != 0 {
		c.reads.Add(reads)
	}
}

// Elapsed returns the accumulated virtual time.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.nanos.Load())
}

// Reads returns the number of booked page reads.
func (c *Clock) Reads() int64 { return c.reads.Load() }

// Reset zeroes the clock.
func (c *Clock) Reset() {
	c.nanos.Store(0)
	c.reads.Store(0)
}

// TimedStore wraps a Store with a device model: the device profile and
// the stream count (queue depth) its ledgers are priced at, the clock
// they are booked into, and the per-device instruments. Page IO passes
// straight through; readers count their pages in their own Ledger and
// settle it with Charge.
type TimedStore struct {
	inner   Store
	profile device.Profile
	clock   *Clock
	threads int
	m       storeInstruments
}

// storeInstruments holds the per-device metric handles; all are nil
// (no-op) on unobserved stores.
type storeInstruments struct {
	pageReads      *metrics.Counter
	pageWrites     *metrics.Counter
	readBytes      *metrics.Counter
	writeBytes     *metrics.Counter
	modeledReadNs  *metrics.Counter
	modeledWriteNs *metrics.Counter
}

// Observe registers per-device IO instruments named
// device.<name>.{page_reads,page_writes,read_bytes,write_bytes,
// modeled_read_ns,modeled_write_ns}, where <name> is the device
// profile's name sanitized for the metric namespace ("3D XPoint" →
// "3d_xpoint"). A nil registry leaves the store unobserved.
func (s *TimedStore) Observe(r *metrics.Registry) {
	p := "device." + metricName(s.profile.Name)
	s.m = storeInstruments{
		pageReads:      r.Counter(p + ".page_reads"),
		pageWrites:     r.Counter(p + ".page_writes"),
		readBytes:      r.Counter(p + ".read_bytes"),
		writeBytes:     r.Counter(p + ".write_bytes"),
		modeledReadNs:  r.Counter(p + ".modeled_read_ns"),
		modeledWriteNs: r.Counter(p + ".modeled_write_ns"),
	}
}

// metricName lowercases a device name and folds every non-alphanumeric
// run into underscores so it can serve as a metric-name segment.
func metricName(name string) string {
	if name == "" {
		return "unknown"
	}
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// NewTimedStore wraps inner with the timing model of profile, booking
// settled ledgers into clock and pricing serial work at `threads`
// concurrent access streams.
func NewTimedStore(inner Store, profile device.Profile, clock *Clock, threads int) *TimedStore {
	if threads < 1 {
		threads = 1
	}
	return &TimedStore{inner: inner, profile: profile, clock: clock, threads: threads}
}

// Profile returns the device profile used for timing.
func (s *TimedStore) Profile() device.Profile { return s.profile }

// charge prices a finished ledger and books its device share into the
// clock and the device instruments, once.
func (s *TimedStore) charge(l Ledger) Cost {
	c := Price(s.profile, s.threads, l)
	if l.PageReads == 0 && l.PageWrites == 0 {
		return c
	}
	s.clock.Add(c.Device(), l.PageReads)
	s.m.pageReads.Add(l.PageReads)
	s.m.readBytes.Add(l.PageReads * PageSize)
	s.m.modeledReadNs.Add(int64(c.Read))
	s.m.pageWrites.Add(l.PageWrites)
	s.m.writeBytes.Add(l.PageWrites * PageSize)
	s.m.modeledWriteNs.Add(int64(c.Write))
	return c
}

// ReadPage implements Store.
func (s *TimedStore) ReadPage(id PageID, buf []byte) error { return s.inner.ReadPage(id, buf) }

// WritePage implements Store.
func (s *TimedStore) WritePage(id PageID, buf []byte) error { return s.inner.WritePage(id, buf) }

// Allocate implements Store (untimed; allocation is metadata).
func (s *TimedStore) Allocate() (PageID, error) { return s.inner.Allocate() }

// FreePages forwards to the inner store's freelist (untimed metadata),
// implementing PageFreer when the inner store does.
func (s *TimedStore) FreePages(ids []PageID) error {
	if f, ok := s.inner.(PageFreer); ok {
		return f.FreePages(ids)
	}
	return nil
}

// NumPages implements Store.
func (s *TimedStore) NumPages() int64 { return s.inner.NumPages() }

// Close implements Store.
func (s *TimedStore) Close() error { return s.inner.Close() }
