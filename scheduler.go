package tierdb

import (
	"errors"
	"sync"
	"time"

	"tierdb/internal/table"
)

// ErrClosed is returned by merge requests after DB.Close.
var ErrClosed = errors.New("tierdb: database closed")

// ErrMergeInProgress is the table layer's refusal to run the blocking
// offline merge beside an online one. Table.Merge, BulkLoad and
// ApplyLayout never return it: they join an in-flight merge instead.
var ErrMergeInProgress = table.ErrMergeInProgress

// DefaultMergeInterval is the merge scheduler's poll cadence when
// thresholds are configured but no interval is given.
const DefaultMergeInterval = 100 * time.Millisecond

// mergeScheduler runs online delta merges in the background. Every
// database owns one: it serves manual Table.MergeAsync requests always,
// and additionally sweeps all tables on a ticker when delta-size
// thresholds are configured, merging any table whose active delta has
// outgrown them. Merges are the table layer's online kind — they hold
// the table lock only for the freeze and swap instants — so a scheduled
// merge never stalls the workload it is cleaning up after.
//
// All merges run on the scheduler goroutine, one at a time; the table
// layer serializes overlapping merges of one table anyway (a second
// merge waits for the first), and serializing across tables keeps the
// background DRAM spike to one shadow main.
type mergeScheduler struct {
	db       *DB
	interval time.Duration
	rows     int
	bytes    int64
	trigger  chan *Table
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// startMergeScheduler launches the scheduler goroutine for db.
func startMergeScheduler(db *DB, cfg Config) *mergeScheduler {
	s := &mergeScheduler{
		db:       db,
		interval: cfg.MergeInterval,
		rows:     cfg.MergeDeltaRows,
		bytes:    cfg.MergeDeltaBytes,
		trigger:  make(chan *Table, 64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if s.interval <= 0 {
		s.interval = DefaultMergeInterval
	}
	go s.loop()
	return s
}

func (s *mergeScheduler) loop() {
	defer close(s.done)
	var tick <-chan time.Time
	if s.rows > 0 || s.bytes > 0 {
		t := time.NewTicker(s.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case t := <-s.trigger:
			s.merge(t)
		case <-tick:
			s.sweep()
		}
	}
}

// sweep merges every table whose active delta exceeds a threshold.
func (s *mergeScheduler) sweep() {
	s.db.mu.Lock()
	tables := make([]*Table, 0, len(s.db.tables))
	for _, t := range s.db.tables {
		tables = append(tables, t)
	}
	s.db.mu.Unlock()
	for _, t := range tables {
		if s.due(t) {
			s.merge(t)
		}
	}
}

// due reports whether t's active delta has outgrown a threshold.
func (s *mergeScheduler) due(t *Table) bool {
	if s.rows > 0 && t.inner.ActiveDeltaRows() >= s.rows {
		return true
	}
	return s.bytes > 0 && t.inner.DeltaBytes() >= s.bytes
}

// merge folds one table's delta, after any merge already in flight on
// it. A request an earlier merge has already served (HasMergeWork is
// false) is skipped, checkpoint included: stale queued requests would
// otherwise keep checkpointing an unchanged table in the background.
// Failures are already counted by the table's
// merge.failures instrument and will be retried on the next sweep,
// which resumes from the still-frozen delta. After a successful
// scheduled merge the database checkpoints: the merged state lands in
// durable snapshots and the write-ahead log truncates, so recovery
// replays only the tail written since — the paper's tiered layouts keep
// that snapshot-decode cost proportional to the MRC share.
func (s *mergeScheduler) merge(t *Table) {
	if !t.inner.HasMergeWork() {
		return
	}
	if err := t.inner.Merge(); err != nil {
		s.db.log.Warn("scheduled merge failed", "table", t.Name(), "err", err)
		return
	}
	if s.db.wal != nil {
		// A failed checkpoint leaves the previous one intact; the log
		// simply stays longer until the next scheduled merge retries.
		if err := s.db.Checkpoint(); err != nil {
			s.db.log.Warn("post-merge checkpoint failed", "table", t.Name(), "err", err)
		}
	}
}

// shutdown stops the scheduler and waits for an in-flight merge to
// finish; safe to call more than once.
func (s *mergeScheduler) shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// MergeAsync queues a background online merge of the table's delta and
// returns immediately; the merge scheduler performs the fold while
// readers and writers proceed, and skips it if an earlier merge has left
// nothing to do. Returns ErrClosed after DB.Close.
func (t *Table) MergeAsync() error {
	// Check stop on its own first: the trigger channel is buffered, so
	// a combined select could accept the send after Close.
	select {
	case <-t.db.sched.stop:
		return ErrClosed
	default:
	}
	select {
	case <-t.db.sched.stop:
		return ErrClosed
	case t.db.sched.trigger <- t:
		return nil
	}
}

// Merging reports whether an online merge of this table is in flight
// (its delta is split into frozen + active partitions).
func (t *Table) Merging() bool { return t.inner.Merging() }
