package mvcc

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestBeginAssignsIncreasingIDs(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	t2 := m.Begin()
	if t2.ID() <= t1.ID() {
		t.Errorf("tx ids not increasing: %d then %d", t1.ID(), t2.ID())
	}
	if t1.Status() != Active {
		t.Error("new tx not active")
	}
}

func TestCommitAdvancesTimestamp(t *testing.T) {
	m := NewManager()
	before := m.LastCommit()
	tx := m.Begin()
	ts, err := m.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if ts <= before {
		t.Errorf("commit ts %d not after %d", ts, before)
	}
	if m.LastCommit() != ts {
		t.Errorf("LastCommit = %d, want %d", m.LastCommit(), ts)
	}
	if tx.Status() != Committed {
		t.Error("tx not committed")
	}
	if _, err := m.Commit(tx); !errors.Is(err, ErrTxFinished) {
		t.Errorf("double commit: %v", err)
	}
	if err := m.Abort(tx); !errors.Is(err, ErrTxFinished) {
		t.Errorf("abort after commit: %v", err)
	}
}

func TestInsertVisibilityLifecycle(t *testing.T) {
	m := NewManager()
	v := NewVersions()

	writer := m.Begin()
	row := v.AppendPending(writer.ID())
	writer.OnCommit(func(ts Timestamp) { v.CommitInsert(row, ts) })

	// Only the writer sees its provisional insert.
	if !v.Visible(row, writer.Snapshot(), writer.ID()) {
		t.Error("writer cannot see its own insert")
	}
	reader := m.Begin()
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("other tx sees provisional insert")
	}

	ts, err := m.Commit(writer)
	if err != nil {
		t.Fatal(err)
	}
	// The old reader snapshot still does not see it (snapshot isolation).
	if v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("old snapshot sees newly committed row")
	}
	// A new reader does.
	late := m.Begin()
	if !v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("new snapshot misses committed row")
	}
	if v.LiveAt(ts) != 1 {
		t.Errorf("LiveAt(%d) = %d, want 1", ts, v.LiveAt(ts))
	}
}

func TestAbortInsertNeverVisible(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	tx := m.Begin()
	row := v.AppendPending(tx.ID())
	tx.OnAbort(func() { v.AbortInsert(row) })
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	late := m.Begin()
	if v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("aborted insert visible")
	}
	if v.Visible(row, late.Snapshot(), tx.ID()) {
		t.Error("aborted insert visible to its own tx id")
	}
}

func TestDeleteLifecycle(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())

	deleter := m.Begin()
	if err := v.MarkDelete(row, deleter.ID()); err != nil {
		t.Fatal(err)
	}
	deleter.OnCommit(func(ts Timestamp) { v.CommitDelete(row, ts) })

	// Deleter no longer sees the row; concurrent readers still do.
	if v.Visible(row, deleter.Snapshot(), deleter.ID()) {
		t.Error("deleter still sees row after MarkDelete")
	}
	reader := m.Begin()
	if !v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("concurrent reader lost the row before commit")
	}

	if _, err := m.Commit(deleter); err != nil {
		t.Fatal(err)
	}
	// Old snapshot still sees it; new snapshot does not.
	if !v.Visible(row, reader.Snapshot(), reader.ID()) {
		t.Error("old snapshot lost row after delete commit")
	}
	late := m.Begin()
	if v.Visible(row, late.Snapshot(), late.ID()) {
		t.Error("new snapshot sees deleted row")
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())

	t1 := m.Begin()
	t2 := m.Begin()
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("second delete intent: %v, want ErrWriteConflict", err)
	}
	// Re-marking by the same tx is idempotent.
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Errorf("re-mark by owner: %v", err)
	}
	// After abort the row is deletable again.
	v.AbortDelete(row, t1.ID())
	if err := v.MarkDelete(row, t2.ID()); err != nil {
		t.Errorf("delete after released intent: %v", err)
	}
}

func TestDeleteCommittedRowTwiceConflicts(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	row := v.AppendCommitted(m.LastCommit())
	t1 := m.Begin()
	if err := v.MarkDelete(row, t1.ID()); err != nil {
		t.Fatal(err)
	}
	t1.OnCommit(func(ts Timestamp) { v.CommitDelete(row, ts) })
	if _, err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin()
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("delete of deleted row: %v, want ErrWriteConflict", err)
	}
}

func TestMarkDeleteOtherTxPendingInsertConflicts(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	t1 := m.Begin()
	row := v.AppendPending(t1.ID())
	t2 := m.Begin()
	if err := v.MarkDelete(row, t2.ID()); !errors.Is(err, ErrWriteConflict) {
		t.Errorf("delete of foreign pending insert: %v, want ErrWriteConflict", err)
	}
}

func TestMarkDeleteOutOfRange(t *testing.T) {
	v := NewVersions()
	if err := v.MarkDelete(5, 1); err == nil {
		t.Error("out-of-range MarkDelete accepted")
	}
	if v.Visible(5, 10, 0) {
		t.Error("out-of-range row visible")
	}
}

func TestVersionsBytesAndLen(t *testing.T) {
	v := NewVersions()
	v.AppendCommitted(1)
	v.AppendCommitted(1)
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	if v.Bytes() != 2*32 {
		t.Errorf("Bytes = %d, want 64", v.Bytes())
	}
}

func TestConcurrentTransactions(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	const writers = 8
	const rowsPer = 200
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rowsPer; i++ {
				tx := m.Begin()
				row := v.AppendPending(tx.ID())
				tx.OnCommit(func(ts Timestamp) { v.CommitInsert(row, ts) })
				if _, err := m.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	final := m.Begin()
	if got := v.LiveAt(final.Snapshot()); got != writers*rowsPer {
		t.Errorf("LiveAt = %d, want %d", got, writers*rowsPer)
	}
}

// TestSnapshotExcludesUnpublishedCommit begins a reader while another
// transaction's commit has its timestamp but has not yet stamped its
// row. The reader's snapshot must stop below that timestamp: reading at
// it would make the row appear between two queries of one transaction.
func TestSnapshotExcludesUnpublishedCommit(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	w := m.Begin()
	row := v.AppendPending(w.ID())
	inCommit := make(chan struct{})
	release := make(chan struct{})
	w.OnCommit(func(ts Timestamp) {
		close(inCommit)
		<-release
		v.CommitInsert(row, ts)
	})
	committed := make(chan Timestamp, 1)
	go func() {
		ts, err := m.Commit(w)
		if err != nil {
			t.Error(err)
		}
		committed <- ts
	}()
	<-inCommit
	r := m.Begin()
	before := v.Visible(row, r.Snapshot(), r.ID())
	close(release)
	ts := <-committed
	if after := v.Visible(row, r.Snapshot(), r.ID()); before || after {
		t.Fatalf("reader at snapshot %d saw the row before (%v) or after (%v) its commit at %d published",
			r.Snapshot(), before, after, ts)
	}
	if got := m.LastCommit(); got != ts {
		t.Fatalf("LastCommit = %d after the commit published, want %d", got, ts)
	}
}

// TestCommitAckedOnlyOnceVisible holds a lower-timestamp commit inside
// its publication while a higher-timestamp commit runs. The higher one
// must not acknowledge until snapshots include it: a fresh transaction
// begun after its Commit returns has to see its row.
func TestCommitAckedOnlyOnceVisible(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	a := m.Begin()
	rowA := v.AppendPending(a.ID())
	inCommit := make(chan struct{})
	release := make(chan struct{})
	a.OnCommit(func(ts Timestamp) {
		close(inCommit)
		<-release
		v.CommitInsert(rowA, ts)
	})
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		if _, err := m.Commit(a); err != nil {
			t.Error(err)
		}
	}()
	<-inCommit

	b := m.Begin()
	rowB := v.AppendPending(b.ID())
	b.OnCommit(func(ts Timestamp) { v.CommitInsert(rowB, ts) })
	bDone := make(chan Timestamp, 1)
	go func() {
		ts, err := m.Commit(b)
		if err != nil {
			t.Error(err)
		}
		bDone <- ts
	}()
	var tsB Timestamp
	select {
	case tsB = <-bDone:
		// Acked while the lower commit is still unpublished: it must
		// be visible all the same.
	case <-time.After(50 * time.Millisecond):
	}
	checkVisible := func(ts Timestamp) {
		r := m.Begin()
		if !v.Visible(rowB, r.Snapshot(), r.ID()) {
			t.Fatalf("commit at %d acknowledged, but a transaction begun after it (snapshot %d) does not see its row",
				ts, r.Snapshot())
		}
	}
	if tsB != 0 {
		checkVisible(tsB)
	}
	close(release)
	<-aDone
	if tsB == 0 {
		tsB = <-bDone
		checkVisible(tsB)
	}
	if got := m.LastCommit(); got != tsB {
		t.Fatalf("LastCommit = %d after both commits, want %d", got, tsB)
	}
}

// TestBulkCommitAckedOnlyOnceVisible is the bulk-load form: a bulk
// commit that gets its timestamp while a lower one is unpublished
// returns only once its rows are visible.
func TestBulkCommitAckedOnlyOnceVisible(t *testing.T) {
	m := NewManager()
	v := NewVersions()
	inApply := make(chan struct{})
	release := make(chan struct{})
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		if _, err := m.BulkCommit(nil, func(ts Timestamp) error {
			close(inApply)
			<-release
			v.AppendCommitted(ts)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	<-inApply
	bDone := make(chan Timestamp, 1)
	go func() {
		ts, err := m.BulkCommit(nil, func(ts Timestamp) error {
			v.AppendCommitted(ts)
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		bDone <- ts
	}()
	select {
	case ts := <-bDone:
		t.Fatalf("bulk commit at %d acknowledged while snapshots stop at %d", ts, m.LastCommit())
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-aDone
	if ts := <-bDone; m.LastCommit() < ts {
		t.Fatalf("bulk commit at %d acknowledged while snapshots stop at %d", ts, m.LastCommit())
	}
}
