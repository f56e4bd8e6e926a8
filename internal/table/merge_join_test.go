package table

import (
	"fmt"
	"testing"
	"time"

	"tierdb/internal/value"
)

// TestBulkLoadJoinsInFlightMerge pauses one online merge right after its
// freeze and bulk-loads the same table the way tierdb's BulkLoad does
// (append, then Merge). The load's merge must wait for the paused one
// instead of failing, then fold its own rows: both calls succeed and
// every row is visible in the main partition.
func TestBulkLoadJoinsInFlightMerge(t *testing.T) {
	tbl := loadedTable(t, 200)
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	more := make([][]value.Value, 300)
	for i := range more {
		more[i] = row(int64(1000+i), int64(i%10), fmt.Sprintf("late%d", i%3))
	}
	if err := tbl.BulkAppend(more[:100]); err != nil {
		t.Fatal(err)
	}

	frozen := make(chan struct{})
	resume := make(chan struct{})
	tbl.hookAfterFreeze = func() { close(frozen); <-resume }
	mergeA := make(chan error, 1)
	go func() { mergeA <- tbl.Merge() }()
	<-frozen
	tbl.hookAfterFreeze = nil

	load := make(chan error, 1)
	go func() {
		if err := tbl.BulkAppend(more[100:]); err != nil {
			load <- err
			return
		}
		load <- tbl.Merge()
	}()
	select {
	case err := <-load:
		t.Fatalf("bulk load returned %v while a merge was in flight; want it to wait", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	if err := <-mergeA; err != nil {
		t.Fatalf("paused merge: %v", err)
	}
	if err := <-load; err != nil {
		t.Fatalf("bulk load: %v", err)
	}
	if got, want := tbl.VisibleCount(), 200+len(more); got != want {
		t.Fatalf("VisibleCount = %d, want %d", got, want)
	}
	if tbl.MainRows() != 200+len(more) || tbl.DeltaRows() != 0 || tbl.Merging() {
		t.Fatalf("main %d rows, delta %d, merging %v: the joined merge did not fold the load",
			tbl.MainRows(), tbl.DeltaRows(), tbl.Merging())
	}
	// MergeOffline still refuses to run beside an online merge.
	tbl.hookAfterFreeze = func() {
		if err := tbl.MergeOffline(); err != ErrMergeInProgress {
			t.Errorf("MergeOffline during an online merge = %v, want ErrMergeInProgress", err)
		}
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeWithNothingToDoIsNoop checks the one rule that skips a
// merge: no delta rows, no main row deleted since the last merge, and
// an unchanged layout. A committed delete of a main row still makes an
// otherwise empty merge rebuild and purge it.
func TestMergeWithNothingToDoIsNoop(t *testing.T) {
	tbl := loadedTable(t, 200)
	rebuilds := 0
	tbl.hookAfterFreeze = func() { rebuilds++ }
	merge := func(want int) {
		t.Helper()
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
		if rebuilds != want {
			t.Fatalf("after Merge: %d rebuilds, want %d", rebuilds, want)
		}
	}
	merge(0)
	tx := tbl.mgr.Begin()
	if err := tbl.Delete(tx, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	merge(1)
	if tbl.MainRows() != 199 {
		t.Fatalf("MainRows = %d after merging a delete, want 199", tbl.MainRows())
	}
	merge(1)
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if rebuilds != 2 {
		t.Fatalf("ApplyLayout with a new layout: %d rebuilds, want 2", rebuilds)
	}
}
