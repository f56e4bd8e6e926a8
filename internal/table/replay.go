package table

import (
	"fmt"

	"tierdb/internal/delta"
	"tierdb/internal/mvcc"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// BulkAppendAt loads rows outside any transaction, visible from the
// explicit commit timestamp ts on. The durable bulk-load path allocates
// ts via mvcc.Manager.BulkCommit (which logs the rows first); recovery
// uses it to restore checkpoint snapshots at their snapshot timestamp.
func (t *Table) BulkAppendAt(rows [][]value.Value, ts mvcc.Timestamp) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, row := range rows {
		if _, err := t.delta.Append(row, ts); err != nil {
			return fmt.Errorf("table %s: bulk append row %d: %w", t.name, i, err)
		}
	}
	return nil
}

// ReplayInsert re-applies a logged insert during recovery: the row
// lands in the active delta, visible from its original commit
// timestamp.
func (t *Table) ReplayInsert(row []value.Value, ts mvcc.Timestamp) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, err := t.delta.Append(row, ts); err != nil {
		return fmt.Errorf("table %s: replay insert: %w", t.name, err)
	}
	return nil
}

// ReplayDelete re-applies a logged delete during recovery. Deletes are
// logged by row content, not position — row ids are positional and do
// not survive a merge — so replay stamps the delete timestamp onto the
// first committed-live row with identical content. With duplicate rows
// any one of them is the multiset-correct choice. Recovery is
// single-threaded, so the scan-then-stamp is not racy.
func (t *Table) ReplayDelete(tuple []value.Value, ts mvcc.Timestamp) error {
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.RLock()
	defer t.mu.RUnlock()
	for row := 0; row < t.mainRows; row++ {
		st := t.mainVersions.State(row)
		if !liveCommitted(st) {
			continue
		}
		got, err := t.tupleLocked(&led, RowID(row))
		if err != nil {
			return fmt.Errorf("table %s: replay delete: %w", t.name, err)
		}
		if rowsEqual(got, tuple) {
			t.mainVersions.SetEnd(row, ts)
			t.mainDeleted.Store(true)
			return nil
		}
	}
	for _, p := range []*delta.Partition{t.frozen, t.delta} {
		if p == nil {
			continue
		}
		vers := p.Versions()
		for pos := 0; pos < p.Rows(); pos++ {
			st := vers.State(pos)
			if !liveCommitted(st) {
				continue
			}
			got, err := p.GetRow(pos)
			if err != nil {
				return fmt.Errorf("table %s: replay delete: %w", t.name, err)
			}
			if rowsEqual(got, tuple) {
				vers.SetEnd(pos, ts)
				return nil
			}
		}
	}
	return fmt.Errorf("table %s: replay delete: no live row matches %v", t.name, tuple)
}

func liveCommitted(st mvcc.RowState) bool {
	return st.Begin != 0 && st.Begin != mvcc.Infinity && st.End == mvcc.Infinity && !st.Pending
}

func rowsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() != b[i].Type() || !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
