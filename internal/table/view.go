package table

import (
	"sync/atomic"

	"tierdb/internal/bptree"
	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// epoch ties the lifetime of a main partition's SSCG pages to the
// readers that may still touch them. The table holds one reference for
// the current epoch; every pinned View holds another. When a merge swap
// retires an epoch the table's reference drops, and the last reader to
// release its View returns the group's pages to the store freelist.
type epoch struct {
	refs  atomic.Int64
	group *sscg.Group
}

func newEpoch(g *sscg.Group) *epoch {
	e := &epoch{group: g}
	e.refs.Store(1)
	return e
}

// release drops one reference and frees the group's pages when the last
// reference drains. Freeing is freelist metadata plus cache
// invalidation; an error would indicate a double free and is ignored
// here because release runs on reader unwind paths with no caller to
// report to (the storage layer's ErrPageFreed guard catches any
// use-after-free in tests).
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 && e.group != nil {
		_ = e.group.Free()
	}
}

// View is a pinned, immutable snapshot of the table's structure: the
// main partition (MRCs, SSCG, indexes, version store), the frozen delta
// of an in-flight merge (nil otherwise) and the active delta. A query
// pins one View and runs entirely against it, so an online merge
// swapping the main partition mid-query can never tear the query's
// reads. All referenced containers are replaced wholesale by writers,
// never mutated in place, which is what makes the aliasing safe.
//
// A View also carries the pinning reader's Ledger: page reads made
// through GetValue and GetTuple are counted there, and Release settles
// whatever it still holds on the table's store. Like the View, the
// ledger belongs to the goroutine that pinned it.
//
// The active delta is the one container shared with writers: it grows
// while the View is pinned. activeRows bounds the View to the rows that
// physically existed at pin time — later appends include merge-swap
// re-basing of frozen rows, which a View that still sees the frozen
// delta must not count twice.
type View struct {
	name         string
	schema       *schema.Schema
	mainRows     int
	mrcs         []*column.MRC
	group        *sscg.Group
	groupIdx     []int
	indexes      map[int]*bptree.Tree
	composites   map[string]compositeIndex
	mainVersions *mvcc.Versions
	frozen       *delta.Partition // nil when no merge is in flight
	frozenRows   int
	active       *delta.Partition
	activeRows   int
	ep           *epoch
	store        storage.Store
	led          storage.Ledger
}

// Pin captures the table's current structure into a View and takes a
// reference on its reclamation epoch. Callers must Release the View
// exactly once.
func (t *Table) Pin() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.epoch.refs.Add(1)
	return &View{
		name:         t.name,
		schema:       t.schema,
		mainRows:     t.mainRows,
		mrcs:         t.mrcs,
		group:        t.group,
		groupIdx:     t.groupIdx,
		indexes:      t.indexes,
		composites:   t.composites,
		mainVersions: t.mainVersions,
		frozen:       t.frozen,
		frozenRows:   t.frozenRows,
		active:       t.delta,
		activeRows:   t.delta.Rows(),
		ep:           t.epoch,
		store:        t.store,
	}
}

// Release settles the View's ledger and drops its epoch reference; the
// View must not be used afterwards. The last release of a retired epoch
// frees its SSCG pages.
func (v *View) Release() {
	if v.ep != nil {
		storage.Charge(v.store, v.led)
		v.led = storage.Ledger{}
		v.ep.release()
		v.ep = nil
	}
}

// Ledger returns the View's ledger, for the pinning reader to count its
// own page and DRAM work in and to settle before Release.
func (v *View) Ledger() *storage.Ledger { return &v.led }

// MainRows returns the number of main-partition rows in the snapshot.
func (v *View) MainRows() int { return v.mainRows }

// MRC returns the snapshot's memory-resident column, or nil.
func (v *View) MRC(col int) *column.MRC {
	if col < 0 || col >= len(v.mrcs) {
		return nil
	}
	return v.mrcs[col]
}

// Group returns the snapshot's SSCG, or nil if every column is an MRC.
func (v *View) Group() *sscg.Group { return v.group }

// GroupField returns the SSCG field index of a schema column, or -1.
func (v *View) GroupField(col int) int {
	if col < 0 || col >= len(v.groupIdx) {
		return -1
	}
	return v.groupIdx[col]
}

// Index returns the snapshot's main-partition index for col, or nil.
func (v *View) Index(col int) *bptree.Tree { return v.indexes[col] }

// MainVersions returns the snapshot's main-partition version store.
func (v *View) MainVersions() *mvcc.Versions { return v.mainVersions }

// Frozen returns the frozen delta of an in-flight merge, or nil.
func (v *View) Frozen() *delta.Partition { return v.frozen }

// FrozenRows returns the physical row count of the frozen delta (0
// without one).
func (v *View) FrozenRows() int { return v.frozenRows }

// Active returns the active delta partition. Scans must respect
// ActiveRows: the partition keeps growing after the pin.
func (v *View) Active() *delta.Partition { return v.active }

// ActiveRows bounds the View to the active-delta rows that existed at
// pin time. Rows appended later are either invisible at any snapshot
// the View serves or re-based frozen rows the View already sees through
// Frozen.
func (v *View) ActiveRows() int { return v.activeRows }

// Visible reports whether row id is visible at (snapshot, self) in this
// View.
func (v *View) Visible(id RowID, snapshot mvcc.Timestamp, self mvcc.TxID) bool {
	if id < uint64(v.mainRows) {
		return v.mainVersions.Visible(int(id), snapshot, self)
	}
	pos := int(id - uint64(v.mainRows))
	if v.frozen != nil {
		if pos < v.frozenRows {
			return v.frozen.Versions().Visible(pos, snapshot, self)
		}
		pos -= v.frozenRows
	}
	if pos >= v.activeRows {
		return false
	}
	return v.active.Versions().Visible(pos, snapshot, self)
}

// GetValue materializes one cell of the View (no visibility check).
func (v *View) GetValue(id RowID, col int) (value.Value, error) {
	if id < uint64(v.mainRows) {
		if mrc := v.MRC(col); mrc != nil {
			return mrc.Get(int(id))
		}
		return v.group.ReadField(&v.led, int(id), v.groupIdx[col])
	}
	pos := int(id - uint64(v.mainRows))
	if v.frozen != nil {
		if pos < v.frozenRows {
			return v.frozen.Get(pos, col)
		}
		pos -= v.frozenRows
	}
	return v.active.Get(pos, col)
}

// GetTuple reconstructs a full row of the View.
func (v *View) GetTuple(id RowID) ([]value.Value, error) {
	if id >= uint64(v.mainRows) {
		pos := int(id - uint64(v.mainRows))
		if v.frozen != nil {
			if pos < v.frozenRows {
				return v.frozen.GetRow(pos)
			}
			pos -= v.frozenRows
		}
		return v.active.GetRow(pos)
	}
	out := make([]value.Value, v.schema.Len())
	if v.group != nil {
		groupRow, err := v.group.FetchRow(&v.led, int(id))
		if err != nil {
			return nil, err
		}
		for col, gi := range v.groupIdx {
			if gi >= 0 {
				out[col] = groupRow[gi]
			}
		}
	}
	for col, mrc := range v.mrcs {
		if mrc != nil {
			val, err := mrc.Get(int(id))
			if err != nil {
				return nil, err
			}
			out[col] = val
		}
	}
	return out, nil
}
