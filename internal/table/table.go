// Package table composes the storage substrates into the paper's tiered
// table architecture (Section II): a read-optimized main partition whose
// attributes are either Memory-Resident Columns (MRCs) or grouped into a
// row-oriented Secondary-Storage Column Group (SSCG), plus a
// DRAM-resident write-optimized delta partition. Data modifications are
// insert-only into the delta; the delta is periodically merged into the
// main partition. The column layout — which attributes are MRCs — is
// decided by the column selection model and applied during merge.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tierdb/internal/amm"
	"tierdb/internal/bptree"
	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/histogram"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// RowID addresses a visible row: main-partition rows occupy
// [0, mainRows), delta rows follow at mainRows+localPos. RowIDs are
// stable between merges only.
type RowID = uint64

// Options configures a table's storage environment.
type Options struct {
	// Store is the secondary storage device backing SSCGs (typically a
	// storage.TimedStore in simulations). Defaults to an in-memory
	// store.
	Store storage.Store
	// Cache is an optional AMM page cache in front of Store.
	Cache *amm.Cache
	// Manager supplies transactions; defaults to a fresh manager.
	Manager *mvcc.Manager
	// Registry receives the table's instruments (delta counters,
	// table.merges); nil disables them. The table keeps the registry so
	// it can re-observe the fresh delta partition created by each merge.
	Registry *metrics.Registry
}

// Table is a tiered HTAP table.
//
// Concurrency protocol: t.mu guards the structural pointers below.
// Every container they reference (MRC slices, index maps, version
// stores, delta partitions) is replaced wholesale on change, never
// mutated in place, so a pinned View (see Pin) may keep reading retired
// containers lock-free. Write intents and provisional inserts are only
// created while holding the read lock, which is what lets the merge
// swap treat "no provisional state" as stable under the write lock.
type Table struct {
	mu       sync.RWMutex
	name     string
	schema   *schema.Schema
	mgr      *mvcc.Manager
	store    storage.Store
	cache    *amm.Cache
	registry *metrics.Registry

	// Merge instruments (no-ops when the registry is nil).
	cMerges     *metrics.Counter
	cSwaps      *metrics.Counter
	cMergeRows  *metrics.Counter
	cMergeFails *metrics.Counter
	cStragglers *metrics.Counter
	hMergeNs    *metrics.Histogram
	gActiveRows *metrics.Gauge
	gFrozenRows *metrics.Gauge

	// Main partition (immutable between merges).
	mainRows     int
	layout       []bool // layout[i]: column i is an MRC
	mrcs         []*column.MRC
	group        *sscg.Group
	groupIdx     []int // schema column -> field index within group, -1 if MRC
	mainVersions *mvcc.Versions

	delta       *delta.Partition          // active delta: all new writes land here
	frozen      *delta.Partition          // merge input while a merge is in flight (nil otherwise)
	frozenRows  int                       // physical frozen rows, fixed at freeze
	merging     bool                      // an online merge is between freeze and swap
	mergeDone   sync.Cond                 // on mu; broadcast when merging clears
	mainDeleted atomic.Bool               // a main-row delete committed since the last freeze (set lock-free at commit)
	epoch       *epoch                    // reclamation epoch owning the current SSCG's pages
	indexes     map[int]*bptree.Tree      // main-partition indexes, always DRAM-resident
	composites  map[string]compositeIndex // multi-column indexes by canonical column list
	distinct    []int                     // per-column distinct counts of the main partition
	hists       []*histogram.Histogram    // per-column equi-depth histograms (may hold nils)
	observed    []selEstimator            // per-column observed-selectivity EWMAs (lock-free)

	// Test-only synchronization points of the online merge; set before
	// any merge starts, never under load.
	hookAfterFreeze func()
	hookBeforeSwap  func()
}

// New creates an empty table whose columns all start as MRCs.
func New(name string, s *schema.Schema, opts Options) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("table: empty name")
	}
	if s == nil {
		return nil, fmt.Errorf("table: nil schema")
	}
	if opts.Store == nil {
		opts.Store = storage.NewMemStore()
	}
	if opts.Manager == nil {
		opts.Manager = mvcc.NewManager()
	}
	layout := make([]bool, s.Len())
	for i := range layout {
		layout[i] = true
	}
	t := &Table{
		name:         name,
		schema:       s,
		mgr:          opts.Manager,
		store:        opts.Store,
		cache:        opts.Cache,
		registry:     opts.Registry,
		cMerges:      opts.Registry.Counter("table.merges"),
		cSwaps:       opts.Registry.Counter("merge.swaps"),
		cMergeRows:   opts.Registry.Counter("merge.rows"),
		cMergeFails:  opts.Registry.Counter("merge.failures"),
		cStragglers:  opts.Registry.Counter("merge.stragglers"),
		hMergeNs:     opts.Registry.Histogram("merge.ns", metrics.IOLatencyBuckets()),
		gActiveRows:  opts.Registry.Gauge("delta.active_rows"),
		gFrozenRows:  opts.Registry.Gauge("delta.frozen_rows"),
		layout:       layout,
		mrcs:         make([]*column.MRC, s.Len()),
		groupIdx:     make([]int, s.Len()),
		mainVersions: mvcc.NewVersions(),
		delta:        delta.New(s),
		epoch:        newEpoch(nil),
		indexes:      make(map[int]*bptree.Tree),
		distinct:     make([]int, s.Len()),
		observed:     make([]selEstimator, s.Len()),
	}
	t.mergeDone.L = &t.mu
	t.delta.Observe(t.registry)
	for i := range t.groupIdx {
		t.groupIdx[i] = -1
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Manager returns the table's transaction manager.
func (t *Table) Manager() *mvcc.Manager { return t.mgr }

// Store returns the secondary storage device backing the table's SSCGs
// (immutable after New). The executor settles its query ledgers on it.
func (t *Table) Store() storage.Store { return t.store }

// Delta exposes the active delta partition — the one receiving new
// writes. While a merge is in flight the frozen delta (Frozen) holds
// additional unmerged rows; consistent readers should Pin a View
// instead of combining these accessors.
func (t *Table) Delta() *delta.Partition {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.delta
}

// Frozen exposes the frozen delta of an in-flight merge, or nil.
func (t *Table) Frozen() *delta.Partition {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.frozen
}

// Layout returns a copy of the current column layout (true = MRC).
func (t *Table) Layout() []bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]bool, len(t.layout))
	copy(out, t.layout)
	return out
}

// MainRows returns the number of main-partition rows (including
// deleted-but-not-merged ones).
func (t *Table) MainRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mainRows
}

// DeltaRows returns the number of physical unmerged rows: the active
// delta plus, while a merge is in flight, the frozen one.
func (t *Table) DeltaRows() int {
	t.mu.RLock()
	active, frozenRows := t.delta, t.frozenRows
	t.mu.RUnlock()
	return active.Rows() + frozenRows
}

// ActiveDeltaRows returns the physical row count of the active delta
// only — the growth since the last freeze, which is what merge
// scheduling thresholds watch.
func (t *Table) ActiveDeltaRows() int {
	return t.Delta().Rows()
}

// DeltaBytes returns the DRAM footprint of the unmerged deltas.
func (t *Table) DeltaBytes() int64 {
	t.mu.RLock()
	active, frozen := t.delta, t.frozen
	t.mu.RUnlock()
	b := active.Bytes()
	if frozen != nil {
		b += frozen.Bytes()
	}
	return b
}

// MainVersions exposes MVCC state of the main partition.
func (t *Table) MainVersions() *mvcc.Versions {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mainVersions
}

// Group returns the SSCG of the main partition, or nil if every column
// is an MRC.
func (t *Table) Group() *sscg.Group {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.group
}

// MRC returns the memory-resident column for a schema column, or nil if
// it is SSCG-placed.
func (t *Table) MRC(col int) *column.MRC {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= len(t.mrcs) {
		return nil
	}
	return t.mrcs[col]
}

// GroupField returns the SSCG field index of a schema column, or -1.
func (t *Table) GroupField(col int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= len(t.groupIdx) {
		return -1
	}
	return t.groupIdx[col]
}

// Insert appends a row through tx (insert-only, into the active
// delta). The read lock spans the provisional append, so a merge
// freeze can never split the row from its version entry.
func (t *Table) Insert(tx *mvcc.Tx, row []value.Value) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.delta.Insert(tx, row)
	return err
}

// BulkAppend loads rows outside any transaction; they are immediately
// visible. Rows land in the delta; call Merge to move them into the
// main partition under the current layout.
func (t *Table) BulkAppend(rows [][]value.Value) error {
	ts := t.mgr.LastCommit()
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, row := range rows {
		if _, err := t.delta.Append(row, ts); err != nil {
			return fmt.Errorf("table %s: bulk append row %d: %w", t.name, i, err)
		}
	}
	return nil
}

// Delete marks the row deleted through tx, routing the id across main,
// frozen and active partitions. The commit callbacks capture the
// version store resolved here, not the table: intents registered
// against a retiring partition must resolve against that partition (the
// merge swap waits for them before reconciling).
func (t *Table) Delete(tx *mvcc.Tx, id RowID) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < uint64(t.mainRows) {
		vers := t.mainVersions
		row := int(id)
		if err := vers.MarkDelete(row, tx.ID()); err != nil {
			return err
		}
		tx.OnCommit(func(ts mvcc.Timestamp) {
			vers.CommitDelete(row, ts)
			t.mainDeleted.Store(true)
		})
		tx.OnAbort(func() { vers.AbortDelete(row, tx.ID()) })
		return nil
	}
	pos := int(id - uint64(t.mainRows))
	if t.frozen != nil {
		if pos < t.frozenRows {
			return t.frozen.Delete(tx, pos)
		}
		pos -= t.frozenRows
	}
	return t.delta.Delete(tx, pos)
}

// Update implements the insert-only update: delete the old version and
// insert the new one in the same transaction.
func (t *Table) Update(tx *mvcc.Tx, id RowID, row []value.Value) error {
	if err := t.Delete(tx, id); err != nil {
		return err
	}
	return t.Insert(tx, row)
}

// Visible reports whether a row id is visible at (snapshot, self).
func (t *Table) Visible(id RowID, snapshot mvcc.Timestamp, self mvcc.TxID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < uint64(t.mainRows) {
		return t.mainVersions.Visible(int(id), snapshot, self)
	}
	pos := int(id - uint64(t.mainRows))
	if t.frozen != nil {
		if pos < t.frozenRows {
			return t.frozen.Versions().Visible(pos, snapshot, self)
		}
		pos -= t.frozenRows
	}
	return t.delta.Versions().Visible(pos, snapshot, self)
}

// GetValue materializes one cell of a visible row (no visibility check).
// Like every table-level read, the call counts its page reads in its own
// ledger and settles it on the table's store when it returns.
func (t *Table) GetValue(id RowID, col int) (value.Value, error) {
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= t.schema.Len() {
		return value.Value{}, fmt.Errorf("table %s: column %d out of range", t.name, col)
	}
	if id < uint64(t.mainRows) {
		return t.mainValueLocked(&led, int(id), col)
	}
	pos := int(id - uint64(t.mainRows))
	if t.frozen != nil {
		if pos < t.frozenRows {
			return t.frozen.Get(pos, col)
		}
		pos -= t.frozenRows
	}
	return t.delta.Get(pos, col)
}

// GetTuple reconstructs a full row: MRC attributes decode from their
// dictionaries (two dependent DRAM accesses each); SSCG attributes
// arrive with a single page access for the whole group.
func (t *Table) GetTuple(id RowID) ([]value.Value, error) {
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id >= uint64(t.mainRows) {
		pos := int(id - uint64(t.mainRows))
		if t.frozen != nil {
			if pos < t.frozenRows {
				return t.frozen.GetRow(pos)
			}
			pos -= t.frozenRows
		}
		return t.delta.GetRow(pos)
	}
	return t.tupleLocked(&led, id)
}

// charge settles a finished ledger of table-level work (a lookup, an
// index build, a merge) on the table's store.
func (t *Table) charge(led *storage.Ledger) { storage.Charge(t.store, *led) }

// CreateIndex builds a DRAM-resident B+-tree index over the main
// partition of the given column (indexes are never evicted, paper
// Section IV). It is rebuilt by Merge.
func (t *Table) CreateIndex(col int) error {
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buildIndexLocked(&led, col)
}

func (t *Table) buildIndexLocked(led *storage.Ledger, col int) error {
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("table %s: index column %d out of range", t.name, col)
	}
	tree := bptree.New(t.schema.Field(col).Type)
	for row := 0; row < t.mainRows; row++ {
		v, err := t.mainValueLocked(led, row, col)
		if err != nil {
			return fmt.Errorf("table %s: build index on %q: %w", t.name, t.schema.Field(col).Name, err)
		}
		tree.Insert(v, uint32(row))
	}
	// Copy-on-write: pinned views may alias the current map.
	indexes := make(map[int]*bptree.Tree, len(t.indexes)+1)
	for k, v := range t.indexes {
		indexes[k] = v
	}
	indexes[col] = tree
	t.indexes = indexes
	return nil
}

// mainValueLocked reads one main-partition cell; caller holds t.mu.
func (t *Table) mainValueLocked(led *storage.Ledger, row, col int) (value.Value, error) {
	if mrc := t.mrcs[col]; mrc != nil {
		return mrc.Get(row)
	}
	return t.group.ReadField(led, row, t.groupIdx[col])
}

// Index returns the main-partition index for col, or nil.
func (t *Table) Index(col int) *bptree.Tree {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// tupleLocked reconstructs a main-partition tuple; caller holds t.mu.
func (t *Table) tupleLocked(led *storage.Ledger, id RowID) ([]value.Value, error) {
	out := make([]value.Value, t.schema.Len())
	if t.group != nil {
		groupRow, err := t.group.FetchRow(led, int(id))
		if err != nil {
			return nil, err
		}
		for col, gi := range t.groupIdx {
			if gi >= 0 {
				out[col] = groupRow[gi]
			}
		}
	}
	for col, mrc := range t.mrcs {
		if mrc != nil {
			v, err := mrc.Get(int(id))
			if err != nil {
				return nil, err
			}
			out[col] = v
		}
	}
	return out, nil
}

// VisibleCount returns the number of rows visible at the latest
// snapshot.
func (t *Table) VisibleCount() int {
	snapshot := t.mgr.LastCommit()
	t.mu.RLock()
	mainRows, vers, frozen, active := t.mainRows, t.mainVersions, t.frozen, t.delta
	t.mu.RUnlock()
	n := 0
	for row := 0; row < mainRows; row++ {
		if vers.Visible(row, snapshot, 0) {
			n++
		}
	}
	if frozen != nil {
		n += len(frozen.VisibleRows(snapshot, 0))
	}
	return n + len(active.VisibleRows(snapshot, 0))
}

// MemoryBytes returns the table's DRAM footprint: MRCs, deltas, MVCC
// vectors (indexes excluded for parity with the paper's budget metric,
// which covers attribute data).
func (t *Table) MemoryBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b int64
	for _, mrc := range t.mrcs {
		if mrc != nil {
			b += mrc.Bytes()
		}
	}
	if t.frozen != nil {
		b += t.frozen.Bytes()
	}
	return b + t.delta.Bytes() + t.mainVersions.Bytes()
}

// SecondaryBytes returns the SSCG footprint on secondary storage.
func (t *Table) SecondaryBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.group == nil {
		return 0
	}
	return t.group.Bytes()
}

// DistinctCount estimates the number of distinct values in a column of
// the main partition (dictionary size for MRCs, exact count for SSCG
// columns via the delta's statistics when available).
func (t *Table) DistinctCount(col int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= t.schema.Len() {
		return 0
	}
	n := t.distinct[col]
	if d := t.delta.DistinctCount(col); d > n {
		n = d
	}
	if t.frozen != nil {
		if d := t.frozen.DistinctCount(col); d > n {
			n = d
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Selectivity returns the paper's selectivity estimate 1/n for the
// column (Section II-B).
func (t *Table) Selectivity(col int) float64 {
	return 1 / float64(t.DistinctCount(col))
}

// histogramBuckets is the equi-depth histogram resolution.
const histogramBuckets = 64

// Histogram returns the column's equi-depth histogram, or nil if the
// main partition is empty.
func (t *Table) Histogram(col int) *histogram.Histogram {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= len(t.hists) {
		return nil
	}
	return t.hists[col]
}

// RangeSelectivity estimates the fraction of rows with lo <= col <= hi
// using the column's histogram, falling back to the equi-predicate
// estimate when no histogram exists.
func (t *Table) RangeSelectivity(col int, lo, hi value.Value) float64 {
	if h := t.Histogram(col); h != nil {
		return h.RangeSelectivity(lo, hi)
	}
	return t.Selectivity(col)
}

// ColumnBytes estimates the DRAM footprint column col would occupy as
// an MRC: exact for resident columns, estimated from row count and slot
// width for SSCG-placed ones. This is the size a_i the column selection
// model budgets with.
func (t *Table) ColumnBytes(col int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if col < 0 || col >= t.schema.Len() {
		return 0
	}
	if mrc := t.mrcs[col]; mrc != nil {
		return mrc.Bytes()
	}
	return int64(t.mainRows) * int64(t.schema.Field(col).SlotWidth())
}
