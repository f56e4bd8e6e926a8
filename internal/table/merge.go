// Online, non-blocking delta merge (paper Section II: "the delta is
// periodically merged into the main partition"; the merge here follows
// SAP HANA's online delta merge). Three phases:
//
//  1. Freeze — under a brief exclusive lock, the active delta becomes
//     the frozen merge input and a fresh active delta opens for writers.
//     The rebuild snapshot is the latest commit timestamp.
//  2. Rebuild — with NO table lock held, a shadow main partition (MRCs,
//     SSCG, version store, statistics, indexes) is built from the old
//     main plus the frozen delta as of the snapshot. Readers and
//     writers proceed against old main + frozen delta + active delta.
//  3. Swap — after the retiring partitions quiesce (no provisional
//     inserts or delete intents), a short exclusive section installs
//     the shadow main, replays deletes that committed during the
//     rebuild, re-bases frozen rows the snapshot missed into the active
//     delta, and retires the old SSCG pages via the epoch protocol.
//
// Row version history is preserved across the swap (mvcc.AppendAt), so
// a transaction holding any open snapshot sees exactly the same rows
// before and after. RowIDs, as documented on the type, are stable
// between merges only.
package table

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"tierdb/internal/bptree"
	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/histogram"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// ErrMergeInProgress is returned by MergeOffline while an online merge
// is between freeze and swap. Online merges never fail with it: a
// second Merge or ApplyLayout joins the in-flight one.
var ErrMergeInProgress = errors.New("table: merge already in progress")

// quiesceSpins bounds the optimistic (lock-free) quiescence wait before
// the swap degrades to holding the write lock while the last
// provisional writes resolve.
const quiesceSpins = 4096

// rowSource records where a rebuilt main row was copied from, so the
// swap can replay deletes that committed against the old location while
// the rebuild ran.
type rowSource struct {
	main bool // true: old main partition; false: frozen delta
	pos  int
}

// carryRow is a committed row not folded into the new main whose
// version interval may still matter to an open snapshot.
type carryRow struct {
	tuple      []value.Value
	begin, end mvcc.Timestamp
}

// mergeState is the frozen input of one merge: immutable references to
// the structures the rebuild reads without holding the table lock.
type mergeState struct {
	layout        []bool
	snapshot      mvcc.Timestamp
	mainRows      int
	mrcs          []*column.MRC
	group         *sscg.Group
	groupIdx      []int
	mainVersions  *mvcc.Versions
	frozen        *delta.Partition
	frozenRows    int
	indexCols     []int
	compositeSets [][]int
}

// mainTuple reconstructs one old-main row from the frozen structure
// references (safe off-lock: MRCs and SSCGs are immutable).
func (st *mergeState) mainTuple(led *storage.Ledger, pos int, nCols int) ([]value.Value, error) {
	out := make([]value.Value, nCols)
	if st.group != nil {
		groupRow, err := st.group.FetchRow(led, pos)
		if err != nil {
			return nil, err
		}
		for col, gi := range st.groupIdx {
			if gi >= 0 {
				out[col] = groupRow[gi]
			}
		}
	}
	for col, mrc := range st.mrcs {
		if mrc != nil {
			v, err := mrc.Get(pos)
			if err != nil {
				return nil, err
			}
			out[col] = v
		}
	}
	return out, nil
}

// mainParts is the layout-dependent half of a rebuilt main partition.
type mainParts struct {
	mrcs     []*column.MRC
	group    *sscg.Group
	groupIdx []int
	distinct []int
	hists    []*histogram.Histogram
}

// builtMain is the complete shadow main partition the rebuild produces.
type builtMain struct {
	parts      *mainParts
	rows       int
	versions   *mvcc.Versions
	indexes    map[int]*bptree.Tree
	composites map[string]compositeIndex
	sources    []rowSource
	folded     []bool // frozen positions folded into the new main
	carry      []carryRow
}

// buildMainParts builds MRCs, the SSCG and column statistics for rows
// under layout. Statistics come from a single row-major transposition:
// the per-column value slices feed the equi-depth histograms — whose
// sorted build pass yields the exact distinct count for free — and are
// then reused as MRC build input, replacing the former O(columns x
// rows) hash-set pass per column (see BenchmarkColumnStats). The SSCG's
// page writes are counted in led.
func (t *Table) buildMainParts(led *storage.Ledger, layout []bool, rows [][]value.Value) (*mainParts, error) {
	nCols := t.schema.Len()
	colVals := make([][]value.Value, nCols)
	for c := range colVals {
		colVals[c] = make([]value.Value, len(rows))
	}
	for r, row := range rows {
		for c, v := range row {
			colVals[c][r] = v
		}
	}

	p := &mainParts{
		distinct: make([]int, nCols),
		hists:    make([]*histogram.Histogram, nCols),
		mrcs:     make([]*column.MRC, nCols),
		groupIdx: make([]int, nCols),
	}
	for col := 0; col < nCols; col++ {
		p.groupIdx[col] = -1
		if len(rows) == 0 {
			continue
		}
		h, err := histogram.Build(t.schema.Field(col).Type, colVals[col], histogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("table %s: build histogram for %q: %w", t.name, t.schema.Field(col).Name, err)
		}
		p.hists[col] = h
		p.distinct[col] = h.DistinctCount()
	}

	var groupFields []schema.Field
	var groupCols []int
	for col := 0; col < nCols; col++ {
		f := t.schema.Field(col)
		if layout[col] {
			mrc, err := column.Build(f.Name, f.Type, colVals[col])
			if err != nil {
				return nil, fmt.Errorf("table %s: merge build MRC %q: %w", t.name, f.Name, err)
			}
			p.mrcs[col] = mrc
		} else {
			p.groupIdx[col] = len(groupFields)
			groupFields = append(groupFields, f)
			groupCols = append(groupCols, col)
		}
	}
	if len(groupFields) > 0 {
		groupRows := make([][]value.Value, len(rows))
		for r := range rows {
			gr := make([]value.Value, len(groupCols))
			for gi, col := range groupCols {
				gr[gi] = rows[r][col]
			}
			groupRows[r] = gr
		}
		var err error
		p.group, err = sscg.Build(groupFields, groupRows, t.store, t.cache)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge build SSCG: %w", t.name, err)
		}
		led.PageWrites += int64(p.group.PageCount())
	}
	return p, nil
}

// Merge folds the delta into the main partition under the current
// layout. The merge is online: queries and data modifications proceed
// throughout; only the freeze and the final swap take the table lock
// briefly. A Merge or ApplyLayout issued while another online merge is
// in flight waits for it and then runs its own. A merge with nothing to
// do is a no-op: no delta rows, no main row deleted since the last
// merge, and the layout unchanged.
func (t *Table) Merge() error {
	return t.mergeOnline(nil)
}

// ApplyLayout sets the column layout and rebuilds the main partition
// accordingly (merging the delta in the same online pass). layout[i] =
// true keeps column i as a DRAM-resident MRC; false places it in the
// SSCG.
func (t *Table) ApplyLayout(layout []bool) error {
	if len(layout) != t.schema.Len() {
		return fmt.Errorf("table %s: layout has %d entries, want %d", t.name, len(layout), t.schema.Len())
	}
	return t.mergeOnline(append([]bool(nil), layout...))
}

// mergeOnline runs the three-phase online merge. A nil layout keeps the
// current one. On rebuild failure the table keeps serving the old main
// plus both deltas; the frozen delta is retained so a retry folds it.
// The merge's page reads and writes are counted in one ledger, settled
// on the store when the merge ends.
func (t *Table) mergeOnline(layout []bool) error {
	start := time.Now()
	st := t.freezeForMerge(layout)
	if st == nil {
		return nil
	}
	var led storage.Ledger
	defer t.charge(&led)
	if h := t.hookAfterFreeze; h != nil {
		h()
	}
	b, err := t.rebuild(&led, st)
	if err != nil {
		t.mu.Lock()
		t.endMergeLocked()
		t.mu.Unlock()
		t.cMergeFails.Inc()
		return err
	}
	if h := t.hookBeforeSwap; h != nil {
		h()
	}
	if err := t.swapMain(&led, st, b); err != nil {
		return err
	}
	t.hMergeNs.Observe(time.Since(start).Nanoseconds())
	return nil
}

// freezeForMerge is phase 1: under a brief exclusive lock, freeze the
// active delta (or reuse the frozen delta a failed merge left behind),
// open a fresh active delta, and capture the rebuild inputs. It first
// waits out an in-flight online merge; if there is then nothing to do
// (see mergeWorkLocked) it returns a nil state.
func (t *Table) freezeForMerge(layout []bool) *mergeState {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.merging {
		t.mergeDone.Wait()
	}
	if layout == nil {
		layout = append([]bool(nil), t.layout...)
	}
	if !t.mergeWorkLocked(layout) {
		return nil
	}
	t.mainDeleted.Store(false)
	if t.frozen == nil {
		t.frozen = t.delta
		t.frozen.Freeze()
		t.frozenRows = t.frozen.Rows()
		t.delta = delta.New(t.schema)
		t.delta.Observe(t.registry) // fresh partition, fresh handles
	}
	t.merging = true
	t.gFrozenRows.Set(int64(t.frozenRows))
	t.gActiveRows.Set(int64(t.delta.Rows()))
	st := &mergeState{
		layout:       layout,
		snapshot:     t.mgr.LastCommit(),
		mainRows:     t.mainRows,
		mrcs:         t.mrcs,
		group:        t.group,
		groupIdx:     t.groupIdx,
		mainVersions: t.mainVersions,
		frozen:       t.frozen,
		frozenRows:   t.frozenRows,
	}
	for col := range t.indexes {
		st.indexCols = append(st.indexCols, col)
	}
	sort.Ints(st.indexCols)
	for _, idx := range t.composites {
		st.compositeSets = append(st.compositeSets, append([]int(nil), idx.cols...))
	}
	sort.Slice(st.compositeSets, func(a, b int) bool {
		return compositeKeyName(st.compositeSets[a]) < compositeKeyName(st.compositeSets[b])
	})
	return st
}

// mergeWorkLocked is the one rule for whether a merge to layout has
// anything to do: a frozen delta left by a failed merge, delta rows, a
// main row deleted since the last freeze (its purge), or a new layout.
// Caller holds t.mu.
func (t *Table) mergeWorkLocked(layout []bool) bool {
	return t.frozen != nil || t.delta.Rows() > 0 || t.mainDeleted.Load() || !slices.Equal(layout, t.layout)
}

// HasMergeWork reports whether Merge would rebuild the main partition
// now. The merge scheduler checks it to skip, checkpoint included, a
// queued request an earlier merge has already served.
func (t *Table) HasMergeWork() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mergeWorkLocked(t.layout)
}

// rebuild is phase 2: construct the shadow main partition from the old
// main and the frozen delta as of the snapshot, holding no table lock.
// Visibility at a fixed snapshot is stable under concurrent commits
// (late deletes stamp end > snapshot; late inserts stamp begin >
// snapshot), so the fold set is deterministic.
func (t *Table) rebuild(led *storage.Ledger, st *mergeState) (*builtMain, error) {
	nCols := t.schema.Len()
	var rows [][]value.Value
	var sources []rowSource
	var begins []mvcc.Timestamp
	var carry []carryRow
	for pos := 0; pos < st.mainRows; pos++ {
		rs := st.mainVersions.State(pos)
		if rs.Begin == 0 || rs.Begin == mvcc.Infinity {
			continue // never-committed row (not possible in main; defensive)
		}
		if rs.Begin > st.snapshot || rs.End <= st.snapshot {
			// Invisible at the snapshot but committed: carry the version
			// interval so snapshots that still need it survive the swap.
			tuple, err := st.mainTuple(led, pos, nCols)
			if err != nil {
				return nil, fmt.Errorf("table %s: merge read main row %d: %w", t.name, pos, err)
			}
			carry = append(carry, carryRow{tuple: tuple, begin: rs.Begin, end: rs.End})
			continue
		}
		tuple, err := st.mainTuple(led, pos, nCols)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge read main row %d: %w", t.name, pos, err)
		}
		rows = append(rows, tuple)
		sources = append(sources, rowSource{main: true, pos: pos})
		begins = append(begins, rs.Begin)
	}
	folded := make([]bool, st.frozenRows)
	fv := st.frozen.Versions()
	for _, pos := range st.frozen.VisibleRows(st.snapshot, 0) {
		if pos >= st.frozenRows {
			break // physical rows are fixed at freeze; defensive
		}
		tuple, err := st.frozen.GetRow(pos)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge read delta row %d: %w", t.name, pos, err)
		}
		folded[pos] = true
		rows = append(rows, tuple)
		sources = append(sources, rowSource{main: false, pos: pos})
		begins = append(begins, fv.State(pos).Begin)
	}

	parts, err := t.buildMainParts(led, st.layout, rows)
	if err != nil {
		return nil, err
	}

	// Preserve each row's commit history so every open snapshot keeps
	// its exact visibility across the swap; deletes that commit during
	// the rebuild are replayed by the swap via sources.
	versions := mvcc.NewVersions()
	for _, begin := range begins {
		versions.AppendAt(begin, mvcc.Infinity)
	}

	b := &builtMain{
		parts:      parts,
		rows:       len(rows),
		versions:   versions,
		indexes:    make(map[int]*bptree.Tree, len(st.indexCols)),
		composites: make(map[string]compositeIndex, len(st.compositeSets)),
		sources:    sources,
		folded:     folded,
		carry:      carry,
	}
	if err := b.buildIndexes(t.schema, st, rows); err != nil {
		if parts.group != nil {
			_ = parts.group.Free() // abandon the shadow SSCG, keep serving old main
		}
		return nil, err
	}
	return b, nil
}

// buildIndexes rebuilds the index set captured at freeze time against
// the shadow main's rows.
func (b *builtMain) buildIndexes(s *schema.Schema, st *mergeState, rows [][]value.Value) error {
	for _, col := range st.indexCols {
		tree := bptree.New(s.Field(col).Type)
		for r := range rows {
			tree.Insert(rows[r][col], uint32(r))
		}
		b.indexes[col] = tree
	}
	for _, cols := range st.compositeSets {
		tree := bptree.New(value.String)
		key := make([]value.Value, len(cols))
		for r := range rows {
			for i, c := range cols {
				key[i] = rows[r][c]
			}
			enc, err := keyenc.EncodeString(key)
			if err != nil {
				return fmt.Errorf("encode composite key: %w", err)
			}
			tree.Insert(value.NewString(enc), uint32(r))
		}
		b.composites[compositeKeyName(cols)] = compositeIndex{
			cols: append([]int(nil), cols...),
			tree: tree,
		}
	}
	return nil
}

// swapMain is phase 3: wait for the retiring partitions to quiesce,
// then atomically install the shadow main under the write lock,
// reconciling writes that landed during the rebuild.
func (t *Table) swapMain(led *storage.Ledger, st *mergeState, b *builtMain) error {
	fv := st.frozen.Versions()
	// Quiescence: no provisional insert or delete intent may remain on
	// the retiring partitions, otherwise its commit callback could fire
	// after the reconciliation below and be lost. Intents are only
	// created under the table's read lock, so holding the write lock
	// makes the settled state stable. Spin optimistically off-lock
	// first; under sustained writer pressure degrade to holding the
	// lock while the last writers resolve (commits touch only version
	// stores, never the table lock, so they proceed).
	for attempt := 0; ; attempt++ {
		if st.mainVersions.Unsettled() || fv.Unsettled() {
			if attempt > quiesceSpins {
				t.mu.Lock()
				for st.mainVersions.Unsettled() || fv.Unsettled() {
					time.Sleep(20 * time.Microsecond)
				}
				break
			}
			runtime.Gosched()
			continue
		}
		t.mu.Lock()
		if !st.mainVersions.Unsettled() && !fv.Unsettled() {
			break
		}
		t.mu.Unlock()
	}
	defer t.mu.Unlock()

	// Replay deletes that committed against the old locations while the
	// rebuild ran.
	for i, src := range b.sources {
		var rs mvcc.RowState
		if src.main {
			rs = st.mainVersions.State(src.pos)
		} else {
			rs = fv.State(src.pos)
		}
		if rs.End != mvcc.Infinity {
			b.versions.SetEnd(i, rs.End)
		}
	}

	// Re-base rows the shadow main missed into the active delta with
	// their original timestamps: frozen rows committed after the
	// snapshot (live or already deleted again) and carried old-main
	// rows. Rows dead at the oldest active snapshot are invisible to
	// every current and future reader and are purged instead.
	watermark := t.mgr.OldestActiveSnapshot()
	stragglers := 0
	adopt := func(tuple []value.Value, begin, end mvcc.Timestamp) error {
		if end <= watermark {
			return nil
		}
		if _, err := t.delta.AdoptRow(tuple, begin, end); err != nil {
			return err
		}
		stragglers++
		return nil
	}
	var adoptErr error
	for pos := 0; pos < st.frozenRows && adoptErr == nil; pos++ {
		if b.folded[pos] {
			continue
		}
		rs := fv.State(pos)
		if rs.Begin == 0 || rs.Begin == mvcc.Infinity {
			continue // aborted insert (quiescence rules out pending state)
		}
		var tuple []value.Value
		if tuple, adoptErr = st.frozen.GetRow(pos); adoptErr == nil {
			adoptErr = adopt(tuple, rs.Begin, rs.End)
		}
	}
	for i := 0; adoptErr == nil && i < len(b.carry); i++ {
		adoptErr = adopt(b.carry[i].tuple, b.carry[i].begin, b.carry[i].end)
	}
	if adoptErr != nil {
		// Unreachable with a matching schema; treated as a failed merge
		// (old main keeps serving, frozen delta retained for retry).
		t.endMergeLocked()
		if b.parts.group != nil {
			_ = b.parts.group.Free()
		}
		t.cMergeFails.Inc()
		return fmt.Errorf("table %s: merge swap: %w", t.name, adoptErr)
	}

	// Indexes created after the freeze exist on the retiring main but
	// not in the rebuilt set; note them for rebuilding below.
	var lateIdx []int
	for col := range t.indexes {
		if _, ok := b.indexes[col]; !ok {
			lateIdx = append(lateIdx, col)
		}
	}
	sort.Ints(lateIdx)
	var lateComp [][]int
	for name, ci := range t.composites {
		if _, ok := b.composites[name]; !ok {
			lateComp = append(lateComp, ci.cols)
		}
	}

	// Install. Every container is replaced wholesale; pinned views keep
	// aliasing the retired ones.
	oldEpoch := t.epoch
	t.mainRows = b.rows
	t.layout = append([]bool(nil), st.layout...)
	t.mrcs = b.parts.mrcs
	t.group = b.parts.group
	t.groupIdx = b.parts.groupIdx
	t.mainVersions = b.versions
	t.indexes = b.indexes
	t.composites = b.composites
	t.distinct = b.parts.distinct
	t.hists = b.parts.hists
	t.frozen = nil
	t.frozenRows = 0
	t.endMergeLocked()
	t.epoch = newEpoch(b.parts.group)
	t.cMerges.Inc()
	t.cSwaps.Inc()
	t.cMergeRows.Add(int64(b.rows))
	t.cStragglers.Add(int64(stragglers))
	t.gFrozenRows.Set(0)
	t.gActiveRows.Set(int64(t.delta.Rows()))
	// Drop the table's reference on the retired epoch: the old SSCG
	// pages return to the freelist now, or when the last pinned view
	// drains.
	oldEpoch.release()

	var idxErr error
	for _, col := range lateIdx {
		if err := t.buildIndexLocked(led, col); err != nil && idxErr == nil {
			idxErr = err
		}
	}
	for _, cols := range lateComp {
		if err := t.buildCompositeLocked(led, cols); err != nil && idxErr == nil {
			idxErr = err
		}
	}
	return idxErr
}

// MergeOffline is the blocking reference merge: it folds the delta
// under an exclusive lock held for the entire rebuild, exactly as the
// engine merged before the online path existed. The equivalence
// property tests replay committed histories through it and compare
// against online-merged tables. It refuses to run while an online merge
// is in flight.
func (t *Table) MergeOffline() error {
	var led storage.Ledger
	defer t.charge(&led)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.merging || t.frozen != nil {
		return ErrMergeInProgress
	}

	snapshot := t.mgr.LastCommit()
	var rows [][]value.Value
	for row := 0; row < t.mainRows; row++ {
		if !t.mainVersions.Visible(row, snapshot, 0) {
			continue
		}
		tuple, err := t.tupleLocked(&led, uint64(row))
		if err != nil {
			return fmt.Errorf("table %s: merge read main row %d: %w", t.name, row, err)
		}
		rows = append(rows, tuple)
	}
	for _, pos := range t.delta.VisibleRows(snapshot, 0) {
		tuple, err := t.delta.GetRow(pos)
		if err != nil {
			return fmt.Errorf("table %s: merge read delta row %d: %w", t.name, pos, err)
		}
		rows = append(rows, tuple)
	}

	parts, err := t.buildMainParts(&led, t.layout, rows)
	if err != nil {
		return err
	}

	// Fresh MVCC state: all merged rows are committed & live.
	versions := mvcc.NewVersions()
	for range rows {
		versions.AppendCommitted(snapshot)
	}

	oldEpoch := t.epoch
	t.mainRows = len(rows)
	t.mrcs = parts.mrcs
	t.group = parts.group
	t.groupIdx = parts.groupIdx
	t.mainVersions = versions
	t.delta = delta.New(t.schema)
	t.delta.Observe(t.registry) // fresh partition, fresh handles
	t.distinct = parts.distinct
	t.hists = parts.hists
	t.epoch = newEpoch(parts.group)
	t.cMerges.Inc()
	t.gActiveRows.Set(0)
	oldEpoch.release()

	// Rebuild indexes over the new main partition.
	for col := range t.indexes {
		if err := t.buildIndexLocked(&led, col); err != nil {
			return err
		}
	}
	for _, idx := range t.composites {
		if err := t.buildCompositeLocked(&led, idx.cols); err != nil {
			return err
		}
	}
	return nil
}

// endMergeLocked marks the in-flight online merge finished and wakes
// merges waiting to join it; caller holds t.mu.
func (t *Table) endMergeLocked() {
	t.merging = false
	t.mergeDone.Broadcast()
}

// Merging reports whether an online merge is between freeze and swap.
func (t *Table) Merging() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.merging
}
