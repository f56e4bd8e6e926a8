// Morsel-driven parallel execution of main-partition scans, probes and
// tuple materialization (cf. HyPer's morsel-driven parallelism): the row
// range is carved into fixed-size morsels, workers pull morsels from a
// shared counter (fast workers steal work from slow ones), and
// per-morsel results are merged back in morsel order. Because every
// morsel covers a disjoint ascending row range, the merged output is
// byte-identical to the serial executor's.
//
// Cost accounting follows the same parallel semantics: every worker
// counts its page reads and DRAM touches in a private ledger, the
// worker ledgers are summed into the phase's ledger at each barrier,
// and the phase is priced once when it ends, at its modeled wall-clock:
// the per-worker share of the total (storage.Price). Under morsel
// scheduling the workers are balanced, so the mean stands in for the
// slowest worker and the price never depends on which goroutine ran
// which morsel — a morsel-parallel MRC scan is priced from its bytes,
// the worker count and the morsel count alone.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tierdb/internal/column"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// DefaultMorselRows is the number of main-partition rows per morsel.
// Large enough to amortize dispatch, small enough that a query over a
// million rows yields dozens of units for load balancing.
const DefaultMorselRows = 16384

// worker carries one worker's state for one parallel phase: a private
// ledger, summed into the phase ledger at every barrier, and the count
// of morsels it executed (for traces).
type worker struct {
	led     storage.Ledger
	morsels int64
}

// phase is one parallel phase of a query (the main-partition filters,
// or materialization): its workers, and the ledger their work is summed
// into at every barrier and priced once when the phase ends. Workers
// read the pinned View's SSCG directly — the group is immutable and its
// page buffers are pooled — so a mid-query merge swap stays invisible.
type phase struct {
	ws  []*worker
	led storage.Ledger
}

// newPhase builds a phase of e.parallelism workers.
func (e *Executor) newPhase() *phase {
	ws := make([]*worker, e.parallelism)
	for i := range ws {
		ws[i] = &worker{}
	}
	return &phase{ws: ws, led: storage.Ledger{Workers: e.parallelism}}
}

// morsels sums the workers' executed-morsel counters; the delta around
// an operator yields that operator's morsel count for traces.
func (ph *phase) morsels() int64 {
	var n int64
	for _, w := range ph.ws {
		n += w.morsels
	}
	return n
}

// settle books the ended phase's ledger and reports per-worker morsel
// counts to the metrics registry and the active trace.
func (e *Executor) settle(ph *phase, tr *metrics.Trace) {
	e.book(tr, &ph.led)
	counts := make([]int64, len(ph.ws))
	for i, w := range ph.ws {
		counts[i] = w.morsels
	}
	if morsels := ph.morsels(); morsels > 0 {
		e.m.morsels.Add(morsels)
		tr.AddWorkerMorsels(counts)
	}
}

// runMorsels fans nMorsels work units out to the phase's workers. Each
// worker pulls the next morsel index from a shared counter and runs fn
// on it. The first error wins: it cancels the remaining morsels, every
// worker drains promptly, and the error is returned only after all
// workers have exited — no goroutine outlives the call. At that barrier
// the worker ledgers are summed into the phase ledger.
func runMorsels(ph *phase, nMorsels int, fn func(w *worker, m int) error) error {
	if nMorsels <= 0 {
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for _, w := range ph.ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !failed.Load() {
				m := int(next.Add(1)) - 1
				if m >= nMorsels {
					return
				}
				w.morsels++
				if err := fn(w, m); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, w := range ph.ws {
		ph.led.Add(w.led)
		w.led = storage.Ledger{}
	}
	return firstErr
}

// concat merges per-morsel position lists in morsel order. Every morsel
// covers a disjoint ascending row range, so the concatenation is
// globally sorted — the ordered-merge guarantee of the parallel path.
func concat(parts [][]uint32) []uint32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]uint32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// chunkCount splits n candidates into up to four chunks per worker so
// morsel stealing can rebalance skew, but never more chunks than items.
func chunkCount(n, workers int) int {
	c := 4 * workers
	if c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the m-th of n even, order-preserving chunks of a
// list of length ln.
func chunkBounds(ln, n, m int) (lo, hi int) {
	return m * ln / n, (m + 1) * ln / n
}

// runMainParallel is runMain with morsel-driven workers; it evaluates
// the ordered predicates over the main partition and returns qualifying
// positions, identical to the serial path's output.
func (e *Executor) runMainParallel(v *table.View, preds []Predicate, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	mainRows := v.MainRows()
	if mainRows == 0 {
		return nil, nil
	}
	ph := e.newPhase()
	defer e.settle(ph, tr)
	skip := func(row int) bool {
		return !v.MainVersions().Visible(row, snapshot, self)
	}
	var cand []uint32
	first := true
	for _, p := range preds {
		mark, reads0 := 0, ph.led.PageReads
		if tr != nil {
			mark = len(tr.Operators)
		}
		var err error
		cand, err = e.applyMainParallel(v, p, cand, first, skip, ph, tr)
		if err != nil {
			return nil, err
		}
		stampPageReads(tr, mark, ph.led.PageReads-reads0)
		first = false
		if len(cand) == 0 {
			return nil, nil
		}
	}
	if first {
		// No predicates: all visible rows qualify.
		return e.visibleParallel(mainRows, skip, ph, tr)
	}
	return cand, nil
}

// visibleParallel collects all MVCC-visible main rows morsel-wise.
func (e *Executor) visibleParallel(mainRows int, skip func(int) bool, ph *phase, tr *metrics.Trace) ([]uint32, error) {
	nMorsels := (mainRows + e.morselRows - 1) / e.morselRows
	parts := make([][]uint32, nMorsels)
	before := ph.morsels()
	err := runMorsels(ph, nMorsels, func(w *worker, m int) error {
		lo := m * e.morselRows
		hi := min(lo+e.morselRows, mainRows)
		var out []uint32
		for row := lo; row < hi; row++ {
			if !skip(row) {
				out = append(out, uint32(row))
			}
		}
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.m.rowsScanned.Add(int64(mainRows))
	out := concat(parts)
	tr.Op(metrics.OperatorTrace{
		Name: "visible", Partition: "main", Column: -1,
		RowsIn: mainRows, RowsOut: len(out), Morsels: int(ph.morsels() - before),
	})
	return out, nil
}

// applyMainParallel mirrors applyMain — same access-path decisions,
// same results — with the scan, probe and refinement work fanned out to
// the worker pool.
func (e *Executor) applyMainParallel(v *table.View, p Predicate, cand []uint32, first bool, skip func(int) bool, ph *phase, tr *metrics.Trace) ([]uint32, error) {
	mainRows := v.MainRows()

	// Index access path: the tree descent is DRAM-cheap and stays
	// single-threaded; subsequent predicates refine in parallel.
	if idx := v.Index(p.Column); idx != nil && first {
		out := e.indexLookup(v, p, skip)
		e.m.indexLookups.Inc()
		e.observeSelectivity(p, mainRows, len(out))
		tr.Op(metrics.OperatorTrace{
			Name: "index", Partition: "main", Path: "index", Column: p.Column,
			RowsIn: mainRows, RowsOut: len(out),
		})
		return out, nil
	}

	before := ph.morsels()
	opMorsels := func() int { return int(ph.morsels() - before) }

	if mrc := v.MRC(p.Column); mrc != nil {
		if first {
			e.m.mrcScans.Inc()
			e.m.rowsScanned.Add(int64(mainRows))
			e.m.dramScanBytes.Add(mrc.Bytes())
			out, err := e.scanMRCParallel(mainRows, mrc, p, skip, ph)
			if err != nil {
				return nil, err
			}
			e.observeSelectivity(p, mainRows, len(out))
			tr.Op(metrics.OperatorTrace{
				Name: "scan", Partition: "main", Path: "mrc", Column: p.Column,
				RowsIn: mainRows, RowsOut: len(out), Morsels: opMorsels(),
			})
			return out, nil
		}
		e.m.mrcProbes.Inc()
		e.m.rowsScanned.Add(int64(len(cand)))
		out, err := e.probeMRCParallel(mrc, p, cand, ph)
		if err != nil {
			return nil, err
		}
		e.observeSelectivity(p, len(cand), len(out))
		tr.Op(metrics.OperatorTrace{
			Name: "probe", Partition: "main", Path: "mrc", Column: p.Column,
			RowsIn: len(cand), RowsOut: len(out), Morsels: opMorsels(),
		})
		return out, nil
	}

	// Tiered column (SSCG-placed).
	gf := v.GroupField(p.Column)
	if v.Group() == nil || gf < 0 {
		return nil, fmt.Errorf("exec: column %d has no storage (internal layout error)", p.Column)
	}
	pred, err := e.compile(p)
	if err != nil {
		return nil, err
	}
	fraction := 1.0
	if !first {
		fraction = float64(len(cand)) / float64(mainRows)
	}
	if first || fraction > e.threshold {
		e.m.sscgScans.Inc()
		e.m.rowsScanned.Add(int64(mainRows))
		matches, err := e.scanGroupParallel(v, gf, pred, skip, ph)
		if err != nil {
			return nil, err
		}
		// Marginal fraction over the full partition, as on the serial path.
		e.observeSelectivity(p, mainRows, len(matches))
		out := matches
		if !first {
			out = intersect(cand, matches)
		}
		op := metrics.OperatorTrace{
			Name: "scan", Partition: "main", Path: "sscg", Column: p.Column,
			RowsIn: mainRows, RowsOut: len(out), Morsels: opMorsels(),
		}
		if !first {
			op.RowsIn, op.CandidateFraction = len(cand), fraction
		}
		tr.Op(op)
		return out, nil
	}
	// Scan-to-probe switchover, as on the serial path.
	e.m.sscgProbes.Inc()
	e.m.switchovers.Inc()
	e.m.rowsScanned.Add(int64(len(cand)))
	out, err := e.probeGroupParallel(v, gf, pred, cand, ph)
	if err != nil {
		return nil, err
	}
	e.observeSelectivity(p, len(cand), len(out))
	tr.Op(metrics.OperatorTrace{
		Name: "probe", Partition: "main", Path: "sscg", Column: p.Column,
		SwitchedToProbe: true, CandidateFraction: fraction,
		RowsIn: len(cand), RowsOut: len(out), Morsels: opMorsels(),
	})
	return out, nil
}

// scanMRCParallel runs the first (DRAM-resident) predicate as a
// morsel-parallel scan over the compressed column.
func (e *Executor) scanMRCParallel(mainRows int, mrc *column.MRC, p Predicate, skip func(int) bool, ph *phase) ([]uint32, error) {
	nMorsels := (mainRows + e.morselRows - 1) / e.morselRows
	parts := make([][]uint32, nMorsels)
	err := runMorsels(ph, nMorsels, func(_ *worker, m int) error {
		lo := m * e.morselRows
		hi := min(lo+e.morselRows, mainRows)
		var out []uint32
		var err error
		switch p.Op {
		case Eq:
			out, err = mrc.ScanEqualIn(p.Value, lo, hi, nil, skip)
		default:
			out, err = mrc.ScanRangeIn(p.Value, p.Hi, lo, hi, nil, skip)
		}
		if err != nil {
			return err
		}
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every worker that gets a morsel streams an even share of the
	// column's bytes with the others running concurrently: one stream
	// per worker, or per morsel when there are fewer morsels.
	ph.led.SeqStreams += int64(min(len(ph.ws), nMorsels))
	ph.led.SeqBytes += mrc.Bytes()
	return concat(parts), nil
}

// probeMRCParallel refines the candidate list against a DRAM column,
// chunk-wise across workers.
func (e *Executor) probeMRCParallel(mrc *column.MRC, p Predicate, cand []uint32, ph *phase) ([]uint32, error) {
	nChunks := chunkCount(len(cand), len(ph.ws))
	parts := make([][]uint32, nChunks)
	err := runMorsels(ph, nChunks, func(w *worker, m int) error {
		lo, hi := chunkBounds(len(cand), nChunks, m)
		var out []uint32
		var err error
		switch p.Op {
		case Eq:
			out, err = mrc.ProbeEqual(p.Value, cand[lo:hi], nil)
		default:
			out, err = mrc.ProbeRange(p.Value, p.Hi, cand[lo:hi], nil)
		}
		if err != nil {
			return err
		}
		parts[m] = out
		w.led.Touches += int64(hi - lo)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concat(parts), nil
}

// scanGroupParallel scans the SSCG morsel-wise. Morsel boundaries align
// to page boundaries so no page is read by two workers; each worker
// counts its page reads in its own ledger.
func (e *Executor) scanGroupParallel(v *table.View, gf int, pred func(value.Value) bool, skip func(int) bool, ph *phase) ([]uint32, error) {
	mainRows := v.MainRows()
	group := v.Group()
	align := group.RowsPerPage()
	if align < 1 {
		align = 1 // page-spanning rows: every row owns its pages
	}
	morsel := (e.morselRows + align - 1) / align * align
	nMorsels := (mainRows + morsel - 1) / morsel
	parts := make([][]uint32, nMorsels)
	err := runMorsels(ph, nMorsels, func(w *worker, m int) error {
		lo := m * morsel
		hi := min(lo+morsel, mainRows)
		out, err := group.ScanRows(&w.led, gf, pred, lo, hi, nil, skip)
		if err != nil {
			return err
		}
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concat(parts), nil
}

// probeGroupParallel probes candidate positions in the SSCG, chunk-wise
// across workers (one page access per candidate, overlapped streams).
func (e *Executor) probeGroupParallel(v *table.View, gf int, pred func(value.Value) bool, cand []uint32, ph *phase) ([]uint32, error) {
	group := v.Group()
	nChunks := chunkCount(len(cand), len(ph.ws))
	parts := make([][]uint32, nChunks)
	err := runMorsels(ph, nChunks, func(w *worker, m int) error {
		lo, hi := chunkBounds(len(cand), nChunks, m)
		out, err := group.Probe(&w.led, gf, pred, cand[lo:hi], nil)
		if err != nil {
			return err
		}
		parts[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concat(parts), nil
}

// materializeParallel fills res.Rows chunk-wise across workers. Each
// output slot is owned by exactly one worker (disjoint index ranges),
// so no merge is needed and the row order matches the serial path.
func (e *Executor) materializeParallel(v *table.View, res *Result, project []int, tr *metrics.Trace) error {
	ph := e.newPhase()
	defer e.settle(ph, tr)
	defer func() {
		tr.Op(metrics.OperatorTrace{
			Name: "materialize", Column: -1,
			RowsIn: len(res.IDs), RowsOut: len(res.IDs),
			Morsels: int(ph.morsels()), PageReads: ph.led.PageReads,
		})
		e.m.rowsMaterialized.Add(int64(len(res.IDs)))
	}()
	mainRows := uint64(v.MainRows())
	needGroup := false
	for _, c := range project {
		if v.GroupField(c) >= 0 {
			needGroup = true
		}
	}
	group := v.Group()
	res.Rows = make([][]value.Value, len(res.IDs))
	nChunks := chunkCount(len(res.IDs), len(ph.ws))
	return runMorsels(ph, nChunks, func(w *worker, m int) error {
		lo, hi := chunkBounds(len(res.IDs), nChunks, m)
		for i := lo; i < hi; i++ {
			id := res.IDs[i]
			row := make([]value.Value, len(project))
			var groupRow []value.Value
			if id < mainRows && needGroup && group != nil {
				var err error
				groupRow, err = group.FetchRow(&w.led, int(id))
				if err != nil {
					return err
				}
			}
			for j, c := range project {
				if id < mainRows {
					if gf := v.GroupField(c); gf >= 0 && groupRow != nil {
						row[j] = groupRow[gf]
						continue
					}
					w.led.Touches += 2 // value vector + dictionary
				}
				// Never an SSCG read (those came with groupRow), so the
				// View's ledger, which belongs to the driving goroutine,
				// stays untouched.
				val, err := v.GetValue(id, c)
				if err != nil {
					return err
				}
				row[j] = val
			}
			res.Rows[i] = row
		}
		return nil
	})
}
