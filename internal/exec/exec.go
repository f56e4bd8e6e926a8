// Package exec implements query execution over tiered tables following
// the paper's model (Section II-B): filters run via indexes when
// available; remaining filters are ordered first by location
// (DRAM-resident before tiered) and second by increasing selectivity;
// successive predicates receive position lists; and the executor
// switches from scanning to probing as soon as the fraction of
// qualifying tuples falls below a threshold (default 0.01 % of the
// table). Every query counts its page reads and DRAM accesses in its own
// storage.Ledger; the ledger is priced once, when the query finishes.
package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"tierdb/internal/delta"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// Op is a predicate operator.
type Op int

const (
	// Eq is an equality predicate (column = value).
	Eq Op = iota
	// Between is an inclusive range predicate (lo <= column <= hi).
	Between
)

// Predicate is one conjunctive filter of a query.
type Predicate struct {
	// Column indexes the table schema.
	Column int
	// Op selects the comparison.
	Op Op
	// Value is the equality operand or range lower bound.
	Value value.Value
	// Hi is the inclusive range upper bound (Between only).
	Hi value.Value
}

// Query is a conjunctive filter-and-project query.
type Query struct {
	// Predicates are combined with AND.
	Predicates []Predicate
	// Project lists the columns to materialize for each qualifying
	// row; empty means positions only.
	Project []int
}

// Result carries qualifying row ids and, if requested, their projected
// values.
type Result struct {
	IDs  []table.RowID
	Rows [][]value.Value
}

// Options tunes the executor.
type Options struct {
	// Clock receives the DRAM share of every priced query ledger (the
	// table's timed store books the device share into its own clock);
	// nil leaves DRAM time unbooked.
	Clock *storage.Clock
	// ProbeThreshold is the qualifying fraction below which the
	// executor probes instead of scanning tiered columns (paper:
	// 0.01 % = 0.0001). Zero selects the default.
	ProbeThreshold float64
	// Parallelism is the number of worker goroutines for morsel-driven
	// main-partition scans, probes and materialization; values <= 1
	// select the serial executor. Results are byte-identical to the
	// serial path at any level.
	Parallelism int
	// MorselRows is the number of main-partition rows per morsel for
	// parallel scans; zero selects DefaultMorselRows. SSCG scan
	// morsels are additionally aligned to page boundaries.
	MorselRows int
	// Registry receives executor metrics (access-path counts, scan-to-
	// probe switchovers, morsels, rows, modeled DRAM time). Nil runs
	// unmetered at zero cost.
	Registry *metrics.Registry
	// TraceRing, when set, makes every query (Run and RunTraced alike)
	// capture a full metrics.Trace with its wall-clock duration into
	// the ring — the feed of the observability server's /traces
	// endpoint. Nil disables capture; Run then carries no trace at all.
	TraceRing *metrics.TraceRing
	// SlowRing additionally receives queries whose wall-clock duration
	// reaches SlowQueryThreshold (the slow-query log). Requires
	// TraceRing-style capture to be meaningful but works standalone.
	SlowRing *metrics.TraceRing
	// SlowQueryThreshold gates SlowRing; 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
	// DisableSelCapture turns off observed-selectivity recording (the
	// per-column EWMAs on the table and the selectivity.misestimate
	// histogram). Capture costs one atomic CAS per predicate per query
	// — never per row.
	DisableSelCapture bool
}

// DefaultProbeThreshold is the paper's scan-to-probe switch point.
const DefaultProbeThreshold = 0.0001

// Executor runs queries against one table.
type Executor struct {
	tbl         *table.Table
	clock       *storage.Clock
	threshold   float64
	parallelism int
	morselRows  int
	recent      *metrics.TraceRing
	slow        *metrics.TraceRing
	slowThresh  time.Duration
	selCapture  bool
	m           execInstruments
}

// execInstruments holds the executor's registry handles, resolved once
// at construction so the hot paths pay only an atomic add (or nothing:
// every handle is nil when the registry is nil, and instrument methods
// are no-ops on nil receivers).
type execInstruments struct {
	queries          *metrics.Counter
	parallelQueries  *metrics.Counter
	indexLookups     *metrics.Counter
	mrcScans         *metrics.Counter
	mrcProbes        *metrics.Counter
	sscgScans        *metrics.Counter
	sscgProbes       *metrics.Counter
	switchovers      *metrics.Counter
	morsels          *metrics.Counter
	rowsQualified    *metrics.Counter
	rowsScanned      *metrics.Counter
	rowsMaterialized *metrics.Counter
	dramNs           *metrics.Counter
	dramScanBytes    *metrics.Counter
	slowQueries      *metrics.Counter
	tracesCaptured   *metrics.Counter
	selSamples       *metrics.Counter
	misestimate      *metrics.Histogram
	wallNs           *metrics.Histogram
}

// newExecInstruments resolves the executor's instruments from r (all
// nil for a nil registry).
func newExecInstruments(r *metrics.Registry) execInstruments {
	return execInstruments{
		queries:          r.Counter("exec.queries"),
		parallelQueries:  r.Counter("exec.queries.parallel"),
		indexLookups:     r.Counter("exec.path.index_lookups"),
		mrcScans:         r.Counter("exec.path.mrc_scans"),
		mrcProbes:        r.Counter("exec.path.mrc_probes"),
		sscgScans:        r.Counter("exec.path.sscg_scans"),
		sscgProbes:       r.Counter("exec.path.sscg_probes"),
		switchovers:      r.Counter("exec.switch.scan_to_probe"),
		morsels:          r.Counter("exec.morsels"),
		rowsQualified:    r.Counter("exec.rows.qualified"),
		rowsScanned:      r.Counter("exec.rows.scanned"),
		rowsMaterialized: r.Counter("exec.rows.materialized"),
		dramNs:           r.Counter("exec.dram_ns"),
		dramScanBytes:    r.Counter("exec.dram.scan_bytes"),
		slowQueries:      r.Counter("exec.slow_queries"),
		tracesCaptured:   r.Counter("obs.traces_captured"),
		selSamples:       r.Counter("selectivity.samples"),
		misestimate:      r.Histogram("selectivity.misestimate", metrics.MisestimateBuckets()),
		wallNs:           r.Histogram("exec.wall_ns", metrics.IOLatencyBuckets()),
	}
}

// New builds an executor for tbl.
func New(tbl *table.Table, opts Options) *Executor {
	if opts.ProbeThreshold == 0 {
		opts.ProbeThreshold = DefaultProbeThreshold
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	if opts.MorselRows < 1 {
		opts.MorselRows = DefaultMorselRows
	}
	return &Executor{
		tbl:         tbl,
		clock:       opts.Clock,
		threshold:   opts.ProbeThreshold,
		parallelism: opts.Parallelism,
		morselRows:  opts.MorselRows,
		recent:      opts.TraceRing,
		slow:        opts.SlowRing,
		slowThresh:  opts.SlowQueryThreshold,
		selCapture:  !opts.DisableSelCapture,
		m:           newExecInstruments(opts.Registry),
	}
}

// Parallelism returns the configured worker count (1 = serial).
func (e *Executor) Parallelism() int { return e.parallelism }

// book settles a finished ledger and zeroes it: the table's store prices
// it and books the device share, the DRAM share goes to the executor's
// clock and the exec.dram_ns counter, and the active trace (tr may be
// nil) adds the whole cost.
func (e *Executor) book(tr *metrics.Trace, led *storage.Ledger) {
	c := storage.Charge(e.tbl.Store(), *led)
	e.clock.Add(c.DRAM, 0)
	e.m.dramNs.Add(int64(c.DRAM))
	tr.AddCost(int64(c.DRAM), int64(c.Device()), led.PageReads)
	*led = storage.Ledger{}
}

// release books the View's ledger, then releases the View.
func (e *Executor) release(v *table.View, tr *metrics.Trace) {
	e.book(tr, v.Ledger())
	v.Release()
}

// Run executes q at the transaction's snapshot (tx may be nil for a
// read at the latest snapshot). When a trace ring is configured, the
// query is captured exactly like RunTraced.
func (e *Executor) Run(q Query, tx *mvcc.Tx) (*Result, error) {
	return e.RunCtx(context.Background(), q, tx)
}

// RunCtx is Run with a context. A sampled request span carried by ctx
// (see tierdb/internal/trace) gets an "exec.query" child whose
// children mirror the executed operators — one span per filter
// application and per materialize/visibility pass, with morsel fan-out
// recorded as an attribute.
func (e *Executor) RunCtx(ctx context.Context, q Query, tx *mvcc.Tx) (*Result, error) {
	if e.recent == nil && e.slow == nil && trace.FromContext(ctx) == nil {
		return e.run(q, tx, nil)
	}
	res, _, err := e.RunTracedCtx(ctx, q, tx)
	return res, err
}

// RunTraced is Run with per-query tracing: the returned Trace records
// the filter ordering chosen, per-operator access paths (including
// scan-to-probe switchovers), morsels per worker, rows qualified and
// the modeled cost split per device, priced from the query's own
// ledger, so concurrent queries never blur it. The trace is partially
// filled when an error is returned. When trace rings are
// configured, the trace also enters the recent ring (and the slow ring
// if the wall-clock duration reaches the slow-query threshold).
func (e *Executor) RunTraced(q Query, tx *mvcc.Tx) (*Result, *metrics.Trace, error) {
	return e.RunTracedCtx(context.Background(), q, tx)
}

// RunTracedCtx is RunTraced with a context; see RunCtx for the span
// family a sampled request span receives.
func (e *Executor) RunTracedCtx(ctx context.Context, q Query, tx *mvcc.Tx) (*Result, *metrics.Trace, error) {
	tr := &metrics.Trace{
		Table:          e.tbl.Name(),
		Parallelism:    e.parallelism,
		ProbeThreshold: e.threshold,
	}
	if timed, ok := e.tbl.Store().(*storage.TimedStore); ok {
		tr.Device = timed.Profile().Name
	}
	span := trace.FromContext(ctx).Child("exec.query", trace.String("table", e.tbl.Name()))
	start := time.Now()
	if span != nil {
		// Anchor operator intervals at the span's own start so children
		// never precede their parent by a clock read.
		tr.StartNs = span.StartNs
	} else {
		tr.StartNs = start.UnixNano()
	}
	res, err := e.run(q, tx, tr)
	e.capture(tr, start, time.Since(start), err, span)
	emitSpans(span, tr, err)
	return res, tr, err
}

// emitSpans converts a finished query's operator intervals into child
// spans of the request trace and closes the "exec.query" span. No-op
// on a nil (unsampled) span.
func emitSpans(span *trace.Span, tr *metrics.Trace, err error) {
	if span == nil {
		return
	}
	for i := range tr.Operators {
		op := &tr.Operators[i]
		attrs := make([]trace.Attr, 0, 5)
		attrs = append(attrs,
			trace.String("partition", op.Partition),
			trace.Int("rows_in", int64(op.RowsIn)),
			trace.Int("rows_out", int64(op.RowsOut)))
		if op.Path != "" {
			attrs = append(attrs, trace.String("path", op.Path))
		}
		if op.Morsels > 0 {
			attrs = append(attrs, trace.Int("morsels", int64(op.Morsels)))
		}
		span.ChildAt("exec."+op.Name, op.StartNs, op.EndNs, attrs...)
	}
	span.SetAttr(
		trace.Int("rows", int64(tr.RowsQualified)),
		trace.Int("dram_ns", tr.DRAMNs),
		trace.Int("device_ns", tr.DeviceNs))
	span.SetError(err)
	span.End()
}

// Explain prepares q exactly as Run would — same predicate ordering,
// access-path choices and selectivity estimates — without executing
// anything. The returned trace carries the chosen filter order in
// Predicates; Operators stay empty. Plan-only introspection must not
// disturb the engine, so nothing is charged, captured or recorded.
func (e *Executor) Explain(q Query) (*metrics.Trace, error) {
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	tr := &metrics.Trace{
		Table:          e.tbl.Name(),
		Parallelism:    e.parallelism,
		ProbeThreshold: e.threshold,
	}
	if timed, ok := e.tbl.Store().(*storage.TimedStore); ok {
		tr.Device = timed.Profile().Name
	}
	v := e.tbl.Pin()
	defer v.Release()
	for _, p := range e.orderPredicates(v, q.Predicates) {
		tr.Predicate(metrics.PredicateTrace{
			Column:               p.Column,
			Op:                   opName(p.Op),
			Path:                 e.pathOf(v, p),
			EstimatedSelectivity: e.estimateSelectivity(p),
		})
	}
	return tr, nil
}

// stampPageReads attributes a step's device page reads to the single
// operator the step appended (no-op when the step recorded none, or
// more than one — attribution must never double-count).
func stampPageReads(tr *metrics.Trace, mark int, reads int64) {
	if tr == nil || reads <= 0 || len(tr.Operators) != mark+1 {
		return
	}
	tr.Operators[mark].PageReads = reads
}

// capture publishes a finished query's trace into the recent ring and,
// past the slow-query threshold, the slow ring. No-op without rings.
func (e *Executor) capture(tr *metrics.Trace, start time.Time, wall time.Duration, err error, span *trace.Span) {
	if e.recent == nil && e.slow == nil {
		return
	}
	e.m.wallNs.Observe(int64(wall))
	entry := &metrics.TraceEntry{
		UnixNano: start.UnixNano(),
		WallNs:   int64(wall),
		Trace:    tr,
	}
	if span != nil {
		entry.TraceID = span.Trace.String()
	}
	if err != nil {
		entry.Err = err.Error()
	}
	e.recent.Add(entry)
	e.m.tracesCaptured.Inc()
	if e.slow != nil && e.slowThresh > 0 && wall >= e.slowThresh {
		// A fresh entry: each ring stamps its own sequence number.
		slowEntry := *entry
		e.slow.Add(&slowEntry)
		e.m.slowQueries.Inc()
	}
}

// observeSelectivity folds the measured qualifying fraction of one
// main-partition predicate application (rows out of rows in) into the
// column's EWMA on the table, and scores the optimizer's estimate in
// the selectivity.misestimate histogram (milli-nats of |ln(obs/est)|).
// A zero-match application is clamped to half a row so the log ratio
// and the EWMA stay finite and model-valid.
func (e *Executor) observeSelectivity(p Predicate, in, out int) {
	if !e.selCapture || in <= 0 {
		return
	}
	f := float64(out) / float64(in)
	if out == 0 {
		f = 1 / float64(2*in)
	}
	e.tbl.RecordObservedSelectivity(p.Column, f)
	e.m.selSamples.Inc()
	if est := e.estimateSelectivity(p); est > 0 {
		e.m.misestimate.Observe(int64(math.Abs(math.Log(f/est)) * 1000))
	}
}

// run executes q, filling tr in when non-nil.
func (e *Executor) run(q Query, tx *mvcc.Tx, tr *metrics.Trace) (*Result, error) {
	var snapshot mvcc.Timestamp
	var self mvcc.TxID
	if tx != nil {
		snapshot, self = tx.Snapshot(), tx.ID()
	} else {
		snapshot = e.tbl.Manager().LastCommit()
	}
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	e.m.queries.Inc()
	if e.parallelism > 1 {
		e.m.parallelQueries.Inc()
	}

	// Pin the table's structure for the whole query: an online merge
	// swapping the main partition mid-query cannot tear the reads, and
	// the epoch reference keeps the pinned SSCG's pages allocated until
	// Release. The View's ledger is the query's serial ledger; parallel
	// phases price their own.
	v := e.tbl.Pin()
	defer e.release(v, tr)

	ordered := e.orderPredicates(v, q.Predicates)
	if tr != nil {
		for _, p := range ordered {
			tr.Predicate(metrics.PredicateTrace{
				Column:               p.Column,
				Op:                   opName(p.Op),
				Path:                 e.pathOf(v, p),
				EstimatedSelectivity: e.estimateSelectivity(p),
			})
		}
	}

	var mainIDs []uint32
	var err error
	if e.parallelism > 1 {
		mainIDs, err = e.runMainParallel(v, ordered, snapshot, self, tr)
	} else {
		mainIDs, err = e.runMain(v, ordered, snapshot, self, tr)
	}
	if err != nil {
		return nil, err
	}
	deltaIDs, err := e.runDelta(v, ordered, snapshot, self, tr)
	if err != nil {
		return nil, err
	}

	res := &Result{IDs: make([]table.RowID, 0, len(mainIDs)+len(deltaIDs))}
	for _, p := range mainIDs {
		res.IDs = append(res.IDs, table.RowID(p))
	}
	mainRows := uint64(v.MainRows())
	for _, p := range deltaIDs {
		res.IDs = append(res.IDs, mainRows+uint64(p))
	}
	if len(q.Project) > 0 {
		if e.parallelism > 1 {
			err = e.materializeParallel(v, res, q.Project, tr)
		} else {
			err = e.materialize(v, res, q.Project, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	e.m.rowsQualified.Add(int64(len(res.IDs)))
	if tr != nil {
		tr.RowsQualified = len(res.IDs)
	}
	return res, nil
}

// opName renders a predicate operator for traces.
func opName(op Op) string {
	if op == Between {
		return "between"
	}
	return "eq"
}

// pathOf returns the access-path rank label of p's column in the pinned
// view, mirroring orderPredicates' ranking.
func (e *Executor) pathOf(v *table.View, p Predicate) string {
	if v.Index(p.Column) != nil {
		return "index"
	}
	if v.MRC(p.Column) != nil {
		return "mrc"
	}
	return "sscg"
}

// checkQuery validates predicate and projection column indexes.
func (e *Executor) checkQuery(q Query) error {
	n := e.tbl.Schema().Len()
	for _, p := range q.Predicates {
		if p.Column < 0 || p.Column >= n {
			return fmt.Errorf("exec: predicate column %d out of range (%d)", p.Column, n)
		}
		if p.Op != Eq && p.Op != Between {
			return fmt.Errorf("exec: unknown operator %d", p.Op)
		}
	}
	for _, c := range q.Project {
		if c < 0 || c >= n {
			return fmt.Errorf("exec: projected column %d out of range (%d)", c, n)
		}
	}
	return nil
}

// orderPredicates sorts predicates as the paper prescribes: indexed
// first, then DRAM-resident by ascending selectivity, then tiered by
// ascending selectivity. Equality predicates use the 1/distinct
// estimate; range predicates use the column's equi-depth histogram
// when available (Section III-A: "distinct counts and histograms").
func (e *Executor) orderPredicates(v *table.View, preds []Predicate) []Predicate {
	out := append([]Predicate(nil), preds...)
	rank := func(p Predicate) (int, float64) {
		sel := e.estimateSelectivity(p)
		if v.Index(p.Column) != nil {
			return 0, sel
		}
		if v.MRC(p.Column) != nil {
			return 1, sel
		}
		return 2, sel
	}
	sort.SliceStable(out, func(a, b int) bool {
		ra, sa := rank(out[a])
		rb, sb := rank(out[b])
		if ra != rb {
			return ra < rb
		}
		return sa < sb
	})
	return out
}

// estimateSelectivity returns the expected qualifying fraction of one
// predicate.
func (e *Executor) estimateSelectivity(p Predicate) float64 {
	switch p.Op {
	case Between:
		if p.Value.Type() == p.Hi.Type() {
			return e.tbl.RangeSelectivity(p.Column, p.Value, p.Hi)
		}
		return e.tbl.Selectivity(p.Column)
	default:
		return e.tbl.Selectivity(p.Column)
	}
}

// runMain evaluates the ordered predicates over the main partition and
// returns qualifying main-row positions.
func (e *Executor) runMain(v *table.View, preds []Predicate, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	mainRows := v.MainRows()
	if mainRows == 0 {
		return nil, nil
	}
	skip := func(row int) bool {
		return !v.MainVersions().Visible(row, snapshot, self)
	}
	led := v.Ledger()
	var cand []uint32
	first := true
	for _, p := range preds {
		mark, reads0 := 0, led.PageReads
		if tr != nil {
			mark = len(tr.Operators)
		}
		var err error
		cand, err = e.applyMain(v, p, cand, first, skip, tr)
		if err != nil {
			return nil, err
		}
		stampPageReads(tr, mark, led.PageReads-reads0)
		first = false
		if len(cand) == 0 {
			return nil, nil
		}
	}
	if first {
		// No predicates: all visible rows qualify.
		for row := 0; row < mainRows; row++ {
			if !skip(row) {
				cand = append(cand, uint32(row))
			}
		}
		e.m.rowsScanned.Add(int64(mainRows))
		tr.Op(metrics.OperatorTrace{
			Name: "visible", Partition: "main", Column: -1,
			RowsIn: mainRows, RowsOut: len(cand),
		})
	}
	return cand, nil
}

// applyMain evaluates one predicate over the main partition, narrowing
// the candidate list (nil on the first predicate).
func (e *Executor) applyMain(v *table.View, p Predicate, cand []uint32, first bool, skip func(int) bool, tr *metrics.Trace) ([]uint32, error) {
	mainRows := v.MainRows()
	led := v.Ledger()

	// Index access path (always DRAM-resident).
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

	if mrc := v.MRC(p.Column); mrc != nil {
		if first {
			// Full scan on the compressed DRAM column: one stream.
			led.SeqStreams++
			led.SeqBytes += mrc.Bytes()
			e.m.mrcScans.Inc()
			e.m.rowsScanned.Add(int64(mainRows))
			e.m.dramScanBytes.Add(mrc.Bytes())
			var out []uint32
			var err error
			switch p.Op {
			case Eq:
				out, err = mrc.ScanEqual(p.Value, nil, skip)
			default:
				out, err = mrc.ScanRange(p.Value, p.Hi, nil, skip)
			}
			if err != nil {
				return nil, err
			}
			e.observeSelectivity(p, mainRows, len(out))
			tr.Op(metrics.OperatorTrace{
				Name: "scan", Partition: "main", Path: "mrc", Column: p.Column,
				RowsIn: mainRows, RowsOut: len(out),
			})
			return out, nil
		}
		// Subsequent predicate: probe the candidate list (always
		// cheaper than re-scanning DRAM).
		led.Touches += int64(len(cand))
		e.m.mrcProbes.Inc()
		e.m.rowsScanned.Add(int64(len(cand)))
		var out []uint32
		var err error
		switch p.Op {
		case Eq:
			out, err = mrc.ProbeEqual(p.Value, cand, nil)
		default:
			out, err = mrc.ProbeRange(p.Value, p.Hi, cand, nil)
		}
		if err != nil {
			return nil, err
		}
		e.observeSelectivity(p, len(cand), len(out))
		tr.Op(metrics.OperatorTrace{
			Name: "probe", Partition: "main", Path: "mrc", Column: p.Column,
			RowsIn: len(cand), RowsOut: len(out),
		})
		return out, nil
	}

	// Tiered column (SSCG-placed).
	gf := v.GroupField(p.Column)
	group := v.Group()
	if group == nil || gf < 0 {
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
		// Scan the whole group (reads every page), then intersect.
		e.m.sscgScans.Inc()
		e.m.rowsScanned.Add(int64(mainRows))
		matches, err := group.ScanRows(led, gf, pred, 0, group.Rows(), nil, skip)
		if err != nil {
			return nil, err
		}
		// The full-partition match count is the predicate's own marginal
		// fraction — measured before intersecting with the candidates.
		e.observeSelectivity(p, mainRows, len(matches))
		out := matches
		if !first {
			out = intersect(cand, matches)
		}
		op := metrics.OperatorTrace{
			Name: "scan", Partition: "main", Path: "sscg", Column: p.Column,
			RowsIn: mainRows, RowsOut: len(out),
		}
		if !first {
			op.RowsIn, op.CandidateFraction = len(cand), fraction
		}
		tr.Op(op)
		return out, nil
	}
	// Probe: one page access per candidate. This is the paper's
	// scan-to-probe switchover — the candidate fraction fell below the
	// threshold, so per-candidate page accesses beat a full scan.
	e.m.sscgProbes.Inc()
	e.m.switchovers.Inc()
	e.m.rowsScanned.Add(int64(len(cand)))
	out, err := group.Probe(led, gf, pred, cand, nil)
	if err != nil {
		return nil, err
	}
	e.observeSelectivity(p, len(cand), len(out))
	tr.Op(metrics.OperatorTrace{
		Name: "probe", Partition: "main", Path: "sscg", Column: p.Column,
		SwitchedToProbe: true, CandidateFraction: fraction,
		RowsIn: len(cand), RowsOut: len(out),
	})
	return out, nil
}

// indexLookup resolves a predicate through the column's B+-tree index,
// returning visible matching positions in ascending row order. Shared
// by the serial and parallel paths (index descent is DRAM-cheap and
// stays single-threaded either way).
func (e *Executor) indexLookup(v *table.View, p Predicate, skip func(int) bool) []uint32 {
	idx := v.Index(p.Column)
	var positions []uint32
	collect := func(_ value.Value, rows []uint32) bool {
		positions = append(positions, rows...)
		return true
	}
	switch p.Op {
	case Eq:
		positions = append(positions, idx.Lookup(p.Value)...)
	case Between:
		idx.Range(p.Value, p.Hi, collect)
	}
	v.Ledger().Touches += int64(20 + len(positions)) // tree descent + leaf reads
	out := positions[:0]
	for _, pos := range positions {
		if !skip(int(pos)) {
			out = append(out, pos)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// compile turns a predicate into a value filter for SSCG evaluation.
func (e *Executor) compile(p Predicate) (func(value.Value) bool, error) {
	typ := e.tbl.Schema().Field(p.Column).Type
	if p.Value.Type() != typ {
		return nil, fmt.Errorf("exec: predicate on column %d has type %s, want %s", p.Column, p.Value.Type(), typ)
	}
	switch p.Op {
	case Eq:
		v := p.Value
		return func(x value.Value) bool { return x.Equal(v) }, nil
	case Between:
		if p.Hi.Type() != typ {
			return nil, fmt.Errorf("exec: range bound on column %d has type %s, want %s", p.Column, p.Hi.Type(), typ)
		}
		lo, hi := p.Value, p.Hi
		return func(x value.Value) bool { return x.Compare(lo) >= 0 && x.Compare(hi) <= 0 }, nil
	}
	return nil, fmt.Errorf("exec: unknown operator %d", p.Op)
}

// runDelta evaluates predicates over the delta side of the view. During
// an online merge the delta is split: the frozen partition (being folded
// into the new main) comes first in RowID order, then the active
// partition offset by the frozen row count — matching View.Visible's
// routing, so RowIDs assembled by run() resolve consistently.
func (e *Executor) runDelta(v *table.View, preds []Predicate, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	var out []uint32
	if fz := v.Frozen(); fz != nil {
		ids, err := e.runDeltaPart(v.Ledger(), fz, v.FrozenRows(), 0, "delta.frozen", preds, snapshot, self, tr)
		if err != nil {
			return nil, err
		}
		out = ids
	}
	ids, err := e.runDeltaPart(v.Ledger(), v.Active(), v.ActiveRows(), uint32(v.FrozenRows()), "delta", preds, snapshot, self, tr)
	if err != nil {
		return nil, err
	}
	return append(out, ids...), nil
}

// runDeltaPart evaluates predicates over one delta partition. bound
// caps the physical positions considered (the view's pin-time row count
// for the active delta, which keeps growing underneath us); offset
// shifts the returned positions into the view's combined delta RowID
// space. DRAM touches are counted in led.
func (e *Executor) runDeltaPart(led *storage.Ledger, d *delta.Partition, bound int, offset uint32, part string, preds []Predicate, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	if bound == 0 {
		return nil, nil
	}
	inBound := func(positions []uint32) []uint32 {
		out := positions[:0]
		for _, pos := range positions {
			if int(pos) < bound {
				out = append(out, pos)
			}
		}
		return out
	}
	shift := func(positions []uint32) []uint32 {
		if offset != 0 {
			for i := range positions {
				positions[i] += offset
			}
		}
		return positions
	}
	if len(preds) == 0 {
		rows := d.VisibleRows(snapshot, self)
		out := make([]uint32, 0, len(rows))
		for _, r := range rows {
			if r < bound {
				out = append(out, uint32(r))
			}
		}
		tr.Op(metrics.OperatorTrace{
			Name: "visible", Partition: part, Column: -1,
			RowsIn: bound, RowsOut: len(out),
		})
		return shift(out), nil
	}
	var cand []uint32
	for i, p := range preds {
		if i == 0 {
			var err error
			switch p.Op {
			case Eq:
				cand, err = d.ScanEqual(p.Column, p.Value, snapshot, self, nil)
			default:
				cand, err = d.ScanRange(p.Column, p.Value, p.Hi, snapshot, self, nil)
			}
			if err != nil {
				return nil, err
			}
			cand = inBound(cand)
			led.Touches += int64(20 + len(cand))
			tr.Op(metrics.OperatorTrace{
				Name: "scan", Partition: part, Path: "index", Column: p.Column,
				RowsIn: bound, RowsOut: len(cand),
			})
		} else {
			in := len(cand)
			pred, err := e.compile(p)
			if err != nil {
				return nil, err
			}
			out := cand[:0]
			for _, pos := range cand {
				val, err := d.Get(int(pos), p.Column)
				if err != nil {
					return nil, err
				}
				if pred(val) {
					out = append(out, pos)
				}
			}
			cand = out
			led.Touches += int64(len(cand))
			tr.Op(metrics.OperatorTrace{
				Name: "probe", Partition: part, Column: p.Column,
				RowsIn: in, RowsOut: len(cand),
			})
		}
		if len(cand) == 0 {
			return nil, nil
		}
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a] < cand[b] })
	return shift(cand), nil
}

// materialize fills res.Rows with the projected columns of each
// qualifying row. For main-partition rows with SSCG-placed projections,
// one group page access delivers all grouped attributes of a row.
func (e *Executor) materialize(v *table.View, res *Result, project []int, tr *metrics.Trace) error {
	led := v.Ledger()
	reads0 := led.PageReads
	mainRows := uint64(v.MainRows())
	group := v.Group()
	needGroup := false
	for _, c := range project {
		if v.GroupField(c) >= 0 {
			needGroup = true
		}
	}
	res.Rows = make([][]value.Value, len(res.IDs))
	for i, id := range res.IDs {
		row := make([]value.Value, len(project))
		var groupRow []value.Value
		if id < mainRows && needGroup && group != nil {
			var err error
			groupRow, err = group.FetchRow(led, int(id))
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
				led.Touches += 2 // value vector + dictionary
			}
			val, err := v.GetValue(id, c)
			if err != nil {
				return err
			}
			row[j] = val
		}
		res.Rows[i] = row
	}
	e.m.rowsMaterialized.Add(int64(len(res.IDs)))
	tr.Op(metrics.OperatorTrace{
		Name: "materialize", Partition: "main", Column: -1,
		RowsIn: len(res.IDs), RowsOut: len(res.IDs),
		PageReads: led.PageReads - reads0,
	})
	return nil
}

// intersect returns the sorted intersection of two ascending position
// lists.
func intersect(a, b []uint32) []uint32 {
	out := make([]uint32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
