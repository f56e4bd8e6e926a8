package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tierdb"
	"tierdb/internal/exec"
	"tierdb/internal/mvcc"
	"tierdb/internal/server"
	"tierdb/internal/tpcc"
	"tierdb/internal/trace"
	"tierdb/internal/value"
	"tierdb/internal/wal"
)

// Spans a traced run keeps in memory, for the window and for each
// probed operation type after it; later spans of a phase are counted
// and dropped.
const (
	windowSpans = 40_000
	probeSpans  = 10_000
)

// spanLog keeps the traced run's spans: the client's and the server's,
// joined by trace ID, with the operation type of each request.
type spanLog struct {
	mu      sync.Mutex
	spans   []*trace.Span
	limit   int
	dropped int
	ops     map[trace.TraceID]opKind
}

func newSpanLog() *spanLog { return &spanLog{ops: map[trace.TraceID]opKind{}} }

// allow lets the log keep n more spans.
func (l *spanLog) allow(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limit = len(l.spans) + n
}

func (l *spanLog) add(s *trace.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

func (l *spanLog) tag(id trace.TraceID, k opKind) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops[id] = k
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []*trace.Span) map[*trace.Span]time.Duration {
	children := map[trace.SpanID][]*trace.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[*trace.Span]time.Duration, len(spans))
	for _, s := range spans {
		out[s] = time.Duration(s.EndNs-s.StartNs) - covered(s.StartNs, s.EndNs, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans'
// intervals.
func covered(lo, hi int64, spans []*trace.Span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.StartNs, lo), min(s.EndNs, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return time.Duration(total)
}

// opBreakdown is one operation type's layer self-time summary.
type opBreakdown struct {
	Op string `json:"op"`
	// E2EP50Us and E2EMeanUs are the untraced latency of the op type
	// from the same run (untraced slices of the window, or probes).
	E2EP50Us  float64 `json:"e2e_p50_us"`
	E2EMeanUs float64 `json:"e2e_mean_us"`
	Traces    int     `json:"traces"`
	// SelfMeanUs is each span name's mean self time per request.
	SelfMeanUs map[string]float64 `json:"self_mean_us"`
	// UnattributedUs is the untraced mean minus the server-side
	// layers' self time: client library, loopback TCP and scheduling,
	// which no span below client.send covers.
	UnattributedUs   float64 `json:"unattributed_us"`
	UnattributedFrac float64 `json:"unattributed_frac"`
}

// breakdown summarises the kept spans per operation type.
func (b *bench) breakdown() []opBreakdown {
	byTrace := map[trace.TraceID][]*trace.Span{}
	for _, s := range b.spans.spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	type acc struct {
		n    int
		self map[string]time.Duration
	}
	var accs [numOps]acc
	for id, spans := range byTrace {
		k, ok := b.spans.ops[id]
		if !ok || !hasRoot(spans) {
			continue
		}
		a := &accs[k]
		if a.self == nil {
			a.self = map[string]time.Duration{}
		}
		a.n++
		for s, d := range selfTimes(spans) {
			a.self[s.Name] += d
		}
	}
	var out []opBreakdown
	for k := opKind(0); k < numOps; k++ {
		a := accs[k]
		if a.n == 0 {
			continue
		}
		sum := b.lat[k].summarise()
		p50, _ := sum.at(50)
		ob := opBreakdown{
			Op: k.String(), E2EP50Us: p50 / 1e3, E2EMeanUs: sum.mean() / 1e3,
			Traces: a.n, SelfMeanUs: map[string]float64{},
		}
		server := 0.0
		for name, d := range a.self {
			us := float64(d) / float64(a.n) / 1e3
			ob.SelfMeanUs[name] = us
			if name != "client.send" {
				server += us
			}
		}
		ob.UnattributedUs = ob.E2EMeanUs - server
		if ob.E2EMeanUs > 0 {
			ob.UnattributedFrac = ob.UnattributedUs / ob.E2EMeanUs
		}
		out = append(out, ob)
	}
	return out
}

func hasRoot(spans []*trace.Span) bool {
	for _, s := range spans {
		if s.Name == "client.send" {
			return true
		}
	}
	return false
}

// writeSpans writes the kept spans and the breakdown as JSON and
// prints the breakdown.
func (b *bench) writeSpans(bd []opBreakdown) error {
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.spec.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Workload  string        `json:"workload"`
		Seed      int64         `json:"seed"`
		Dropped   int           `json:"dropped_spans"`
		Breakdown []opBreakdown `json:"breakdown"`
		Spans     []*trace.Span `json:"spans"`
	}{b.spec.name, b.seed, b.spans.dropped, bd, b.spans.spans})
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return fmt.Errorf("write spans: %w", werr)
	}
	for _, ob := range bd {
		names := make([]string, 0, len(ob.SelfMeanUs))
		for n := range ob.SelfMeanUs {
			names = append(names, n)
		}
		sort.Strings(names)
		var parts []string
		for _, n := range names {
			parts = append(parts, fmt.Sprintf("%s %.1f", n, ob.SelfMeanUs[n]))
		}
		b.logf("%s/%s: e2e p50 %.1fus mean %.1fus (%d traces); self us: %s; unattributed %.1fus (%.0f%%)",
			b.spec.name, ob.Op, ob.E2EP50Us, ob.E2EMeanUs, ob.Traces, strings.Join(parts, ", "),
			ob.UnattributedUs, 100*ob.UnattributedFrac)
	}
	b.logf("spans written to %s (%d kept, %d dropped)", path, len(b.spans.spans), b.spans.dropped)
	return nil
}

// layerOps is how many operations of each type the layer phase times
// three ways (wire, Table.SelectCtx, Executor.RunCtx).
var layerOps = [numOps]int{opScan: 20, opRange: 100, opPoint: 100, opLookup: 200, opInsert: 200}

// layerPhase runs after the window: it times the same operations over
// the wire and in-process, then times single layers' public functions
// directly, and stores the per-layer metrics.
func (b *bench) layerPhase(w *worker) error {
	ctx := context.Background()
	db, tbl := b.in.db, b.in.tbl
	var wire, sel, run [numOps]latencies
	var allocs float64
	var queries int
	for _, k := range []opKind{opScan, opRange, opPoint, opLookup} {
		for i := 0; i < layerOps[k]; i++ {
			q := w.query(k)
			b.attempted.Add(1)
			t0 := time.Now()
			res, err := w.plain.Select(tableName, q.preds, q.project...)
			wire[k].add(time.Since(t0))
			if err != nil {
				b.fail(k, err)
				continue
			}
			b.check(q, res.Rows)
			preds, proj, err := inprocQuery(tbl, q)
			if err != nil {
				return err
			}
			b.attempted.Add(2)
			t0 = time.Now()
			r2, err := tbl.SelectCtx(ctx, nil, preds, q.project...)
			sel[k].add(time.Since(t0))
			if err != nil {
				b.fail(k, err)
				continue
			}
			b.check(q, r2.Rows)
			a0 := readRuntime().allocBytes
			t0 = time.Now()
			r3, err := tbl.Executor().RunCtx(ctx, exec.Query{Predicates: preds, Project: proj}, nil)
			run[k].add(time.Since(t0))
			allocs += readRuntime().allocBytes - a0
			queries++
			if err != nil {
				b.fail(k, err)
				continue
			}
			b.check(q, r3.Rows)
		}
	}
	var deltaIns, commit latencies
	for i := 0; i < layerOps[opInsert]; i++ {
		d, err := w.runOp(opInsert, false)
		wire[opInsert].add(d)
		b.attempted.Add(2)
		if err != nil {
			b.fail(opInsert, err)
		}
		g := b.nextInsert.Add(1) - 1
		t0 := time.Now()
		err = tbl.InsertCtx(ctx, b.ds.insertRow(b.seed, g))
		sel[opInsert].add(time.Since(t0))
		w.record(g, err)
		if err != nil {
			b.fail(opInsert, err)
		}
		g = b.nextInsert.Add(1) - 1
		tx := db.Begin()
		t0 = time.Now()
		err = tbl.InsertTx(tx, b.ds.insertRow(b.seed, g))
		deltaIns.add(time.Since(t0))
		if err != nil {
			w.record(g, err)
			b.fail(opInsert, err)
			if aerr := db.Abort(tx); aerr != nil {
				return aerr
			}
			continue
		}
		t0 = time.Now()
		err = db.CommitCtx(ctx, tx)
		commit.add(time.Since(t0))
		w.record(g, err)
		if err != nil {
			b.fail(opInsert, err)
		}
	}

	m := map[string]metric{}
	p50 := func(l *latencies) float64 { v, _ := l.summarise().at(50); return v }
	m["server.insert_overhead_us"] = metric{(p50(&wire[opInsert]) - p50(&sel[opInsert])) / 1e3, "us"}
	m["server.lookup_overhead_us"] = metric{(p50(&wire[opLookup]) - p50(&sel[opLookup])) / 1e3, "us"}
	m["server.scan_overhead_ms"] = metric{(p50(&wire[opScan]) - p50(&sel[opScan])) / 1e6, "ms"}
	m["tierdb.select_resolve_us"] = metric{(p50(&sel[opLookup]) - p50(&run[opLookup])) / 1e3, "us"}
	m["exec.scan_ms"] = metric{p50(&run[opScan]) / 1e6, "ms"}
	m["exec.range_ms"] = metric{p50(&run[opRange]) / 1e6, "ms"}
	m["exec.point_ms"] = metric{p50(&run[opPoint]) / 1e6, "ms"}
	m["exec.lookup_us"] = metric{p50(&run[opLookup]) / 1e3, "us"}
	m["exec.alloc_bytes_per_query"] = metric{allocs / float64(queries), "B"}
	m["delta.insert_us"] = metric{p50(&deltaIns) / 1e3, "us"}
	m["mvcc.commit_us"] = metric{p50(&commit) / 1e3, "us"}

	// Single layers on the settled main partition.
	if err := b.in.mergeSettled(); err != nil {
		return fmt.Errorf("merge before layer timings: %w", err)
	}
	if err := b.storageLayers(w, m); err != nil {
		return err
	}
	if err := b.walLayer(m); err != nil {
		return err
	}
	b.layer = m
	return nil
}

// check verifies a layer-phase answer; no insert runs concurrently.
func (b *bench) check(q query, rows [][]tierdb.Value) {
	b.checkAnswer(q, rows, b.ackedMatching(q), b.nextInsert.Load())
}

// inprocQuery compiles a wire query against the table.
func inprocQuery(tbl *tierdb.Table, q query) ([]tierdb.Predicate, []int, error) {
	var preds []tierdb.Predicate
	for _, p := range q.preds {
		var pred tierdb.Predicate
		var err error
		if p.Op == server.PredBetween {
			pred, err = tbl.Between(p.Column, p.Value, p.Hi)
		} else {
			pred, err = tbl.Eq(p.Column, p.Value)
		}
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, pred)
	}
	schema := tbl.Inner().Schema()
	proj := make([]int, len(q.project))
	for i, name := range q.project {
		proj[i] = schema.IndexOf(name)
	}
	return preds, proj, nil
}

// medianOf times fn reps times and returns the median duration.
func medianOf(reps int, fn func() error) (time.Duration, error) {
	var l latencies
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		l.add(time.Since(t0))
	}
	v, _ := l.summarise().at(50)
	return time.Duration(v), nil
}

// storageLayers times the column, mvcc, sscg and bptree layers'
// public functions on the main partition.
func (b *bench) storageLayers(w *worker, m map[string]metric) error {
	ctx := context.Background()
	db, tbl := b.in.db, b.in.tbl
	inner := tbl.Inner()
	mrc := inner.MRC(tpcc.OLOrderID)
	versions := inner.MainVersions()
	rows := mrc.Len()
	lo, hi := tierdb.Int(0), tierdb.Int(1<<40)
	out := make([]uint32, 0, rows)
	plain, err := medianOf(15, func() error {
		var err error
		out, err = mrc.ScanRange(lo, hi, out[:0], nil)
		return err
	})
	if err != nil {
		return err
	}
	tx := db.Begin()
	snap, self := tx.Snapshot(), tx.ID()
	skip := func(r int) bool { return !versions.Visible(r, snap, self) }
	visible, err := medianOf(15, func() error {
		var err error
		out, err = mrc.ScanRange(lo, hi, out[:0], skip)
		return err
	})
	if aerr := db.Abort(tx); err == nil {
		err = aerr
	}
	if err != nil {
		return err
	}
	if len(out) != rows {
		b.wrongAnswer(fmt.Errorf("MRC scan with visibility saw %d of %d settled rows", len(out), rows))
	}
	m["column.mrc_scan_ns_per_row"] = metric{float64(plain) / float64(rows), "ns"}
	m["mvcc.visible_ns_per_row"] = metric{float64(visible-plain) / float64(rows), "ns"}

	group := inner.Group()
	field := inner.GroupField(tpcc.OLDeliveryDate)
	q := b.ds.q6(w.rng)
	dlo, dhi := q.preds[0].Value.Int(), q.preds[0].Hi.Int()
	pred := func(v value.Value) bool { return v.Int() >= dlo && v.Int() <= dhi }
	scan, err := medianOf(10, func() error {
		var err error
		out, err = group.Scan(field, pred, out[:0], nil)
		return err
	})
	if err != nil {
		return err
	}
	m["sscg.scan_ms"] = metric{float64(scan) / 1e6, "ms"}

	// Tuple reconstruction and index probes follow the lookup
	// distribution: the positions of the rows lookups return.
	var positions []int
	var keys []value.Value
	for len(positions) < 2000 {
		q := w.lookups.next()
		preds, _, err := inprocQuery(tbl, q)
		if err != nil {
			return err
		}
		res, err := tbl.SelectCtx(ctx, nil, preds)
		if err != nil {
			return err
		}
		for _, id := range res.IDs {
			positions = append(positions, int(id))
		}
		keys = append(keys, tierdb.Int(q.key.o))
	}
	var reads latencies
	for _, pos := range positions {
		t0 := time.Now()
		if _, err := group.ReadRow(pos); err != nil {
			return err
		}
		reads.add(time.Since(t0))
	}
	v, _ := reads.summarise().at(50)
	m["sscg.read_row_us"] = metric{v / 1e3, "us"}

	// htap_mixed builds its ol_o_id index at set-up. olap_scan's queries
	// run unindexed, so its traced run builds the index here, through
	// Table.CreateIndex, once the window and the probes are over.
	createIndex := b.setupMedian(func(s setupTimes) time.Duration { return s.index })
	tree := inner.Index(tpcc.OLOrderID)
	if tree == nil {
		t0 := time.Now()
		if err := tbl.CreateIndex("ol_o_id"); err != nil {
			return err
		}
		createIndex = time.Since(t0).Seconds()
		tree = inner.Index(tpcc.OLOrderID)
	}
	m["tierdb.create_index_s"] = metric{createIndex, "s"}
	probe, err := medianOf(9, func() error {
		for _, k := range keys {
			tree.Lookup(k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["bptree.lookup_ns"] = metric{float64(probe) / float64(len(keys)), "ns"}
	return nil
}

// walLayer times commit appends on a private log with the workloads'
// SyncGroup policy and the insert record shape.
func (b *bench) walLayer(m map[string]metric) error {
	dir := filepath.Join(b.workDir, "private-wal")
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncGroup})
	if err != nil {
		return err
	}
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	var appends latencies
	for i := int64(0); i < 2000; i++ {
		ops := []mvcc.RedoOp{{Table: tableName, Row: b.ds.insertRow(b.seed, 1<<40+i)}}
		t0 := time.Now()
		_, err := l.AppendCommit(context.Background(), alloc, ops)
		appends.add(time.Since(t0))
		if err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	v, _ := appends.summarise().at(50)
	m["wal.append_us"] = metric{v / 1e3, "us"}
	return os.RemoveAll(dir)
}

// layerMetrics assembles the traced run's per-layer metrics.
func (b *bench) layerMetrics() map[string]metric {
	m := b.layer
	c := func(name string) float64 { return float64(b.after.Counters[name] - b.before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	queries := c("exec.queries")
	ops := float64(b.closedOps + int64(len(b.openSamples)))
	m["server.rejects"] = metric{c("server.rejects"), "count"}
	m["exec.rows_scanned_per_query"] = metric{ratio(c("exec.rows.scanned"), queries), "rows"}
	m["delta.rows_checked_per_query"] = metric{ratio(c("delta.visibility_checks"), queries), "rows"}
	m["wal.bytes_per_row"] = metric{ratio(c("wal.bytes"), c("delta.inserts")), "B"}
	// Merges count from the window's start until its delta is merged,
	// so a workload whose window triggers none still times the merge
	// that folds it in.
	h0, h1 := b.before.Histograms["merge.ns"], b.settled.Histograms["merge.ns"]
	n, sum := float64(h1.Count-h0.Count), float64(h1.Sum-h0.Sum)
	m["merge.count"] = metric{float64(b.settled.Counters["merge.swaps"] - b.before.Counters["merge.swaps"]), "count"}
	m["merge.mean_ms"] = metric{ratio(sum, n) / 1e6, "ms"}
	m["merge.pause_max_ms"] = metric{float64(b.pauseMax) / 1e6, "ms"}
	hits, misses := c("amm.hits"), c("amm.misses")
	m["amm.hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	m["amm.evictions_per_op"] = metric{ratio(c("amm.evictions"), ops), "count"}
	pageReads := 0.0
	for name := range b.after.Counters {
		if strings.HasSuffix(name, ".page_reads") {
			pageReads += c(name)
		}
	}
	m["storage.page_reads_per_query"] = metric{ratio(pageReads, queries), "pages"}
	m["runtime.gc_cpu_frac"] = metric{ratio(b.rt.gcCPU, b.rt.totalCPU), "ratio"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(b.rt.allocBytes, ops), "B"}
	var late latencies
	for _, s := range b.openSamples {
		late.add(s.lateness())
	}
	v, _ := late.summarise().at(95)
	m["loadgen.lateness_p95_ms"] = metric{v / 1e6, "ms"}
	m["trace.overhead_frac"] = metric{1 - ratio(b.tracedRate[1], b.tracedRate[0]), "ratio"}
	// Latencies of the untraced window slices and probes whose spread
	// across runs, on a host whose steal time and speed move, exceeded
	// the largest bound an end-to-end metric may have: reported here,
	// ungated.
	for _, t := range []struct {
		name  string
		k     opKind
		p     float64
		scale float64
		unit  string
	}{
		{"bench.scan_p95_ms", opScan, 95, 1e6, "ms"},
		{"bench.range_p50_ms", opRange, 50, 1e6, "ms"},
		{"bench.point_p50_ms", opPoint, 50, 1e6, "ms"},
		{"bench.lookup_p50_us", opLookup, 50, 1e3, "us"},
		{"bench.lookup_p95_us", opLookup, 95, 1e3, "us"},
		{"bench.insert_p95_us", opInsert, 95, 1e3, "us"},
	} {
		v, _ := b.lat[t.k].summarise().at(t.p)
		m[t.name] = metric{v / t.scale, t.unit}
	}
	m["tierdb.bulkload_s"] = metric{b.setupMedian(func(s setupTimes) time.Duration { return s.bulkload }), "s"}
	m["tierdb.apply_layout_s"] = metric{b.setupMedian(func(s setupTimes) time.Duration { return s.layout }), "s"}
	// The error rate covers set-up's wire calls too, where ROADMAP item
	// 1's committed-but-failed bulk load shows.
	failed, attempted := b.failed.Load(), b.attempted.Load()
	for _, st := range b.setups {
		failed += int64(st.commitErrs)
		attempted += int64(st.calls)
	}
	m["bench.error_rate"] = metric{ratio(float64(failed), float64(attempted)), "ratio"}
	m["bench.commit_errors"] = metric{float64(b.commitErrs), "count"}
	if err := b.writeSpans(b.breakdown()); err != nil {
		b.logf("%v", err)
	}
	return m
}
