package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tierdb"
	"tierdb/internal/server/client"
	"tierdb/internal/trace"
)

const (
	// setups is how many times a run sets the instance up; setup_s is
	// their median and the last instance serves the workload.
	setups = 5
	// warmup runs the workload unrecorded so caches fill and lazy
	// set-up finishes before the window.
	warmup = time.Second
	// traceSlice alternates traced and untraced slices of the traced
	// run's window; their throughput ratio is the tracing overhead.
	traceSlice = 250 * time.Millisecond
)

// Operation types outside a workload's mix are probed after its window,
// so every workload reports every operation's latency: at least
// probeOps operations, enough for a p95 with ten samples beyond it, and
// for at least probeTime, so that one transient stall of the machine
// does not set the percentiles of a cheap operation.
const (
	probeOps  = 200
	probeTime = 5 * time.Second
	// deckSize is how many closed-loop operations pick deals per
	// shuffle; every mix weight is a multiple of 1/deckSize.
	deckSize = 20
)

// bench is one run's state.
type bench struct {
	spec    spec
	seed    int64
	window  time.Duration
	traced  bool
	workDir string
	outDir  string

	ds     *dataset
	in     *instance
	setups []setupTimes

	nextInsert atomic.Int64
	attempted  atomic.Int64
	failed     atomic.Int64

	// acks aggregates acknowledged inserts for checking scans.
	ackMu sync.Mutex
	acks  cube

	mu          sync.Mutex
	wrong       []string
	errLog      int
	commitErrs  int64
	acked       []int64
	errored     []int64
	lat         [numOps]latencies
	probed      [numOps]bool
	closedOps   int64
	elapsed     time.Duration
	openSamples []openLoopSample
	heapP95     float64
	before      tierdb.StatsSnapshot
	after       tierdb.StatsSnapshot // at the end of the window
	settled     tierdb.StatsSnapshot // once the window's delta is merged
	rt          runtimeDelta
	dramPerRow  float64
	layer       map[string]metric
	spans       *spanLog
	tracedRate  [2]float64 // closed-loop ops/s in untraced, traced slices
	pauseMax    time.Duration
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// fail counts a failed operation and logs the first few.
func (b *bench) fail(op opKind, err error) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.errLog < 5 {
		b.errLog++
		b.logf("%s failed: %v", op, err)
	}
}

// wrongAnswer records a correctness violation.
func (b *bench) wrongAnswer(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, err.Error())
	}
}

// inMix reports whether the workload itself issues op k.
func (b *bench) inMix(k opKind) bool {
	return b.spec.mix[k] > 0 || (k == opInsert && b.spec.openRate > 0)
}

// execute runs set-up, warm-up, the measured window, the probes, the
// traced layer phase (traced runs only) and the correctness checks.
func (b *bench) execute() error {
	for k := 0; k < setups; k++ {
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		in, st, err := b.boot(k)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, st)
		b.logf("set-up %d: %.2fs (bulk load %.2fs, layout %.2fs, index %.2fs; %d calls, %d committed with an error)",
			k, st.total.Seconds(), st.bulkload.Seconds(), st.layout.Seconds(), st.index.Seconds(),
			st.calls, st.commitErrs)
		b.commitErrs += int64(st.commitErrs)
		if k < setups-1 {
			if err := in.close(); err != nil {
				return err
			}
			continue
		}
		b.in = in
	}
	// The rows were input to set-up only; the oracle keeps aggregates.
	b.ds.rows = nil
	defer func() {
		if b.in != nil {
			b.in.close()
		}
	}()
	if b.traced {
		b.spans = newSpanLog()
		b.in.db.Tracer().SetOnEnd(b.spans.add)
	}

	clients, err := b.clients()
	if err != nil {
		return err
	}
	workers := clients[:b.spec.closed]
	var writer *worker
	if b.spec.openRate > 0 {
		writer = clients[b.spec.closed]
	}
	defer func() {
		for _, w := range clients {
			w.close()
		}
	}()

	b.runWindow(workers, writer, warmup, false)
	// Collect set-up's garbage so the live-heap samples measure the
	// workload, not what the last collection before it happened to see.
	runtime.GC()
	if b.traced {
		b.spans.allow(windowSpans)
	}
	b.before = b.in.db.Stats()
	pauses := b.startPauseProbe()
	rt0 := readRuntime()
	b.runWindow(workers, writer, b.window, true)
	b.rt = readRuntime().sub(rt0)
	b.after = b.in.db.Stats()

	// Probes measure the state the window left, with the merges it
	// triggered completed, not a merge that happens to run after it.
	if err := b.in.mergeSettled(); err != nil {
		return fmt.Errorf("merge before probes: %w", err)
	}
	b.settled = b.in.db.Stats()
	b.pauseMax = pauses()
	for k := opKind(0); k < numOps; k++ {
		if b.inMix(k) {
			continue
		}
		b.probed[k] = true
		if b.traced {
			b.spans.allow(probeSpans)
		}
		var wg sync.WaitGroup
		for _, w := range clients {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				w.probe(k, probeOps/len(clients))
			}(w)
		}
		wg.Wait()
	}
	for _, w := range clients {
		for k := range w.lat {
			b.lat[k].merge(&w.lat[k])
		}
	}
	if b.traced {
		if err := b.layerPhase(workers[0]); err != nil {
			return err
		}
	}
	for _, w := range clients {
		b.acked = append(b.acked, w.acked...)
		b.errored = append(b.errored, w.errored...)
	}
	return b.verify()
}

// probe issues operations of type k back to back, at least n of them
// and for at least probeTime. A traced run traces every other one; the
// others give the untraced latency its layer breakdown is set beside.
func (w *worker) probe(k opKind, n int) {
	start := time.Now()
	for i := 0; i < n || time.Since(start) < probeTime; i++ {
		traced := w.b.traced && i%2 == 1
		d, err := w.runOp(k, traced)
		if err != nil {
			w.b.fail(k, err)
			continue
		}
		if !traced {
			w.lat[k].add(d)
		}
	}
}

// worker is one client goroutine's state: its connections, its seeded
// operation stream and what it measured.
type worker struct {
	b       *bench
	plain   *client.Client
	traced  *client.Client
	rng     *rand.Rand
	lookups *lookupGen
	deck    []opKind
	lat     [numOps]latencies
	acked   []int64
	errored []int64
	// ops counts completed closed-loop operations in the window, split
	// by untraced (0) and traced (1) slices.
	ops [2]int64
	// curOp is the operation in flight; the client tracer's end hook
	// runs on this worker's goroutine and tags the request's trace.
	curOp opKind
}

func (b *bench) newWorker(id int) (*worker, error) {
	addr := b.in.db.ServerAddr()
	w := &worker{b: b, rng: rand.New(rand.NewSource(b.seed*1_000_003 + int64(id)))}
	w.lookups = newLookupGen(b.ds, rand.New(rand.NewSource(b.seed*7_777_777+int64(id))))
	var err error
	if w.plain, err = client.Dial(client.Config{Addr: addr, PoolSize: 1}); err != nil {
		return nil, err
	}
	if b.traced {
		tr := trace.New(trace.Options{SampleRate: 1})
		tr.SetOnEnd(func(s *trace.Span) {
			if s.Name == "client.send" {
				b.spans.tag(s.Trace, w.curOp)
			}
			b.spans.add(s)
		})
		if w.traced, err = client.Dial(client.Config{Addr: addr, PoolSize: 1, Tracer: tr}); err != nil {
			w.plain.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *worker) close() {
	w.plain.Close()
	if w.traced != nil {
		w.traced.Close()
	}
}

// clients connects the closed-loop clients and, last, the open-loop
// writer.
func (b *bench) clients() ([]*worker, error) {
	n := b.spec.closed
	if b.spec.openRate > 0 {
		n++
	}
	var ws []*worker
	for i := 0; i < n; i++ {
		w, err := b.newWorker(i)
		if err != nil {
			for _, w := range ws {
				w.close()
			}
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// pick deals the worker's next operation from a shuffled deck of
// deckSize that holds each type in its share of the mix, so the run's
// composition, and with it its throughput, does not drift with the
// draws: independent draws moved ops_per_s by ~10% between seeds.
func (w *worker) pick() opKind {
	if len(w.deck) == 0 {
		for k := opKind(0); k < numOps; k++ {
			for range int(math.Round(w.b.spec.mix[k] * deckSize)) {
				w.deck = append(w.deck, k)
			}
		}
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	}
	k := w.deck[len(w.deck)-1]
	w.deck = w.deck[:len(w.deck)-1]
	return k
}

func (w *worker) query(k opKind) query {
	switch k {
	case opScan:
		return w.b.ds.q6(w.rng)
	case opRange:
		return w.b.ds.rangeQuery(w.rng)
	case opPoint:
		return w.b.ds.pointQuery(w.rng)
	default:
		return w.lookups.next()
	}
}

// runOp issues one operation through the wire client and returns its
// latency. A wrong answer is recorded as a correctness violation.
func (w *worker) runOp(k opKind, traced bool) (time.Duration, error) {
	cl := w.plain
	if traced {
		cl = w.traced
	}
	w.curOp = k
	w.b.attempted.Add(1)
	if k == opInsert {
		g := w.b.nextInsert.Add(1) - 1
		row := w.b.ds.insertRow(w.b.seed, g)
		t0 := time.Now()
		err := cl.Insert(tableName, row)
		d := time.Since(t0)
		w.record(g, err)
		return d, err
	}
	q := w.query(k)
	lower := w.b.ackedMatching(q)
	t0 := time.Now()
	res, err := cl.Select(tableName, q.preds, q.project...)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	w.b.checkAnswer(q, res.Rows, lower, w.b.nextInsert.Load())
	return d, nil
}

// record files an insert as acknowledged or errored.
func (w *worker) record(g int64, err error) {
	if err != nil {
		w.errored = append(w.errored, g)
		return
	}
	w.acked = append(w.acked, g)
	a := insertAttrs(w.b.seed, g)
	w.b.ackMu.Lock()
	w.b.acks[a.day][a.qty].add(agg{1, a.cents})
	w.b.ackMu.Unlock()
}

// ackedMatching aggregates the acknowledged inserts scan q matches; for
// other queries it is zero.
func (b *bench) ackedMatching(q query) agg {
	if q.kind != opScan {
		return agg{}
	}
	b.ackMu.Lock()
	defer b.ackMu.Unlock()
	return b.acks.window(q.day, q.qty)
}

// checkAnswer verifies a select's rows: the base-table part against the
// oracle, and each inserted line a scan returned against the inserts.
// lower aggregates the matching inserts acknowledged before the query
// started, all of which its snapshot must hold; issued is how many
// inserts had been issued when it ended.
func (b *bench) checkAnswer(q query, rows [][]tierdb.Value, lower agg, issued int64) {
	inserted, err := q.verify(b.ds, rows)
	if err != nil {
		b.wrongAnswer(err)
		return
	}
	seen := make(map[int64]bool, len(inserted))
	for _, r := range inserted {
		g, ok := b.ds.insertIndex(orderKey{r[0].Int(), r[1].Int(), r[2].Int()}, r[3].Int())
		if !ok || g >= issued || seen[g] {
			b.wrongAnswer(fmt.Errorf("scan returned line %d of order %d/%d/%d, never inserted or returned twice",
				r[3].Int(), r[0].Int(), r[1].Int(), r[2].Int()))
			return
		}
		seen[g] = true
		if a := insertAttrs(b.seed, g); !q.matches(a) || a.cents != cents(r[q.check]) {
			b.wrongAnswer(fmt.Errorf("scan returned inserted line %d, which it does not match", g))
			return
		}
	}
	if n := int64(len(inserted)); n < lower.rows {
		b.wrongAnswer(fmt.Errorf("scan saw %d inserted lines, %d were acknowledged before it started", n, lower.rows))
	}
}

// closedLoop issues the worker's mix back to back until the deadline.
func (w *worker) closedLoop(start, deadline time.Time, record bool) {
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		slot := w.b.slot(start, now, record)
		k := w.pick()
		d, err := w.runOp(k, slot == 1)
		if err != nil {
			w.b.fail(k, err)
			continue
		}
		if record {
			w.ops[slot]++
			if slot == 0 {
				w.lat[k].add(d)
			}
		}
	}
}

// slot is 1 when an operation starting now belongs to a traced slice.
func (b *bench) slot(start, now time.Time, record bool) int {
	if !b.traced || !record {
		return 0
	}
	return int(now.Sub(start)/traceSlice) % 2
}

// runWindow runs every client for d. With record set it is the
// measured window: latencies, throughput and the live heap are
// recorded.
func (b *bench) runWindow(workers []*worker, writer *worker, d time.Duration, record bool) {
	start := time.Now()
	deadline := start.Add(d)
	stop := make(chan struct{})
	var side sync.WaitGroup
	if record {
		side.Add(1)
		go func() {
			defer side.Done()
			b.heapP95 = sampleHeap(stop)
		}()
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.closedLoop(start, deadline, record)
		}(w)
	}
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples, errs := runOpenLoop(wallClock{}, start, deadline, b.spec.openRate, func(int) error {
				_, err := writer.runOp(opInsert, b.slot(start, time.Now(), record) == 1)
				return err
			})
			for _, err := range errs {
				b.fail(opInsert, err)
			}
			if record {
				b.openSamples = samples
				for _, s := range samples {
					if b.slot(start, s.due, true) == 0 {
						writer.lat[opInsert].add(s.latency())
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	side.Wait()
	if !record {
		return
	}
	b.elapsed = time.Since(start)
	var ops [2]int64
	for _, w := range workers {
		ops[0] += w.ops[0]
		ops[1] += w.ops[1]
	}
	b.closedOps = ops[0] + ops[1]
	if b.traced {
		half := b.elapsed.Seconds() / 2
		b.tracedRate = [2]float64{float64(ops[0]) / half, float64(ops[1]) / half}
	}
}

// sampleHeap polls the live heap (as marked by the latest garbage
// collection) every 10ms until stop closes and returns the level it
// stayed at or below for 95% of the window, in bytes. The live heap,
// unlike the heap in use, does not depend on how far the collector let
// garbage accumulate; the 95th percentile over time, unlike the
// maximum, does not depend on whether one collection happened to end
// inside a merge's brief double footprint.
func sampleHeap(stop <-chan struct{}) float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var levels []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		levels = append(levels, float64(s[0].Value.Uint64()))
		select {
		case <-stop:
			sort.Float64s(levels)
			return quantile(levels, 95)
		case <-tick.C:
		}
	}
}

// startPauseProbe runs probeMergePauses, in a traced run, until the
// function it returns is called; that returns the longest pause seen.
func (b *bench) startPauseProbe() func() time.Duration {
	if !b.traced {
		return func() time.Duration { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan time.Duration)
	go func() { done <- b.probeMergePauses(stop) }()
	return func() time.Duration {
		close(stop)
		return <-done
	}
}

// probeMergePauses times a table-lock read once a millisecond while a
// merge is in flight and returns the longest wait: the longest stall a
// merge's exclusive freeze or swap section imposed.
func (b *bench) probeMergePauses(stop <-chan struct{}) time.Duration {
	inner := b.in.tbl.Inner()
	var longest time.Duration
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return longest
		case <-tick.C:
		}
		if !inner.Merging() {
			continue
		}
		t0 := time.Now()
		inner.MainRows()
		if d := time.Since(t0); d > longest {
			longest = d
		}
	}
}

// runtimeDelta is the Go runtime's view of a window.
type runtimeDelta struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeDelta{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{r.gcCPU - o.gcCPU, r.totalCPU - o.totalCPU, r.allocBytes - o.allocBytes}
}

// verify checks that every acknowledged insert is visible, classifies
// errored inserts whose rows are present anyway, merges the delta to
// measure DRAM per row, and for durable workloads repeats the check
// after closing the instance and recovering it from its WAL alone.
func (b *bench) verify() error {
	b.in.db.Tracer().SetOnEnd(nil)
	present, err := b.insertedKeys(b.in.tbl)
	if err != nil {
		return err
	}
	b.checkInserts("after the run", present)
	if err := b.in.mergeSettled(); err != nil {
		return fmt.Errorf("final merge: %w", err)
	}
	rows := b.in.tbl.Rows()
	b.dramPerRow = float64(b.in.tbl.MemoryBytes()) / float64(rows)
	if !b.spec.wal {
		return nil
	}
	if err := b.in.db.Close(); err != nil {
		return fmt.Errorf("close before WAL reopen: %w", err)
	}
	b.in.db = nil
	db, err := tierdb.Open(tierdb.Config{WALDir: b.in.walDir, Logger: discardLogger})
	if err != nil {
		return fmt.Errorf("WAL reopen: %w", err)
	}
	defer db.Close()
	tbl, err := db.Table(tableName)
	if err != nil {
		return fmt.Errorf("WAL reopen: %w", err)
	}
	if got := tbl.Rows(); got != rows {
		b.wrongAnswer(fmt.Errorf("WAL reopen recovered %d rows, %d before close", got, rows))
	}
	recovered, err := b.insertedKeys(tbl)
	if err != nil {
		return err
	}
	b.checkInserts("after WAL reopen", recovered)
	return nil
}

// insertedKeys returns the insert indices whose rows tbl holds. A row
// present twice is a wrong answer.
func (b *bench) insertedKeys(tbl *tierdb.Table) (map[int64]bool, error) {
	ds := b.ds
	p, err := tbl.Between("ol_o_id", tierdb.Int(ds.orders+1), tierdb.Int(1<<40))
	if err != nil {
		return nil, err
	}
	res, err := tbl.SelectCtx(context.Background(), nil, []tierdb.Predicate{p}, "ol_o_id", "ol_d_id", "ol_w_id", "ol_number")
	if err != nil {
		return nil, fmt.Errorf("read back inserts: %w", err)
	}
	keys := make(map[int64]bool, len(res.Rows))
	for _, r := range res.Rows {
		g, ok := ds.insertIndex(orderKey{r[0].Int(), r[1].Int(), r[2].Int()}, r[3].Int())
		if !ok {
			b.wrongAnswer(fmt.Errorf("row of order %d/%d/%d line %d was never inserted", r[0].Int(), r[1].Int(), r[2].Int(), r[3].Int()))
			continue
		}
		if keys[g] {
			b.wrongAnswer(fmt.Errorf("insert %d present twice", g))
		}
		keys[g] = true
	}
	return keys, nil
}

// checkInserts compares the inserts present with what was
// acknowledged: every acked insert must be present; an errored insert
// that is present committed although the client was told otherwise.
func (b *bench) checkInserts(when string, present map[int64]bool) {
	missing := 0
	for _, g := range b.acked {
		if !present[g] {
			missing++
		}
	}
	if missing > 0 {
		b.wrongAnswer(fmt.Errorf("%s: %d of %d acknowledged inserts missing", when, missing, len(b.acked)))
	}
	committedErr := 0
	for _, g := range b.errored {
		if present[g] {
			committedErr++
		}
	}
	if extra := len(present) - len(b.acked) - committedErr; extra != 0 {
		b.wrongAnswer(fmt.Errorf("%s: %d inserted rows were never issued", when, extra))
	}
	if when == "after the run" {
		b.commitErrs += int64(committedErr)
		if committedErr > 0 {
			b.logf("%d inserts answered with an error were committed", committedErr)
		}
	}
}

// setupMedian is the median over the run's set-ups of one step, in
// seconds.
func (b *bench) setupMedian(pick func(setupTimes) time.Duration) float64 {
	var v []float64
	for _, st := range b.setups {
		v = append(v, pick(st).Seconds())
	}
	sort.Float64s(v)
	return quantile(v, 50)
}

// result assembles the printed metrics.
func (b *bench) result() result {
	var m map[string]metric
	if b.traced {
		m = b.layerMetrics()
	} else {
		m = b.e2eMetrics()
	}
	res := result{
		Correct:   len(b.wrong) == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   m,
	}
	for _, w := range b.wrong {
		b.logf("CORRECTNESS: %s", w)
	}
	b.logf("%s seed %d: %d attempted, %d failed (%d committed despite an error), window %.2fs",
		b.spec.name, b.seed, res.Attempted, res.Failed, b.commitErrs, b.elapsed.Seconds())
	printMetrics(m)
	return res
}

// e2eMetrics assembles the end-to-end metrics.
func (b *bench) e2eMetrics() map[string]metric {
	m := map[string]metric{}
	var sum [numOps]summary
	for k := range sum {
		sum[k] = b.lat[k].summarise()
	}
	pct := func(k opKind, p float64, scale float64) float64 {
		v, ok := sum[k].at(p)
		if !ok {
			b.logf("%s p%g rests on %d samples, fewer than %d beyond it", k, p, sum[k].n(), minTail)
		}
		return v / scale
	}
	const ms, us = 1e6, 1e3
	m["setup_s"] = metric{b.setupMedian(func(s setupTimes) time.Duration { return s.total }), "s"}
	m["ops_per_s"] = metric{float64(b.closedOps) / b.elapsed.Seconds(), "1/s"}
	m["scan_p50_ms"] = metric{pct(opScan, 50, ms), "ms"}
	m["insert_p50_us"] = metric{pct(opInsert, 50, us), "us"}
	m["success_rate"] = metric{1 - float64(b.failed.Load())/float64(b.attempted.Load()), "ratio"}
	m["heap_p95_mb"] = metric{b.heapP95 / (1 << 20), "MB"}
	m["dram_bytes_per_row"] = metric{b.dramPerRow, "B"}
	var parts []string
	for k := opKind(0); k < numOps; k++ {
		src := "window"
		if b.probed[k] {
			src = "probe"
		}
		parts = append(parts, fmt.Sprintf("%s=%d(%s, top p%g)", k, sum[k].n(), src, topPercentile(sum[k].n())))
	}
	b.logf("samples: %s", strings.Join(parts, " "))
	return m
}
