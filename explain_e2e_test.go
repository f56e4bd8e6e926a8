package tierdb

import (
	"math"
	"testing"

	"tierdb/internal/core"
	"tierdb/internal/server/client"
	"tierdb/internal/trace"
)

// explainTestFields is the schema the explain acceptance tests load:
// a wide low-selectivity payload plus two filterable columns.
func explainTestFields() []Field {
	return []Field{
		{Name: "id", Type: Int64Type},
		{Name: "region", Type: Int64Type},
		{Name: "amount", Type: Int64Type},
		{Name: "note", Type: StringType, Width: 64},
	}
}

func explainTestRows(n int) [][]Value {
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []Value{
			Int(int64(i)), Int(int64(i % 8)), Int(int64(i % 100)), String("note"),
		})
	}
	return rows
}

// TestExplainEndToEnd is the acceptance test for EXPLAIN/ANALYZE: an
// ANALYZE request over loopback TCP yields a plan whose modeled scan
// cost reproduces the solver's cost for the live placement within 1e-9,
// whose per-operator observed times are exactly the trace tree's
// exec.* span intervals, and whose placement regret drops to exactly
// zero once the advisor's recommendation is applied.
func TestExplainEndToEnd(t *testing.T) {
	db, err := Open(Config{
		ListenAddr:      "127.0.0.1:0",
		TraceSampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.CreateTable("orders", explainTestFields()); err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad("orders", explainTestRows(4000)); err != nil {
		t.Fatal(err)
	}

	specs := []ExplainSpec{
		{Column: "region", Op: "eq", Value: "3"},
		{Column: "amount", Op: "between", Value: "10", Hi: "40"},
	}
	plan, err := c.Explain("orders", specs, []string{"amount"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != "analyze" || plan.Table != "orders" {
		t.Fatalf("plan header = %s %s", plan.Mode, plan.Table)
	}
	if plan.WallNs <= 0 || plan.RowsQualified <= 0 {
		t.Fatalf("ANALYZE summary empty: wall %d rows %d", plan.WallNs, plan.RowsQualified)
	}

	// 1. Modeled cost: rebuild the single-query workload from the
	// table's own workload report — an independent surface — and check
	// the plan reproduces the solver's scan cost for the live placement.
	tbl, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	rep := tbl.WorkloadReport()
	w := &core.Workload{Columns: make([]core.Column, len(rep.Columns))}
	x := make([]bool, len(rep.Columns))
	for i, col := range rep.Columns {
		size := col.SizeBytes
		if size < 1 {
			size = 1
		}
		w.Columns[i] = core.Column{Name: col.Name, Size: size, Selectivity: col.EstimatedSelectivity}
		x[i] = col.InDRAM
	}
	w.Queries = []core.Query{{Columns: []int{1, 2}, Frequency: 1}} // region, amount
	want := core.ScanCost(w, core.DefaultCostParams(), x)
	if diff := math.Abs(plan.Placement.CurrentCost - want); diff > 1e-9 {
		t.Errorf("plan current cost %.12g, solver says %.12g (diff %g)", plan.Placement.CurrentCost, want, diff)
	}
	var nodeSum float64
	for _, n := range plan.Nodes {
		nodeSum += n.ModeledCost
	}
	if diff := math.Abs(nodeSum - plan.Placement.CurrentCost); diff > 1e-9 {
		t.Errorf("node modeled costs sum to %.12g, placement total %.12g", nodeSum, plan.Placement.CurrentCost)
	}

	// 2. Observed operator timings must be the trace tree's: every
	// ANALYZE node has a matching exec.<operator> span with the same
	// interval, linked through the plan's trace id.
	if plan.TraceID == "" {
		t.Fatal("ANALYZE plan has no trace id despite sample rate 1")
	}
	id, err := trace.ParseTraceID(plan.TraceID)
	if err != nil {
		t.Fatalf("plan trace id %q: %v", plan.TraceID, err)
	}
	spans := trace.ByTrace(db.Tracer().Ring(), id)
	if len(spans) == 0 {
		t.Fatalf("no spans for trace %s", plan.TraceID)
	}
	type interval struct {
		name       string
		start, end int64
	}
	execSpans := make(map[interval]int)
	for _, s := range spans {
		if len(s.Name) > 5 && s.Name[:5] == "exec." {
			execSpans[interval{s.Name, s.StartNs, s.EndNs}]++
		}
	}
	for _, n := range plan.Nodes {
		key := interval{"exec." + n.Operator, n.StartNs, n.EndNs}
		if execSpans[key] == 0 {
			t.Errorf("node %s/%s [%d,%d] has no matching trace span; spans: %v",
				n.Partition, n.Operator, n.StartNs, n.EndNs, execSpans)
			continue
		}
		execSpans[key]--
		if n.ObservedNs != n.EndNs-n.StartNs {
			t.Errorf("node %s observed %dns, interval %dns", n.Operator, n.ObservedNs, n.EndNs-n.StartNs)
		}
	}

	// 3. Regret is exactly zero once the advisor's recommendation is
	// live. Applying a layout changes column footprints (MRC bytes vs
	// slot-width bytes), which can shift the next solve, so iterate the
	// apply→re-explain fixed point a few rounds; it must settle.
	regret := math.Inf(1)
	for i := 0; i < 5 && regret != 0; i++ {
		rep, err := tbl.Advise(AdvisorQuery{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.ApplyLayout(Layout{InDRAM: rep.Recommended.InDRAM}); err != nil {
			t.Fatal(err)
		}
		plan, err := c.Explain("orders", specs, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		regret = plan.Placement.Regret
	}
	if regret != 0 {
		t.Errorf("regret = %g after applying the advisor's recommendation, want exactly 0", regret)
	}
}

// BenchmarkExplainOverhead compares plain Select against
// SelectExplained on the same table: the Select sub-benchmark is the
// baseline proving EXPLAIN costs nothing when not requested (the
// machinery is strictly opt-in), the SelectExplained one prices ANALYZE.
func BenchmarkExplainOverhead(b *testing.B) {
	db, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("orders", explainTestFields())
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.BulkLoad(explainTestRows(4000)); err != nil {
		b.Fatal(err)
	}
	region, err := tbl.Eq("region", Int(3))
	if err != nil {
		b.Fatal(err)
	}
	amount, err := tbl.Between("amount", Int(10), Int(40))
	if err != nil {
		b.Fatal(err)
	}
	preds := []Predicate{region, amount}

	b.Run("Select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tbl.Select(nil, preds, "amount"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SelectExplained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := tbl.SelectExplained(nil, preds, "amount"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
