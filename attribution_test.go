package tierdb

import (
	"sync"
	"testing"
)

// TestQueryAttributionUnderConcurrency runs one traced range query on an
// SSCG-placed column alone, then 50 more times while four goroutines
// scan another SSCG-placed column of the same table. Without a page
// cache every run reads exactly the same pages, so the query's page
// reads, its modeled device time and every EXPLAIN ANALYZE node's page
// reads must equal the solo run's on every run: each query is priced
// from its own ledger, never from a clock the other scans advance too.
func TestQueryAttributionUnderConcurrency(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", explainTestFields())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad(explainTestRows(10000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, true, false, false}}); err != nil {
		t.Fatal(err)
	}
	amount, err := tbl.Between("amount", Int(10), Int(40))
	if err != nil {
		t.Fatal(err)
	}
	note, err := tbl.Eq("note", String("note"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*QueryTrace, *ExplainPlan) {
		_, tr, err := tbl.SelectTraced(nil, []Predicate{amount})
		if err != nil {
			t.Fatal(err)
		}
		_, plan, err := tbl.SelectExplained(nil, []Predicate{amount})
		if err != nil {
			t.Fatal(err)
		}
		return tr, plan
	}
	soloTrace, soloPlan := run()
	if soloTrace.PageReads == 0 || soloTrace.DeviceNs == 0 {
		t.Fatalf("solo query read %d pages in %d ns; want a tiered scan", soloTrace.PageReads, soloTrace.DeviceNs)
	}

	stop := make(chan struct{})
	var scanners sync.WaitGroup
	for i := 0; i < 4; i++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tbl.Select(nil, []Predicate{note}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		scanners.Wait()
	}()

	for i := 0; i < 50; i++ {
		tr, plan := run()
		if tr.PageReads != soloTrace.PageReads || tr.DeviceNs != soloTrace.DeviceNs {
			t.Fatalf("run %d: %d page reads in %d device ns, solo %d in %d",
				i, tr.PageReads, tr.DeviceNs, soloTrace.PageReads, soloTrace.DeviceNs)
		}
		if len(plan.Nodes) != len(soloPlan.Nodes) {
			t.Fatalf("run %d: %d plan nodes, solo %d", i, len(plan.Nodes), len(soloPlan.Nodes))
		}
		for j, n := range plan.Nodes {
			if n.PageReads != soloPlan.Nodes[j].PageReads {
				t.Fatalf("run %d node %d (%s): page_reads %d, solo %d",
					i, j, n.Operator, n.PageReads, soloPlan.Nodes[j].PageReads)
			}
		}
	}
}
