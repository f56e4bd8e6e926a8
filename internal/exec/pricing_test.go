package exec

import (
	"runtime"
	"testing"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/value"
)

// TestParallelMRCScanPricedInClosedForm checks that a morsel-parallel
// MRC scan is priced from the column's bytes, the worker count and the
// morsel count alone: every worker that gets a morsel streams an even
// share of the bytes, and the phase costs the per-worker share of the
// streams' total. The price must not depend on how the Go scheduler
// hands morsels to goroutines, so it is checked with one OS thread
// (where one goroutine may run every morsel) and with the default.
func TestParallelMRCScanPricedInClosedForm(t *testing.T) {
	const rows, par = 200_000, 4
	tbl, clock := newTable(t, rows, nil)
	q := Query{Predicates: []Predicate{{Column: 2, Op: Between, Value: value.NewInt(10), Hi: value.NewInt(60)}}}
	bytes := tbl.MRC(2).Bytes()
	morsels := (rows + DefaultMorselRows - 1) / DefaultMorselRows
	streams := min(par, morsels)
	total := time.Duration(streams) * device.DRAM.SequentialReadTime(bytes/int64(streams), par)
	want := (total + par - 1) / par

	e := New(tbl, Options{Clock: clock, Parallelism: par})
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			clock.Reset()
			if _, err := e.Run(q, nil); err != nil {
				t.Fatal(err)
			}
			if got := clock.Elapsed(); got != want {
				t.Errorf("GOMAXPROCS=%d run %d: modeled %v, want %v", procs, i, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
