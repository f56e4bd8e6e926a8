package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func run(t *testing.T, name string, f func(int64) (*Report, error)) *Report {
	t.Helper()
	r, err := f(42)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.ID == "" || r.Title == "" || len(r.Header) == 0 || len(r.Rows) == 0 {
		t.Fatalf("%s: report incomplete: %+v", name, r)
	}
	if s := r.String(); !strings.Contains(s, r.ID) {
		t.Errorf("%s: String() missing ID", name)
	}
	return r
}

func cell(t *testing.T, r *Report, row, col int) string {
	t.Helper()
	if row >= len(r.Rows) || col >= len(r.Rows[row]) {
		t.Fatalf("cell (%d,%d) out of range", row, col)
	}
	return r.Rows[row][col]
}

func floatCell(t *testing.T, r *Report, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, r, row, col), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a float", row, col, cell(t, r, row, col))
	}
	return v
}

func durationCell(t *testing.T, r *Report, row, col int) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(cell(t, r, row, col))
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a duration", row, col, cell(t, r, row, col))
	}
	return d
}

func TestTable1MatchesPaper(t *testing.T) {
	r := run(t, "table1", Table1)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// BSEG row: 345 attributes, 50 filtered.
	if cell(t, r, 0, 1) != "345" || cell(t, r, 0, 2) != "50" {
		t.Errorf("BSEG row = %v", r.Rows[0])
	}
}

func TestFig3Shape(t *testing.T) {
	r := run(t, "fig3", Fig3)
	// Relative performance is monotone non-decreasing in the budget
	// for the ILP column.
	prev := 0.0
	for i := range r.Rows {
		rp := floatCell(t, r, i, 1)
		if rp < prev-1e-9 {
			t.Fatalf("ILP frontier not monotone at row %d: %g < %g", i, rp, prev)
		}
		prev = rp
		// Continuous never beats ILP.
		if c := floatCell(t, r, i, 2); c > rp+1e-9 {
			t.Errorf("row %d: continuous %g beats ILP %g", i, c, rp)
		}
	}
	// Large budgets reach full performance; tiny budgets do not.
	if floatCell(t, r, len(r.Rows)-1, 1) < 0.999 {
		t.Error("full budget does not reach relative performance 1")
	}
	if floatCell(t, r, 0, 1) > 0.9 {
		t.Error("1% budget suspiciously fast (BELNR drop missing)")
	}
	// The 78% note must be present.
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "78%") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing initial-eviction note: %v", r.Notes)
	}
}

func TestFig4HeuristicsNeverBeatILP(t *testing.T) {
	r := run(t, "fig4", Fig4)
	for i := range r.Rows {
		opt := floatCell(t, r, i, 1)
		for col := 2; col <= 5; col++ {
			if v := floatCell(t, r, i, col); v < opt*(1-1e-9) {
				t.Errorf("row %d col %d: %g beats ILP %g", i, col, v, opt)
			}
		}
		if gap := floatCell(t, r, i, 6); gap < 1-1e-9 {
			t.Errorf("row %d: gap %g < 1", i, gap)
		}
	}
}

func TestFig5ShowsLargerInteractionGap(t *testing.T) {
	run(t, "fig5", Fig5)
}

func TestFig6RecursiveStructure(t *testing.T) {
	r := run(t, "fig6", Fig6)
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("recursive structure violated: %s", n)
		}
	}
	// The continuous allocation matrices must be prefixes in
	// performance order: 'X's only at the start.
	for i := range r.Rows {
		cont := cell(t, r, i, 2)
		if idx := strings.Index(cont, "."); idx >= 0 && strings.Contains(cont[idx:], "X") {
			t.Errorf("row %d: continuous allocation %q not a prefix", i, cont)
		}
	}
}

func TestTable2ExplicitFasterAtScale(t *testing.T) {
	r := run(t, "table2", func(int64) (*Report, error) { return Table2(false) })
	last := len(r.Rows) - 1
	explicit := durationCell(t, r, last, 5)
	if explicit > 100*time.Millisecond {
		t.Errorf("explicit solve at N=10000 took %v, want ms range", explicit)
	}
}

func TestFig7CrossoverNote(t *testing.T) {
	r := run(t, "fig7", Fig7)
	for _, n := range r.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("crossover missing: %s", n)
		}
	}
	// XPoint mean latency decreases as more attributes move to the
	// SSCG (fewer dictionary decodes, same single page access).
	first := durationCell(t, r, 0, 6)
	lastRow := len(r.Rows) - 1
	last := durationCell(t, r, lastRow, 6)
	if last >= first {
		t.Errorf("XPoint latency did not fall with SSCG width: %v -> %v", first, last)
	}
}

func TestFig8WideVsNarrowTables(t *testing.T) {
	r := run(t, "fig8", Fig8)
	var orderlineXPoint, bsegXPoint float64
	for i := range r.Rows {
		if cell(t, r, i, 0) == "ORDERLINE" && cell(t, r, i, 1) == "uniform" && cell(t, r, i, 2) == "3D XPoint" {
			orderlineXPoint = floatCell(t, r, i, 6)
		}
		if cell(t, r, i, 0) == "BSEG" && cell(t, r, i, 1) == "uniform" && cell(t, r, i, 2) == "3D XPoint" {
			bsegXPoint = floatCell(t, r, i, 6)
		}
	}
	if orderlineXPoint <= 1 {
		t.Errorf("narrow ORDERLINE should degrade under tiering, got %gx", orderlineXPoint)
	}
	if bsegXPoint >= 1 {
		t.Errorf("wide BSEG on XPoint should beat full DRAM, got %gx", bsegXPoint)
	}
}

func TestFig9aLinearInWidth(t *testing.T) {
	r := run(t, "fig9a", Fig9a)
	// Row 0: CSSD, 1 thread. scan 1/10 should be ~10x scan 1/1.
	t1 := durationCell(t, r, 0, 2)
	t10 := durationCell(t, r, 0, 3)
	ratio := float64(t10) / float64(t1)
	if ratio < 8 || ratio > 12 {
		t.Errorf("scan 1/10 vs 1/1 ratio = %.1f, want ~10", ratio)
	}
}

func TestFig9bQueueDepthEffects(t *testing.T) {
	r := run(t, "fig9b", Fig9b)
	// Find ESSD rows: probing must speed up with threads.
	var essd1, essd32 time.Duration
	for i := range r.Rows {
		if cell(t, r, i, 0) == "ESSD" {
			if cell(t, r, i, 1) == "1" {
				essd1 = durationCell(t, r, i, 2)
			}
			if cell(t, r, i, 1) == "32" {
				essd32 = durationCell(t, r, i, 2)
			}
		}
	}
	if essd32 >= essd1 {
		t.Errorf("ESSD probing did not speed up with threads: %v -> %v", essd1, essd32)
	}
	// HDD probing must get worse per-thread under concurrency.
	var hdd1, hdd8 time.Duration
	for i := range r.Rows {
		if cell(t, r, i, 0) == "HDD" {
			if cell(t, r, i, 1) == "1" {
				hdd1 = durationCell(t, r, i, 2)
			}
			if cell(t, r, i, 1) == "8" {
				hdd8 = durationCell(t, r, i, 2)
			}
		}
	}
	if hdd8 <= hdd1 {
		t.Errorf("HDD probing should degrade under concurrency: %v -> %v", hdd1, hdd8)
	}
}

func TestTable3Shape(t *testing.T) {
	r := run(t, "table3", Table3)
	delivery := floatCell(t, r, 0, 4)
	q19Tight := floatCell(t, r, 1, 4)
	q19Loose := floatCell(t, r, 2, 4)
	if delivery > 1.5 {
		t.Errorf("delivery slowdown %.2f, want ~1 (paper 1.02)", delivery)
	}
	if q19Tight < 3 {
		t.Errorf("Q19 at w=0.2 slowdown %.2f, want large (paper 6.7)", q19Tight)
	}
	if q19Loose > q19Tight/2 {
		t.Errorf("Q19 at w=0.4 slowdown %.2f did not recover (w=0.2: %.2f)", q19Loose, q19Tight)
	}
}

func TestTable4Shape(t *testing.T) {
	r := run(t, "table4", Table4)
	// 100% SSCG reconstructions on XPoint must be speedups (<1).
	if v := floatCell(t, r, 1, 1); v >= 1 {
		t.Errorf("100%% SSCG uniform reconstruction = %.2f, want < 1", v)
	}
	// Scanning 1/100 must be a large slowdown.
	for i := range r.Rows {
		if strings.HasPrefix(cell(t, r, i, 0), "Scanning") {
			if v := floatCell(t, r, i, 1); v < 100 {
				t.Errorf("scanning slowdown = %.2f, want >= 100", v)
			}
		}
	}
	// Probing slowdown falls sharply with threads.
	for i := range r.Rows {
		if strings.HasPrefix(cell(t, r, i, 0), "Probing") {
			if floatCell(t, r, i, 3) >= floatCell(t, r, i, 1) {
				t.Errorf("probing slowdown did not fall with threads: %v", r.Rows[i])
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("n=%d", 5)
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n=5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered report missing %q:\n%s", want, s)
		}
	}
}

// TestPScanDeterministic renders the parallel-scan experiment twice: the
// modeled parallel costs come from counted work, never from goroutine
// scheduling, so the reports are identical.
func TestPScanDeterministic(t *testing.T) {
	a := run(t, "pscan", PScan).String()
	if b := run(t, "pscan", PScan).String(); a != b {
		t.Errorf("pscan differs between runs:\n%s\n%s", a, b)
	}
}
