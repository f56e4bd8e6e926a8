package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func distOf(vals ...float64) dist {
	m := map[int64]float64{}
	for i, v := range vals {
		m[int64(i+1)] = v
	}
	return newDist(m)
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "scan_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	parent := distOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name         string
		a, b         dist
		failA, failB float64
		def          metricDef
		expect       string
	}{
		{"unchanged", parent, distOf(101, 100, 99, 100, 101, 99, 100, 102, 98, 100), 0, 0, lower, "within bound"},
		{"slower within bound", parent, distOf(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), 0, 0, lower, "within bound"},
		{"slower beyond bound", parent, distOf(115, 116, 114, 115, 117, 113, 115, 116, 114, 115), 0, 0, lower, "regressed"},
		{"faster in every pair", parent, distOf(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), 0, 0, lower, "gain"},
		// Nine of ten pairs won, but the medians differ by less than the
		// parent's interquartile range: no gain.
		{"faster by less than the spread", parent, distOf(99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 100.5), 0, 0, lower, "within bound"},
		// Eight of ten pairs won: not nine tenths.
		{"too few wins", parent, distOf(90, 91, 89, 90, 92, 88, 90, 91, 100, 101), 0, 0, lower, "within bound"},
		// Every pair won, but more operations failed than at the parent.
		{"faster but failing more", parent, distOf(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), 0.001, 0.002, lower, "more failures"},
		{"throughput drop", distOf(1000, 1010, 990, 1000), distOf(850, 860, 840, 850), 0, 0, higher, "regressed"},
		// Four pairs, every one won: too few to call a gain.
		{"throughput gain on four pairs", distOf(1000, 1010, 990, 1000), distOf(1200, 1210, 1190, 1200), 0, 0, higher, "too few pairs"},
		// The parent's own spread exceeds the bound: a worse median
		// cannot be called a regression or ruled one out.
		{"noisy parent", distOf(50, 150, 60, 140), distOf(120, 130, 110, 140), 0, 0, lower, "unresolved"},
		{"noisy parent, change better in every run", distOf(50, 150, 60, 140), distOf(40, 45, 30, 35), 0, 0, lower, "within bound"},
	} {
		if got := verdict(c.a, c.b, c.failA, c.failB, c.def); got != c.expect {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.expect)
		}
	}
}

func TestSteadiness(t *testing.T) {
	def := metricDef{Name: "scan_p95_ms", Better: "lower", Bound: 0.15}
	if got := steadiness(distOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), def); got != "steady" {
		t.Errorf("2%% spread: %q, want steady", got)
	}
	if got := steadiness(distOf(100, 110, 90, 100, 108, 92, 100, 105, 95, 100), def); got != "within bound" {
		t.Errorf("~12%% spread: %q, want within bound", got)
	}
	if got := steadiness(distOf(100, 130, 70, 100), def); got != "UNSTEADY" {
		t.Errorf("wide spread: %q, want UNSTEADY", got)
	}
}

// record is one --out file's content.
func record(workload string, seed int64, trace int, correct bool, metrics string) string {
	return fmt.Sprintf(`{"workload":%q,"seed":%d,"trace":%d,"result":{"correct":%t,"attempted":100,"failed":1,"metrics":{%s}}}`+"\n",
		workload, seed, trace, correct, metrics)
}

func writeSet(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const opsMetric = `"ops_per_s":{"value":7,"unit":"1/s"}`

func TestLoadSet(t *testing.T) {
	dir := writeSet(t, map[string]string{
		"a.json": record("olap_scan", 3, 0, true, opsMetric),
		"b.json": record("olap_scan", 3, 1, true, `"amm.hit_rate":{"value":1,"unit":"ratio"}`),
	})
	set, err := loadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := set["olap_scan"][3]
	if len(set["olap_scan"]) != 1 || r.metrics["ops_per_s"] != 7 || failRate(r) != 0.01 {
		t.Fatalf("loaded %v", set)
	}
}

func TestLoadSetRefuses(t *testing.T) {
	for _, c := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"incorrect result", map[string]string{
			"a.json": record("olap_scan", 1, 0, false, opsMetric),
		}, "wrong answers"},
		{"repeated seed", map[string]string{
			"a.json": record("olap_scan", 1, 0, true, opsMetric),
			"b.json": record("olap_scan", 1, 0, true, opsMetric),
		}, "second olap_scan result for seed 1"},
		{"captured standard output", map[string]string{
			"olap_scan.1.json": `{"correct":true,"attempted":1,"failed":0,"metrics":{` + opsMetric + "}}\n",
		}, "not a result written by --out"},
		{"no results", map[string]string{}, "no end-to-end result files"},
	} {
		_, err := loadSet(writeSet(t, c.files))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestCheckSetsRefuses(t *testing.T) {
	def := benchDef{EndToEnd: []metricDef{{Name: "ops_per_s"}, {Name: "setup_s"}}}
	full := opsMetric + `,"setup_s":{"value":3,"unit":"s"}`
	load := func(files map[string]string) runSet {
		set, err := loadSet(writeSet(t, files))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	base := load(map[string]string{
		"a.json": record("olap_scan", 1, 0, true, full),
		"b.json": record("htap_mixed", 1, 0, true, full),
	})
	dirs := []string{"BASE", "NEW"}
	if err := checkSets(def, dirs, []runSet{base, base}); err != nil {
		t.Fatalf("complete sets refused: %v", err)
	}
	missingWorkload := load(map[string]string{"a.json": record("olap_scan", 1, 0, true, full)})
	if err := checkSets(def, dirs, []runSet{base, missingWorkload}); err == nil || !strings.Contains(err.Error(), "NEW has none") {
		t.Errorf("workload missing from NEW: error %v", err)
	}
	missingMetric := load(map[string]string{
		"a.json": record("olap_scan", 1, 0, true, full),
		"b.json": record("htap_mixed", 1, 0, true, opsMetric),
	})
	if err := checkSets(def, dirs, []runSet{base, missingMetric}); err == nil || !strings.Contains(err.Error(), "lacks setup_s") {
		t.Errorf("metric missing from NEW: error %v", err)
	}
	if err := checkSets(def, dirs[:1], []runSet{missingMetric}); err == nil {
		t.Error("metric missing from a single set: no error")
	}
}

func TestCompareSetsCountsFailures(t *testing.T) {
	def := benchDef{EndToEnd: []metricDef{{Name: "ops_per_s", Better: "higher", Bound: 0.1}}}
	load := func(body string) runSet {
		set, err := loadSet(writeSet(t, map[string]string{"a.json": body}))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	failing := load(record("olap_scan", 1, 0, true, opsMetric))
	clean := load(strings.Replace(record("olap_scan", 1, 0, true, opsMetric), `"failed":1`, `"failed":0`, 1))
	if bad := compareSets(io.Discard, def, []runSet{clean}); bad != 0 {
		t.Errorf("set without failures: %d failed checks, want 0", bad)
	}
	if bad := compareSets(io.Discard, def, []runSet{failing}); bad != 1 {
		t.Errorf("set with a failed operation: %d failed checks, want 1", bad)
	}
	if bad := compareSets(io.Discard, def, []runSet{clean, failing}); bad != 1 {
		t.Errorf("change with a failed operation: %d failed checks, want 1", bad)
	}
}
