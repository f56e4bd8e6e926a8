package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchDef is the part of BENCHMARK.json compare mode reads.
type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is one end-to-end result: its metrics and its operation
// counts.
type runResult struct {
	metrics           map[string]float64
	attempted, failed int64
}

// runSet is one set of end-to-end results: workload -> seed -> result.
type runSet map[string]map[int64]runResult

// loadSet reads every *.json file in dir, each a result written by
// --out, and keeps the end-to-end ones. It refuses a set holding an
// incorrect result or two results of one workload and seed.
func loadSet(dir string) (runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, p := range paths {
		rf, err := readResultFile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace != 0 {
			continue
		}
		if !rf.Result.Correct {
			return nil, fmt.Errorf("%s: the run found wrong answers", p)
		}
		if set[rf.Workload] == nil {
			set[rf.Workload] = map[int64]runResult{}
		}
		if _, dup := set[rf.Workload][rf.Seed]; dup {
			return nil, fmt.Errorf("%s: a second %s result for seed %d", p, rf.Workload, rf.Seed)
		}
		r := runResult{metrics: map[string]float64{}, attempted: rf.Result.Attempted, failed: rf.Result.Failed}
		for name, v := range rf.Result.Metrics {
			r.metrics[name] = v.Value
		}
		set[rf.Workload][rf.Seed] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", dir)
	}
	return set, nil
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, err
	}
	if rf.Workload == "" || rf.Result.Metrics == nil || rf.Result.Attempted < 1 {
		return rf, errors.New("not a result written by --out")
	}
	return rf, nil
}

// checkSets refuses sets that do not hold the same workloads, or a run
// that lacks an end-to-end metric.
func checkSets(def benchDef, dirs []string, sets []runSet) error {
	for i, set := range sets {
		for wl, runs := range set {
			for j, other := range sets {
				if other[wl] == nil {
					return fmt.Errorf("%s has %s results, %s has none", dirs[i], wl, dirs[j])
				}
			}
			for seed, r := range runs {
				for _, md := range def.EndToEnd {
					if _, ok := r.metrics[md.Name]; !ok {
						return fmt.Errorf("%s: the %s result for seed %d lacks %s", dirs[i], wl, seed, md.Name)
					}
				}
			}
		}
	}
	return nil
}

// dist is one metric's values over a set of runs, keyed by seed.
type dist struct {
	bySeed         map[int64]float64
	q1, median, q3 float64
}

func newDist(bySeed map[int64]float64) dist {
	var v []float64
	for _, x := range bySeed {
		v = append(v, x)
	}
	d := dist{bySeed: bySeed}
	d.q1, d.median, d.q3 = quartiles(v)
	return d
}

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.median == 0 {
		return math.Inf(1)
	}
	return (d.q3 - d.q1) / math.Abs(d.median)
}

// worseBy is how much worse b is than a, as a share of a (negative:
// better).
func worseBy(a, b float64, def metricDef) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if def.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func better(x, y float64, def metricDef) bool {
	if def.Better == "higher" {
		return x > y
	}
	return x < y
}

// minPairs is how many seed-paired runs a gain needs.
const minPairs = 10

// verdict compares a change (b) with its parent (a) on one metric;
// failA and failB are their median shares of failed operations:
//   - "gain": the change wins at least nine tenths of at least minPairs
//     seed-paired runs (ties count for neither), the medians differ, in
//     the change's favour, by more than the parent's interquartile
//     range, and no more operations fail than at the parent;
//   - "too few pairs" or "more failures": as a gain, but on fewer than
//     minPairs pairs, or with more operations failing;
//   - "regressed": the change's median is worse than the parent's by
//     more than the bound;
//   - "unresolved": the parent's own spread is wider than the bound, so
//     no-regression cannot be shown, unless every run of the change
//     reads better than every run of the parent;
//   - "within bound" otherwise.
func verdict(a, b dist, failA, failB float64, def metricDef) string {
	wins, pairs := 0, 0
	for seed, av := range a.bySeed {
		bv, ok := b.bySeed[seed]
		if !ok {
			continue
		}
		pairs++
		if better(bv, av, def) {
			wins++
		}
	}
	if float64(wins) >= 0.9*float64(pairs) &&
		better(b.median, a.median, def) && math.Abs(b.median-a.median) > a.q3-a.q1 {
		switch {
		case pairs < minPairs:
			return "too few pairs"
		case failB > failA:
			return "more failures"
		default:
			return "gain"
		}
	}
	allBetter := len(b.bySeed) > 0 && len(a.bySeed) > 0
	for _, bv := range b.bySeed {
		for _, av := range a.bySeed {
			if !better(bv, av, def) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return "within bound"
	}
	if a.spread() > def.Bound {
		return "unresolved"
	}
	if worseBy(a.median, b.median, def) > def.Bound {
		return "regressed"
	}
	return "within bound"
}

// steadiness judges one set's spread against a metric's bound: the
// stability target is a third of the bound.
func steadiness(d dist, def metricDef) string {
	switch {
	case d.spread() <= def.Bound/3:
		return "steady"
	case d.spread() <= def.Bound:
		return "within bound"
	default:
		return "UNSTEADY"
	}
}

// compareMain prints each workload x end-to-end metric of one result
// set (its steadiness) or of two (the change against its parent). It
// fails when a metric is unsteady beyond its bound (one set) or
// regressed (two sets).
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	defPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirs := fs.Args()
	if len(dirs) < 1 || len(dirs) > 2 {
		return errors.New("usage: compare [-bench BENCHMARK.json] BASE_DIR [NEW_DIR]")
	}
	raw, err := os.ReadFile(*defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", *defPath, err)
	}
	var sets []runSet
	for _, d := range dirs {
		s, err := loadSet(d)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	if err := checkSets(def, dirs, sets); err != nil {
		return err
	}
	bad := compareSets(os.Stdout, def, sets)
	if bad > 0 {
		return fmt.Errorf("%d metric(s) failed", bad)
	}
	return nil
}

// compareSets writes the comparison table and returns how many checks
// failed: a metric unsteady or regressed, or a workload on which an
// operation failed in any run (its failures would vary run by run, and
// the benchmark's workloads are chosen to run without any).
func compareSets(w io.Writer, def benchDef, sets []runSet) int {
	var workloads []string
	for name := range sets[0] {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	bad := 0
	cell := func(d dist) string {
		return fmt.Sprintf("%12.5g [%10.5g %10.5g] %6.1f%%", d.median, d.q1, d.q3, 100*d.spread())
	}
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s (%d runs", wl, len(sets[0][wl]))
		if len(sets) == 2 {
			fmt.Fprintf(w, " vs %d", len(sets[1][wl]))
		}
		fmt.Fprintln(w, ")")
		line := "  failed operations"
		for i, set := range sets {
			var attempted, failed int64
			for _, r := range set[wl] {
				attempted += r.attempted
				failed += r.failed
			}
			if i > 0 {
				line += "  ->"
			}
			line += fmt.Sprintf(" %d of %d", failed, attempted)
			if failed > 0 {
				bad++
			}
		}
		fmt.Fprintln(w, line)
		var failA, failB float64
		if len(sets) == 2 {
			failA = newDist(values(sets[0][wl], failRate)).median
			failB = newDist(values(sets[1][wl], failRate)).median
		}
		for _, md := range def.EndToEnd {
			a := newDist(values(sets[0][wl], func(r runResult) float64 { return r.metrics[md.Name] }))
			line := fmt.Sprintf("  %-20s %-6s bound %4.1f%%  %s", md.Name, md.Unit, 100*md.Bound, cell(a))
			var v string
			if len(sets) == 1 {
				v = steadiness(a, md)
				if v == "UNSTEADY" {
					bad++
				}
			} else {
				b := newDist(values(sets[1][wl], func(r runResult) float64 { return r.metrics[md.Name] }))
				line += fmt.Sprintf("  ->  %s  %+6.1f%%", cell(b), -100*worseBy(a.median, b.median, md))
				v = verdict(a, b, failA, failB, md)
				if v == "regressed" {
					bad++
				}
			}
			fmt.Fprintf(w, "%s  %s\n", line, v)
		}
	}
	return bad
}

func values(runs map[int64]runResult, pick func(runResult) float64) map[int64]float64 {
	out := map[int64]float64{}
	for seed, r := range runs {
		out[seed] = pick(r)
	}
	return out
}

func failRate(r runResult) float64 { return float64(r.failed) / float64(r.attempted) }
