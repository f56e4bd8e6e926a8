// Command perfbench is tierdb's wall-clock benchmark. One process boots
// a tierdb instance serving its wire protocol on loopback TCP, loads the
// TPC-C ORDERLINE table through the wire client under the paper's
// w = 0.2 hybrid layout (four key columns as MRCs, six attributes in
// one SSCG on a page file), drives one workload from at most two client
// goroutines and connections, checks every answer against an oracle
// computed from the generated rows, and prints one JSON result line.
//
//	perfbench --workload olap_scan --seed 1 --seconds 10 --trace 0
//	perfbench compare BASE_DIR NEW_DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// run with the same inputs that times calls into each layer and reports
// the per-layer metrics. README.md beside this file documents the
// workloads, metrics and compare mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spec is one workload.
type spec struct {
	name string
	// wal makes the instance durable (SyncGroup) and checked by a WAL
	// reopen.
	wal bool
	// mergeRows is the delta size that triggers a background merge.
	mergeRows int
	// index builds a B+-tree on ol_o_id.
	index bool
	// closed is the number of closed-loop clients and mix their
	// operation weights.
	closed int
	mix    [numOps]float64
	// openRate is the open-loop writer's insert rate per second (0:
	// no open-loop writer).
	openRate float64
}

// The base table every workload loads: warehouses x 10 districts x
// orders x 5..15 lines, about 1.2e5 rows. The AMM cache holds
// cacheFrac times the SSCG's pages, so the SSCG fits.
const (
	warehouses = 4
	orders     = 300
	cacheFrac  = 1.25
)

var specs = []spec{
	{
		name: "olap_scan", closed: 2,
		mix: [numOps]float64{opScan: 0.5, opRange: 0.25, opPoint: 0.25},
	},
	{
		name: "htap_mixed", wal: true, mergeRows: 20_000, index: true, closed: 1,
		mix:      [numOps]float64{opScan: 1},
		openRate: 200,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// hardLimit ends a run that overstays its time budget without a result.
const hardLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		workload string
		seed     int64
		seconds  float64
		traced   int
		out      string
	)
	flag.StringVar(&workload, "workload", "", "workload to run: olap_scan or htap_mixed")
	flag.Int64Var(&seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "measured window length in seconds")
	flag.IntVar(&traced, "trace", 0, "1: per-layer traced run; 0: end-to-end run")
	flag.StringVar(&out, "out", "", "also write the result, with workload and seed, to this file (for compare)")
	flag.Parse()
	s, ok := specByName(workload)
	if !ok || seconds <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (olap_scan|htap_mixed), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	timer := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", hardLimit)
		os.Exit(3)
	})
	res, err := run(s, seed, time.Duration(seconds*float64(time.Second)), traced == 1)
	timer.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out != "" {
		rec, _ := json.Marshal(resultFile{Workload: s.name, Seed: seed, Trace: traced, Result: res})
		if err := os.WriteFile(out, append(rec, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is what --out writes: a result with the run it came from.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// run performs one benchmark run in a scratch directory under the
// build directory of the checkout it runs in.
func run(s spec, seed int64, window time.Duration, traced bool) (result, error) {
	root := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return result{}, err
	}
	workDir, err := os.MkdirTemp(root, s.name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(workDir)
	b := &bench{
		spec:    s,
		seed:    seed,
		window:  window,
		traced:  traced,
		workDir: workDir,
		outDir:  root,
	}
	b.ds = generate(seed, warehouses, orders)
	if err := b.execute(); err != nil {
		return result{}, err
	}
	return b.result(), nil
}

// printMetrics writes every metric with its unit, one per line, for a
// reader of the run's standard error.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
