package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tierdb"
	"tierdb/internal/server/client"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
)

// instance is one booted database serving the loaded ORDERLINE table.
type instance struct {
	db     *tierdb.DB
	tbl    *tierdb.Table
	dir    string
	walDir string
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	total, bulkload, layout, index time.Duration
	// commitErrs counts a bulk load answered with an error although its
	// rows were committed; calls counts the set-up's wire calls. Both
	// feed bench.error_rate and bench.commit_errors, not the workload's
	// own failed operations.
	commitErrs int
	calls      int
}

// sscgPages is how many pages the w = 0.2 layout's SSCG needs for n
// rows: the six non-key attributes, fixed-width, packed per page.
func sscgPages(layout []bool, n int) int {
	width := 0
	for i, f := range tpcc.OrderLineSchema().Fields() {
		if !layout[i] {
			width += f.SlotWidth()
		}
	}
	perPage := storage.PageSize / width
	return (n + perPage - 1) / perPage
}

// boot opens a database listening on loopback, creates the table
// through the wire client, bulk loads it in one wire call, applies the
// paper's w = 0.2 layout and builds the workload's index. It returns
// the timed split of the set-up.
func (b *bench) boot(k int) (*instance, setupTimes, error) {
	var st setupTimes
	dir := filepath.Join(b.workDir, fmt.Sprintf("instance-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	in := &instance{dir: dir}
	layout := tpcc.LayoutForBudget(0.2)
	pages := sscgPages(layout, len(b.ds.rows))
	cfg := tierdb.Config{
		CacheFrames:    int(float64(pages) * cacheFrac),
		Parallelism:    runtime.NumCPU(),
		PageFile:       filepath.Join(dir, "pages"),
		ListenAddr:     "127.0.0.1:0",
		MergeDeltaRows: b.spec.mergeRows,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if b.spec.wal {
		in.walDir = filepath.Join(dir, "wal")
		cfg.WALDir = in.walDir
		cfg.SyncPolicy = tierdb.SyncGroup
	}
	start := time.Now()
	db, err := tierdb.Open(cfg)
	if err != nil {
		return nil, st, err
	}
	in.db = db
	fail := func(err error) (*instance, setupTimes, error) {
		in.close()
		return nil, st, fmt.Errorf("set-up: %w", err)
	}
	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	if err := c.CreateTable(tableName, tpcc.OrderLineSchema().Fields()); err != nil {
		return fail(err)
	}
	if in.tbl, err = db.Table(tableName); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	st.calls++
	if err := c.BulkLoad(tableName, b.ds.rows); err != nil {
		// A bulk load is one atomic commit followed by a merge: if its
		// rows are visible, the commit happened and only the reply was
		// an error. That is a failed operation, not a failed set-up.
		n, rerr := c.Rows(tableName)
		if rerr != nil || n != len(b.ds.rows) {
			return fail(fmt.Errorf("bulk load: %w", err))
		}
		st.commitErrs++
		b.logf("bulk load committed but answered %v", err)
	}
	st.bulkload = time.Since(t0)
	// ApplyLayout is refused while a merge runs, and the scheduler may
	// still be folding the bulk load (the merge its error names): wait it
	// out first. The delta is then empty, so no further merge starts.
	t0 = time.Now()
	for in.tbl.Merging() {
		time.Sleep(time.Millisecond)
	}
	st.calls++
	if err := c.ApplyLayout(tableName, layout); err != nil {
		return fail(fmt.Errorf("apply layout: %w", err))
	}
	st.layout = time.Since(t0)
	if b.spec.index {
		t0 = time.Now()
		if err := in.tbl.CreateIndex("ol_o_id"); err != nil {
			return fail(err)
		}
		st.index = time.Since(t0)
	}
	if b.spec.wal {
		// Seal the load with a checkpoint, as after any bulk load; this
		// also waits out one the merge scheduler may have started, so it
		// does not run into the measured window.
		if err := db.Checkpoint(); err != nil {
			return fail(err)
		}
	}
	st.total = time.Since(start)
	if got := in.tbl.Inner().Group().PageCount(); got != pages {
		return fail(fmt.Errorf("SSCG has %d pages, sized the cache for %d", got, pages))
	}
	return in, st, nil
}

// mergeSettled folds the delta into main, first waiting out a merge the
// scheduler may have in flight.
func (in *instance) mergeSettled() error {
	for {
		err := in.tbl.Merge()
		if !errors.Is(err, table.ErrMergeInProgress) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (in *instance) close() error {
	var err error
	if in.db != nil {
		err = in.db.Close()
		in.db = nil
	}
	return errors.Join(err, os.RemoveAll(in.dir))
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))
