package tierdb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/metrics"
	"tierdb/internal/obsrv"
	"tierdb/internal/workload"
)

// AdaptiveReport is the adaptive placement scheduler's status: config,
// lifetime totals and the last decision per table (also served on
// /layout/adaptive).
type AdaptiveReport = obsrv.AdaptiveReport

// AdaptiveDecision is one table's most recent adaptive decision.
type AdaptiveDecision = obsrv.AdaptiveDecision

// Adaptive placement defaults (Config.Adaptive* zero values).
const (
	// DefaultAdaptiveInterval is the daemon's cycle cadence when
	// adaptation is enabled without an explicit interval.
	DefaultAdaptiveInterval = 30 * time.Second
	// DefaultAdaptiveMinGain is the hysteresis floor: a re-solve must
	// promise at least this relative modeled-cost improvement before
	// the daemon re-tiers a table.
	DefaultAdaptiveMinGain = 0.01
	// DefaultAdaptiveMaxMove caps how much of a table may relocate in
	// one cycle, as a fraction of its total column bytes.
	DefaultAdaptiveMaxMove = 0.5
	// DefaultAdaptiveCooldown is how many cycles a table sits out after
	// a flip-back (re-applying the layout it just moved away from), so
	// drifting estimates cannot flap a layout every cycle.
	DefaultAdaptiveCooldown = 3
)

// adaptiveState is the per-table memory the guardrails need across
// cycles: the layout the last apply moved away from (to detect a
// flip-back) and the remaining cooldown.
type adaptiveState struct {
	prevLayout []bool // layout before the last adaptive apply; nil until one happened
	cooldown   int
}

// adaptiveScheduler closes the paper's loop: it periodically rotates
// each table's workload-history window, re-solves the explicit column
// selection model with reallocation costs (Theorem 2 on formulation
// (6)-(7), y = the current placement), and applies the recommendation
// online through the same ApplyLayout path a DBA would use — WAL-logged
// DDL, so adapted placements survive recovery.
//
// Like the merge scheduler it owns one goroutine; applies run there one
// at a time, never overlapping a merge of the same table (the table
// layer rejects overlap, and the daemon skips tables that are
// mid-merge), and each durable apply is sealed with a checkpoint, which
// db.ckptMu serializes against every other checkpoint.
type adaptiveScheduler struct {
	db       *DB
	interval time.Duration
	alpha    float64 // >0 selects the penalty form F(x)+alpha*M(x)
	beta     float64 // reallocation cost per moved byte
	budget   int64   // hard budget; 0 = current modeled footprint
	minGain  float64
	maxMove  float64
	cooldown int

	trigger  chan chan error // AdaptOnce rendezvous
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	enabled bool
	cycles  uint64
	applies uint64
	skips   uint64
	errs    uint64
	moved   int64
	last    map[string]AdaptiveDecision
	state   map[string]*adaptiveState

	cCycles *metrics.Counter
	cApply  *metrics.Counter
	cSkip   *metrics.Counter
	cErr    *metrics.Counter
	cMoved  *metrics.Counter
	hSolve  *metrics.Histogram
}

// startAdaptiveScheduler launches the daemon goroutine. It always
// starts (AdaptOnce and the server opcodes work regardless); the
// periodic loop only acts while enabled, which Config.AdaptiveInterval
// > 0 turns on at boot.
func startAdaptiveScheduler(db *DB, cfg Config) *adaptiveScheduler {
	s := &adaptiveScheduler{
		db:       db,
		interval: cfg.AdaptiveInterval,
		alpha:    cfg.AdaptiveAlpha,
		beta:     cfg.AdaptiveBeta,
		budget:   cfg.AdaptiveBudget,
		minGain:  cfg.AdaptiveMinGain,
		maxMove:  cfg.AdaptiveMaxMove,
		cooldown: cfg.AdaptiveCooldown,
		enabled:  cfg.AdaptiveInterval > 0,
		trigger:  make(chan chan error),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		last:     make(map[string]AdaptiveDecision),
		state:    make(map[string]*adaptiveState),
	}
	if s.interval <= 0 {
		s.interval = DefaultAdaptiveInterval
	}
	if s.minGain <= 0 {
		s.minGain = DefaultAdaptiveMinGain
	}
	if s.maxMove <= 0 || s.maxMove > 1 {
		s.maxMove = DefaultAdaptiveMaxMove
	}
	if s.cooldown <= 0 {
		s.cooldown = DefaultAdaptiveCooldown
	}
	r := db.registry
	s.cCycles = r.Counter("adaptive.cycles")
	s.cApply = r.Counter("adaptive.applies")
	s.cSkip = r.Counter("adaptive.skips")
	s.cErr = r.Counter("adaptive.errors")
	s.cMoved = r.Counter("adaptive.moved_bytes")
	s.hSolve = r.Histogram("adaptive.solve_ns", metrics.IOLatencyBuckets())
	go s.loop()
	return s
}

func (s *adaptiveScheduler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case reply := <-s.trigger:
			s.cycle()
			reply <- nil
		case <-t.C:
			s.mu.Lock()
			enabled := s.enabled
			s.mu.Unlock()
			if enabled {
				s.cycle()
			}
		}
	}
}

// shutdown stops the daemon and waits for an in-flight cycle; safe to
// call more than once.
func (s *adaptiveScheduler) shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// cycle runs one adaptation pass over every table.
func (s *adaptiveScheduler) cycle() {
	s.mu.Lock()
	s.cycles++
	cycle := s.cycles
	s.mu.Unlock()
	s.cCycles.Inc()
	s.db.mu.Lock()
	tables := make([]*Table, 0, len(s.db.tables))
	for _, t := range s.db.tables {
		tables = append(tables, t)
	}
	s.db.mu.Unlock()
	for _, t := range tables {
		d := s.adaptTable(t, cycle)
		s.mu.Lock()
		s.last[d.Table] = d
		switch d.Action {
		case "applied":
			s.applies++
			s.moved += d.MovedBytes
		case "skipped":
			s.skips++
			s.cSkip.Inc()
		case "error":
			s.errs++
			s.cErr.Inc()
		}
		s.mu.Unlock()
		switch d.Action {
		case "applied":
			s.db.log.Info("adaptive placement applied",
				"table", d.Table, "cycle", cycle, "moved_bytes", d.MovedBytes,
				"improvement", d.Improvement, "reason", d.Reason)
		case "error":
			s.db.log.Warn("adaptive placement error",
				"table", d.Table, "cycle", cycle, "reason", d.Reason)
		}
	}
}

// adaptTable decides and (maybe) applies one table's placement for this
// cycle. The guardrail ladder runs cheapest-first; the first rung that
// fires wins and is reported as the decision's reason.
func (s *adaptiveScheduler) adaptTable(t *Table, cycle uint64) AdaptiveDecision {
	d := AdaptiveDecision{Table: t.Name(), Cycle: cycle}
	st := s.tableState(t.Name())
	cooldownWas := st.cooldown
	if st.cooldown > 0 {
		st.cooldown--
	}
	plans := t.history.Rotate()
	for _, p := range plans {
		d.WindowQueries += p.Count
	}
	if len(plans) == 0 {
		d.Action, d.Reason = "skipped", "no workload in window"
		return d
	}
	w, err := workload.ExtractPlans(t.inner, plans, nil)
	if err != nil {
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	// Columns with enough runtime selectivity observations feed the
	// model their EWMA, exactly like the on-demand advisor.
	for i := range w.Columns {
		if sel, n := t.inner.ObservedSelectivity(i); n >= int64(DefaultAdvisorMinSamples) && sel > 0 {
			w.Columns[i].Selectivity = sel
		}
	}
	costs := core.DefaultCostParams()
	current := t.inner.Layout()
	start := time.Now()
	alloc, err := s.solve(w, costs, current)
	d.SolveNs = time.Since(start).Nanoseconds()
	s.hSolve.Observe(d.SolveNs)
	if err != nil {
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	d.Current = current
	d.Recommended = alloc.InDRAM
	// The guardrail compares the objective the solver minimizes: plain
	// scan cost under a hard budget, F(x) + alpha*M(x) in penalty mode
	// (where an apply may trade scan time for DRAM rent).
	d.CurrentCost = core.ScanCost(w, costs, current) + s.alpha*float64(core.MemoryUsed(w, current))
	d.RecommendedCost = alloc.Cost + s.alpha*float64(alloc.Memory)
	if d.CurrentCost > 0 {
		d.Improvement = (d.CurrentCost - d.RecommendedCost) / d.CurrentCost
	}
	var total int64
	for i, c := range w.Columns {
		total += c.Size
		if current[i] != alloc.InDRAM[i] {
			d.MovedBytes += c.Size
		}
	}
	if d.MovedBytes == 0 {
		// Converged: the placement already is the model's answer. A
		// clean convergence also clears any pending cooldown — the
		// estimates stopped drifting.
		st.cooldown = 0
		d.Action, d.Reason = "skipped", "layout already optimal"
		return d
	}
	if cooldownWas > 0 {
		d.CooldownLeft = st.cooldown
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("flip-back cooldown (%d cycles left)", st.cooldown)
		return d
	}
	if d.Improvement < s.minGain {
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("modeled gain %.4f below min gain %.4f", d.Improvement, s.minGain)
		return d
	}
	if total > 0 && float64(d.MovedBytes) > s.maxMove*float64(total) {
		d.Action = "skipped"
		d.Reason = fmt.Sprintf("would move %d of %d bytes, over the %.0f%% per-cycle cap",
			d.MovedBytes, total, 100*s.maxMove)
		return d
	}
	if t.Merging() {
		d.Action, d.Reason = "skipped", "online merge in flight"
		return d
	}
	flipBack := st.prevLayout != nil && equalLayout(alloc.InDRAM, st.prevLayout)
	if err := t.ApplyLayout(Layout{InDRAM: alloc.InDRAM}); err != nil {
		d.Action, d.Reason = "error", err.Error()
		return d
	}
	s.cApply.Inc()
	s.cMoved.Add(d.MovedBytes)
	st.prevLayout = current
	d.Action, d.Reason = "applied", "re-solved placement"
	if flipBack {
		// We just undid our own previous apply: the estimates are
		// oscillating around a boundary. Sit out the next cycles so the
		// flap rate is bounded by the cooldown, not the cycle cadence.
		st.cooldown = s.cooldown
		d.CooldownLeft = st.cooldown
		d.Reason = "re-solved placement (flip-back; cooling down)"
	}
	if s.db.wal != nil {
		// Seal the WAL-logged layout DDL with a checkpoint, like a
		// scheduled merge does; a failed checkpoint only means recovery
		// replays a longer log.
		if err := s.db.Checkpoint(); err != nil {
			s.db.log.Warn("post-adapt checkpoint failed", "table", d.Table, "err", err)
		}
	}
	return d
}

// solve is the daemon's re-solve: the explicit Theorem-2 path with
// reallocation costs. AdaptiveAlpha > 0 selects the penalty form
// (every column whose S_i + alpha + beta*(1-2y_i) is negative stays in
// DRAM); otherwise the budget form keeps the table within
// AdaptiveBudget bytes (its zero value: the current modeled footprint,
// "spend these same bytes better").
func (s *adaptiveScheduler) solve(w *core.Workload, costs core.CostParams, current []bool) (core.Allocation, error) {
	if s.alpha > 0 {
		return core.ContinuousPenaltyRealloc(w, costs, s.alpha, current, s.beta)
	}
	budget := s.budget
	if budget == 0 {
		budget = core.MemoryUsed(w, current)
	}
	return core.ExplicitForBudget(w, costs, budget, current, s.beta)
}

func (s *adaptiveScheduler) tableState(name string) *adaptiveState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[name]
	if !ok {
		st = &adaptiveState{}
		s.state[name] = st
	}
	return st
}

func equalLayout(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// report builds the /layout/adaptive answer.
func (s *adaptiveScheduler) report() *AdaptiveReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &AdaptiveReport{
		Enabled:         s.enabled,
		IntervalNs:      s.interval.Nanoseconds(),
		Alpha:           s.alpha,
		Beta:            s.beta,
		BudgetBytes:     s.budget,
		MinGain:         s.minGain,
		MaxMoveFraction: s.maxMove,
		CooldownCycles:  s.cooldown,
		Cycles:          s.cycles,
		Applies:         s.applies,
		Skips:           s.skips,
		Errors:          s.errs,
		MovedBytes:      s.moved,
	}
	for _, d := range s.last {
		rep.Tables = append(rep.Tables, d)
	}
	sort.Slice(rep.Tables, func(i, j int) bool { return rep.Tables[i].Table < rep.Tables[j].Table })
	return rep
}

// AdaptOnce runs one synchronous adaptation cycle on the daemon
// goroutine — every table's history window rotates, the model re-solves
// and guardrails gate the applies, exactly as a timer tick would, but
// deterministically under test control. It works even while periodic
// adaptation is disabled. Returns ErrClosed after DB.Close.
func (db *DB) AdaptOnce() error {
	reply := make(chan error, 1)
	select {
	case <-db.adapt.stop:
		return ErrClosed
	case db.adapt.trigger <- reply:
		return <-reply
	}
}

// SetAdaptive enables or disables the periodic adaptive placement
// loop at runtime (also reachable over the wire protocol).
func (db *DB) SetAdaptive(enabled bool) {
	db.adapt.mu.Lock()
	db.adapt.enabled = enabled
	db.adapt.mu.Unlock()
}

// AdaptiveEnabled reports whether the periodic loop is on.
func (db *DB) AdaptiveEnabled() bool {
	db.adapt.mu.Lock()
	defer db.adapt.mu.Unlock()
	return db.adapt.enabled
}

// AdaptiveStatus reports the daemon's configuration, lifetime totals
// and last per-table decisions.
func (db *DB) AdaptiveStatus() *AdaptiveReport { return db.adapt.report() }
