package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"modchecker/internal/faults"
)

// ErrSweepClosed is returned by lookups against a PoolSweep whose session
// has been closed.
var ErrSweepClosed = errors.New("core: pool sweep session closed")

// ErrVMBudget marks a fetch skipped because its VM exhausted the per-VM
// time budget of the sweep. Classified transient: the VM is healthy, the
// sweep just declined to spend more simulated time on it, so the next
// sweep retries it from scratch. Callers distinguish it from real faults
// with errors.Is.
var ErrVMBudget = faults.Transient("core: per-VM sweep budget exhausted")

// PoolSweep is a sweep-scoped session over a fixed VM pool. Opening the
// session walks each VM's loaded-module list exactly once (with the
// checker's retry policy) and keeps the resulting module-table snapshot plus
// the open introspection handles for the whole sweep, so checking M modules
// across N VMs costs N list walks instead of M×N — and the handles' software
// TLBs stay warm across modules. The Scanner drives one PoolSweep per sweep;
// a module loaded into a guest mid-sweep is picked up by the next sweep's
// fresh snapshot.
type PoolSweep struct {
	c   *Checker
	vms []Target
	// tables[i] is VM i's module-table snapshot; listErr[i] is set when the
	// walk failed (the VM then errors for every module of the sweep, exactly
	// as a per-module walk failure would).
	tables  [][]ModuleInfo
	listErr []error
	// ListElapsed is the simulated elapsed time of taking the snapshot
	// (sum of per-VM costs sequentially, deterministic makespan in parallel
	// mode). It is charged to the clock once, at session open.
	ListElapsed time.Duration
	// ListTiming is the total Searcher work of the snapshot.
	ListTiming time.Duration
	// closed marks the session released; lookups then fail with
	// ErrSweepClosed.
	closed bool

	// leader[i] is the index of the first VM of VM i's content-identity
	// group — i itself when the VM is unique, identity tracking is off, or
	// Config.DedupIdentical is unset. Identity tokens are sampled once at
	// session open: VMs sharing a token are bit-identical for the whole
	// sweep (sweeps only read), so non-leaders share their leader's list
	// walk, fetches, digests and verdicts without touching guest memory.
	leader []int
	// eng checks each module: fetches come from the snapshot, with the
	// configured shard, dedup, store and lean settings.
	eng *engine

	// Budget state (see SetBudgets). All durations are *modeled* elapsed
	// time, never live clock reads: the driver's budget decisions must not
	// depend on what concurrent workers have charged so far, or identical
	// seeds would stop at different modules run to run.
	sweepBudget time.Duration
	perVMBudget time.Duration
	used        time.Duration   // modeled elapsed this sweep; driver goroutine only
	spent       []time.Duration // spent[i]: VM i's modeled fetch spend this sweep
}

// SetBudgets arms the session's simulated-time budgets (zero disables
// either). sweep caps the whole session's modeled elapsed time — once the
// list walk plus completed modules reach it, further CheckModule calls
// return budget-skipped reports instead of doing work. perVM caps one VM's
// modeled fetch spend within the sweep — a VM past its budget is skipped
// (ErrVMBudget) for the remaining modules while its peers continue.
func (ps *PoolSweep) SetBudgets(sweep, perVM time.Duration) {
	ps.sweepBudget, ps.perVMBudget = sweep, perVM
	ps.used = ps.ListElapsed
	ps.spent = make([]time.Duration, len(ps.vms))
}

// NewPoolSweep opens a sweep session: one retried LDR-list walk per VM.
// The caller owns the session and must Close it once the sweep is done.
//
//modsafe:acquires sweep-session
//modsafe:charged
func (c *Checker) NewPoolSweep(vms []Target) (*PoolSweep, error) {
	if len(vms) < 2 {
		return nil, fmt.Errorf("core: pool sweep needs at least 2 VMs, have %d", len(vms))
	}
	cfg := &c.cfg
	ps := &PoolSweep{
		c:       c,
		vms:     vms,
		tables:  make([][]ModuleInfo, len(vms)),
		listErr: make([]error, len(vms)),
		leader:  identityLeaders(cfg.DedupIdentical && !cfg.FullPairwise, vms),
	}
	ps.eng = &engine{c: c, vms: vms, ps: ps, leader: ps.leader, lean: cfg.LeanReports}
	if !cfg.FullPairwise {
		ps.eng.shard, ps.eng.store = cfg.ShardSize, cfg.DigestCache
	}
	costs := make([]time.Duration, len(vms))
	listOne := func(i int) {
		if ps.leader[i] != i {
			return // shares the leader's snapshot below
		}
		s := NewSearcher(vms[i].Handle, c.cfg.Strategy).WithRetry(c.cfg.Retry)
		mods, cost, err := s.ListModulesCosted()
		costs[i] = c.charge(cost)
		ps.tables[i] = mods
		ps.listErr[i] = err
	}
	runBounded("list", len(vms), c.stageWorkers(), listOne)
	for i, l := range ps.leader {
		if l != i {
			ps.tables[i] = ps.tables[l]
			ps.listErr[i] = ps.listErr[l]
		}
	}
	for _, d := range costs {
		ps.ListTiming += d
	}
	ps.ListElapsed = c.traceStage("list", "",
		func(k int) string { return "list " + vms[k].Name }, costs)
	return ps, nil
}

// identityLeaders samples each target's content-identity token and maps
// every VM to the first member of its identity group. With dedup off (or no
// tokens available) every VM leads itself.
func identityLeaders(dedup bool, vms []Target) []int {
	leader := make([]int, len(vms))
	for i := range leader {
		leader[i] = i
	}
	if !dedup {
		return leader
	}
	firstByID := make(map[uint64]int, len(vms))
	for i := range vms {
		if vms[i].Identity == nil {
			continue
		}
		id, ok := vms[i].Identity()
		if !ok {
			continue
		}
		if j, seen := firstByID[id]; seen {
			leader[i] = j
		} else {
			firstByID[id] = i
		}
	}
	return leader
}

// VMs returns the session's targets.
func (ps *PoolSweep) VMs() []Target { return ps.vms }

// Close releases the sweep session: the module-table snapshot is dropped and
// every target handle's translation cache is invalidated, so a later sweep
// starts from fresh guest state rather than mappings that may have gone
// stale between sweeps. Close is idempotent; lookups against a closed
// session fail with ErrSweepClosed.
//
//modsafe:releases sweep-session
func (ps *PoolSweep) Close() {
	if ps.closed {
		return
	}
	ps.closed = true
	ps.tables = nil
	for i := range ps.vms {
		if h := ps.vms[i].Handle; h != nil {
			h.InvalidateTranslations()
		}
	}
}

// Modules returns the first readable VM's module names in load order — the
// discovery rule the Scanner uses — or an error when no VM's list walk
// succeeded.
func (ps *PoolSweep) Modules() ([]string, error) {
	if ps.closed {
		return nil, ErrSweepClosed
	}
	var lastErr error
	for i := range ps.vms {
		if ps.listErr[i] != nil {
			lastErr = ps.listErr[i]
			continue
		}
		names := make([]string, 0, len(ps.tables[i]))
		for _, m := range ps.tables[i] {
			names = append(names, m.Name)
		}
		return names, nil
	}
	return nil, fmt.Errorf("core: module discovery failed on all %d VMs: %w", len(ps.vms), lastErr)
}

// lookup finds the named module in VM i's snapshot (case-insensitively, as
// Windows compares module names), unless VM i has exhausted its per-VM
// budget.
func (ps *PoolSweep) lookup(i int, module string) (*ModuleInfo, error) {
	if ps.perVMBudget > 0 && ps.spent[i] >= ps.perVMBudget {
		return nil, fmt.Errorf("%s on %s: %w", module, ps.vms[i].Name, ErrVMBudget)
	}
	if ps.closed {
		return nil, ErrSweepClosed
	}
	if ps.listErr[i] != nil {
		return nil, ps.listErr[i]
	}
	for k := range ps.tables[i] {
		if strings.EqualFold(ps.tables[i][k].Name, module) {
			return &ps.tables[i][k], nil
		}
	}
	return nil, fmt.Errorf("%w: %s on %s", ErrModuleNotFound, module, ps.vms[i].Name)
}

// fetchVM copies and parses one module on one VM using the session's
// module-table snapshot. spent[i] is only ever touched by VM i's fetch
// slot, and stage boundaries (runBounded joins) order those touches, so
// the accounting is race-free.
func (ps *PoolSweep) fetchVM(i int, module string) *fetched {
	c := ps.c
	t := ps.vms[i]
	f := &fetched{target: t}
	info, err := ps.lookup(i, module)
	if err != nil {
		f.err = err
		return f
	}
	s := NewSearcher(t.Handle, c.cfg.Strategy).WithRetry(c.cfg.Retry)
	buf, cost, err := s.CopyModuleCosted(info)
	f.timing.Searcher = c.charge(cost)
	if err != nil {
		f.err = err
	} else {
		infoCopy := *info
		c.parseFetched(f, t, module, &infoCopy, buf)
	}
	if ps.perVMBudget > 0 {
		ps.spent[i] += f.timing.Total()
	}
	return f
}

// CheckModule checks one module across the session's pool using the module
// table snapshot. Under an exhausted sweep budget it does no work and
// returns a report with BudgetSkipped set.
//
//modsafe:charged
func (ps *PoolSweep) CheckModule(module string) *PoolReport {
	if ps.sweepBudget > 0 && ps.used >= ps.sweepBudget {
		return &PoolReport{ModuleName: module, BudgetSkipped: true}
	}
	rep := ps.eng.report(module)
	if ps.sweepBudget > 0 {
		ps.used += rep.Elapsed
	}
	return rep
}

// CheckModulesFunc checks the given modules in order, delivering each
// module's report to fn as soon as it is assembled — always in input order,
// always on the calling goroutine. This is the streaming form of
// CheckModules: the caller folds each report into its own aggregate and
// drops it, so a sweep never holds more than one module's reports at once
// (with Config.LeanReports, which scanner sweeps always set, not even one
// module's clean VM reports).
// Modules run one after another on the calling goroutine: that keeps the
// sweep-budget check at module boundaries exact and the digest store's
// insert order deterministic, while each module's stages still fan out
// across VMs in parallel mode.
//
//moddet:sink sweep reports must be identical for sequential and parallel runs
//modsafe:charged
func (ps *PoolSweep) CheckModulesFunc(modules []string, fn func(*PoolReport)) {
	for _, m := range modules {
		fn(ps.CheckModule(m))
	}
}

// CheckModules checks the given modules in order and returns every report.
// Prefer CheckModulesFunc for large pools: this form holds all reports in
// memory at once.
//
//moddet:sink sweep reports must be identical for sequential and parallel runs
//modsafe:charged
func (ps *PoolSweep) CheckModules(modules []string) []*PoolReport {
	reports := make([]*PoolReport, 0, len(modules))
	ps.CheckModulesFunc(modules, func(rep *PoolReport) { reports = append(reports, rep) })
	return reports
}
