package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/vmi"
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
//
// The session's per-VM state is kept per identity group (see groups): a
// deduplicated fleet holds one handle, snapshot and budget account per
// group, plus the 4-byte VM→group map.
type PoolSweep struct {
	c    *Checker
	pool Pool
	grp  *groups
	// handles[g] is group g's leader's handle; tables[g] its module-table
	// snapshot; listErr[g] is set when the walk failed (the group then
	// errors for every module of the sweep, exactly as a per-module walk
	// failure would).
	handles []*vmi.Handle
	tables  [][]ModuleInfo
	listErr []error
	// ListElapsed is the simulated elapsed time of taking the snapshot
	// (sum of per-VM costs sequentially, deterministic makespan in parallel
	// mode). It is charged to the clock once, at session open.
	ListElapsed time.Duration
	// ListTiming is the total Searcher work of the snapshot.
	ListTiming time.Duration
	// Regrouped reports that opening the session sampled every VM's
	// identity to build its dedup groups, rather than reusing the groups of
	// an earlier session whose pool carried the same identity stamp. Always
	// false without Config.DedupIdentical.
	Regrouped bool
	// closed marks the session released; lookups then fail with
	// ErrSweepClosed.
	closed bool

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
	spent       []time.Duration // spent[g]: group g's modeled fetch spend this sweep
}

// SetBudgets arms the session's simulated-time budgets (zero disables
// either). sweep caps the whole session's modeled elapsed time — once the
// list walk plus completed modules reach it, further CheckModule calls
// return budget-skipped reports instead of doing work. perVM caps one VM's
// modeled fetch spend within the sweep — a VM past its budget is skipped
// (ErrVMBudget) for the remaining modules while its peers continue. Dedup
// followers spend nothing of their own and share their leader's fate.
func (ps *PoolSweep) SetBudgets(sweep, perVM time.Duration) {
	ps.sweepBudget, ps.perVMBudget = sweep, perVM
	ps.used = ps.ListElapsed
	ps.spent = make([]time.Duration, ps.grp.count())
}

// NewPoolSweep opens a sweep session over a target slice; it is
// NewPoolSweepFrom over the slice's Pool.
//
//modsafe:acquires sweep-session
//modsafe:charged
func (c *Checker) NewPoolSweep(vms []Target) (*PoolSweep, error) {
	return c.NewPoolSweepFrom(targetPool(vms))
}

// NewPoolSweepFrom opens a sweep session: one retried LDR-list walk per
// identity group. The caller owns the session and must Close it once the
// sweep is done.
//
// Identity tokens are sampled once here (with Config.DedupIdentical): VMs
// sharing a token are bit-identical for the whole sweep (sweeps only read),
// so dedup followers share their leader's list walk, fetches, digests and
// verdicts without touching guest memory. Only group leaders are opened,
// in pool order, just before the list walks; every VM the engine fetches
// from is a leader. When the pool carries the identity stamp of the last
// dedup session this checker opened, nothing is sampled: the stamp
// promises the same answers, so that session's groups are reused.
//
//modsafe:acquires sweep-session
//modsafe:charged
func (c *Checker) NewPoolSweepFrom(p Pool) (*PoolSweep, error) {
	if n := p.Len(); n < 2 {
		return nil, fmt.Errorf("core: pool sweep needs at least 2 VMs, have %d", n)
	}
	cfg := &c.cfg
	grp, regrouped := c.sweepGroups(p)
	ng := grp.count()
	ps := &PoolSweep{
		c:         c,
		pool:      p,
		grp:       grp,
		handles:   make([]*vmi.Handle, ng),
		tables:    make([][]ModuleInfo, ng),
		listErr:   make([]error, ng),
		Regrouped: regrouped,
	}
	ps.eng = &engine{c: c, pool: p, ps: ps, grp: grp, lean: cfg.LeanReports}
	if !cfg.FullPairwise {
		ps.eng.shard, ps.eng.store = cfg.ShardSize, cfg.DigestCache
	}
	for g := range ps.handles {
		ps.handles[g] = p.Open(grp.leader(g))
	}
	costs := make([]time.Duration, ng)
	runBounded(ng, c.stageWorkers(), func(g int) {
		s := NewSearcher(ps.handles[g], c.cfg.Strategy).WithRetry(c.cfg.Retry)
		mods, cost, err := s.ListModulesCosted()
		costs[g] = c.charge(cost)
		ps.tables[g] = mods
		ps.listErr[g] = err
	})
	for _, d := range costs {
		ps.ListTiming += d
	}
	ps.ListElapsed = c.traceStage("list", "",
		func(k int) string { return "list " + p.Name(k) }, costs, grp)
	return ps, nil
}

// sweepGroups returns a session's identity groups and whether it sampled
// every VM to build them. A dedup session over a pool whose identity stamp
// matches the last stamped dedup session's reuses that session's groups;
// any other dedup session samples afresh, and a stamped one keeps its
// groups for the next.
func (c *Checker) sweepGroups(p Pool) (*groups, bool) {
	if !c.cfg.DedupIdentical || c.cfg.FullPairwise {
		return newGroups(p, false), false
	}
	stamp, ok := p.IdentityStamp()
	if last := c.dedup.Load(); ok && last != nil && last.stamp == stamp {
		return last.grp, false
	}
	grp := newGroups(p, true)
	if ok {
		c.dedup.Store(&stampedGroups{stamp: stamp, grp: grp})
	}
	return grp, true
}

// groups maps a pool's VMs onto identity groups: VMs whose content-identity
// tokens match form one group, led by its first member in pool order, and
// groups are numbered in leader order. The session and the engine keep
// their per-VM state per group, so a deduplicated fleet costs O(groups)
// plus this map, not O(pool). With dedup off, or no VM sharing a token,
// every VM is its own group (group i is VM i) and no map is kept. A groups
// value is immutable once newGroups returns, so sessions over pools with
// equal identity stamps share one.
type groups struct {
	n       int     // pool size
	of      []int32 // of[i]: VM i's group; nil when every VM is its own
	leaders []int32 // leaders[g]: group g's first VM; nil with of
	sizes   []int32 // sizes[g]: group g's member count; nil with of
}

// newGroups samples every VM's identity token (only when dedup is set)
// and groups equal tokens.
func newGroups(p Pool, dedup bool) *groups {
	g := &groups{n: p.Len()}
	if !dedup {
		return g
	}
	of := make([]int32, g.n)
	var leaders, sizes []int32
	byID := make(map[uint64]int32) // one entry per identity group
	for i := range of {
		if id, ok := p.Identity(i); ok {
			if gi, seen := byID[id]; seen {
				of[i] = gi
				sizes[gi]++
				continue
			}
			byID[id] = int32(len(leaders))
		}
		of[i] = int32(len(leaders))
		leaders = append(leaders, int32(i))
		sizes = append(sizes, 1)
	}
	if len(leaders) < g.n {
		g.of, g.leaders, g.sizes = of, leaders, sizes
	}
	return g
}

// count returns the number of groups.
func (g *groups) count() int {
	if g.of == nil {
		return g.n
	}
	return len(g.leaders)
}

// group returns VM i's group.
func (g *groups) group(i int) int {
	if g.of == nil {
		return i
	}
	return int(g.of[i])
}

// leader returns group gi's first VM.
func (g *groups) leader(gi int) int {
	if g.of == nil {
		return gi
	}
	return int(g.leaders[gi])
}

// size returns group gi's member count.
func (g *groups) size(gi int) int {
	if g.of == nil {
		return 1
	}
	return int(g.sizes[gi])
}

// leaderCost spreads per-group costs over the pool's VMs: a leader costs
// its group's cost, a follower nothing.
func (g *groups) leaderCost(costs []time.Duration) func(int) time.Duration {
	return func(i int) time.Duration {
		gi := g.group(i)
		if g.leader(gi) != i {
			return 0
		}
		return costs[gi]
	}
}

// Close releases the sweep session: the module-table snapshot is dropped and
// every handle the session opened has its translation cache invalidated, so
// a later sweep starts from fresh guest state rather than mappings that may
// have gone stale between sweeps. Close is idempotent; lookups against a
// closed session fail with ErrSweepClosed.
//
//modsafe:releases sweep-session
func (ps *PoolSweep) Close() {
	if ps.closed {
		return
	}
	ps.closed = true
	ps.tables = nil
	for _, h := range ps.handles {
		if h != nil {
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
	for g := range ps.tables {
		if ps.listErr[g] != nil {
			lastErr = ps.listErr[g]
			continue
		}
		names := make([]string, 0, len(ps.tables[g]))
		for _, m := range ps.tables[g] {
			names = append(names, m.Name)
		}
		return names, nil
	}
	return nil, fmt.Errorf("core: module discovery failed on all %d VMs: %w", ps.pool.Len(), lastErr)
}

// lookup finds the named module in group g's snapshot (case-insensitively,
// as Windows compares module names), unless the group has exhausted its
// per-VM budget.
func (ps *PoolSweep) lookup(g int, module string) (*ModuleInfo, error) {
	if ps.perVMBudget > 0 && ps.spent[g] >= ps.perVMBudget {
		return nil, fmt.Errorf("%s on %s: %w", module, ps.name(g), ErrVMBudget)
	}
	if ps.closed {
		return nil, ErrSweepClosed
	}
	if ps.listErr[g] != nil {
		return nil, ps.listErr[g]
	}
	for k := range ps.tables[g] {
		if strings.EqualFold(ps.tables[g][k].Name, module) {
			return &ps.tables[g][k], nil
		}
	}
	return nil, fmt.Errorf("%w: %s on %s", ErrModuleNotFound, module, ps.name(g))
}

// name returns group g's leader's name.
func (ps *PoolSweep) name(g int) string { return ps.pool.Name(ps.grp.leader(g)) }

// fetchVM copies and parses one module on group g's leader using the
// session's module-table snapshot. spent[g] is only ever touched by group
// g's fetch slot, and stage boundaries (runBounded joins) order those
// touches, so the accounting is race-free.
func (ps *PoolSweep) fetchVM(g int, module string) *fetched {
	c := ps.c
	f := &fetched{name: ps.name(g)}
	info, err := ps.lookup(g, module)
	if err != nil {
		f.err = err
		return f
	}
	s := NewSearcher(ps.handles[g], c.cfg.Strategy).WithRetry(c.cfg.Retry)
	buf, cost, err := s.CopyModuleCosted(info)
	f.timing.Searcher = c.charge(cost)
	if err != nil {
		f.err = err
	} else {
		infoCopy := *info
		c.parseFetched(f, module, &infoCopy, buf)
	}
	if ps.perVMBudget > 0 {
		ps.spent[g] += f.timing.Total()
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
