package modchecker

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"modchecker/internal/core"
	"modchecker/internal/metrics"
	"modchecker/internal/trace"
)

// HealthState is one VM's position in the scanner's health machine. VMs
// move Healthy -> Suspect on their first failing sweep, Suspect ->
// Quarantined after HealthPolicy.QuarantineAfter consecutive failures, and
// Quarantined -> Healthy again when a periodic probe succeeds.
type HealthState int

const (
	// HealthHealthy: the VM checks normally.
	HealthHealthy HealthState = iota
	// HealthSuspect: the VM failed its last sweep(s) but is still checked.
	HealthSuspect
	// HealthQuarantined: the VM failed too many consecutive sweeps and is
	// excluded from sweeps except for periodic readmission probes.
	HealthQuarantined
)

// String renders the health state.
func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "HEALTHY"
	case HealthSuspect:
		return "SUSPECT"
	case HealthQuarantined:
		return "QUARANTINED"
	default:
		return fmt.Sprintf("HealthState(%d)", int(h))
	}
}

// HealthPolicy tunes the scanner's health machine.
type HealthPolicy struct {
	// QuarantineAfter is how many consecutive failing sweeps move a VM to
	// quarantine (values below 1 behave as 1).
	QuarantineAfter int
	// ReadmitAfter is how many sweeps a quarantined VM sits out before a
	// readmission probe re-includes it (values below 1 behave as 1).
	ReadmitAfter int
}

// DefaultHealthPolicy quarantines after 3 consecutive failing sweeps and
// probes quarantined VMs every 2 sweeps.
func DefaultHealthPolicy() HealthPolicy {
	return HealthPolicy{QuarantineAfter: 3, ReadmitAfter: 2}
}

// BudgetPolicy caps how much simulated time a sweep may spend. Both budgets
// are measured against the sweep's modeled elapsed time, never the live
// clock, so identical seeds stop at identical module boundaries. Zero
// disables either cap.
type BudgetPolicy struct {
	// SweepBudget caps one sweep's total simulated time (list walk included).
	// When it runs out mid-sweep the remaining modules are checkpointed and
	// the sweep returns a well-formed partial report; the next Sweep resumes
	// from the checkpoint.
	SweepBudget time.Duration
	// VMBudget caps the simulated fetch time spent on any single VM within a
	// sweep. A VM past its budget is skipped for the remaining modules —
	// without health strikes — while its peers continue.
	VMBudget time.Duration
}

// BreakerPolicy tunes the per-domain circuit breakers layered on the health
// machine: a breaker opens after TripAfter consecutive permanent-class
// failures (unreadable-forever guests, or control-plane operations that keep
// failing), sending the VM straight to quarantine regardless of the slower
// strike count. The regular readmission probe doubles as the breaker's
// half-open state — one clean probe closes it.
type BreakerPolicy struct {
	// TripAfter is how many consecutive permanent failures open the breaker
	// (values below 1 behave as 1).
	TripAfter int
}

// DefaultBreakerPolicy trips after 2 consecutive permanent failures.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{TripAfter: 2}
}

// vmHealth is one roster VM's scanner state: its place in the health
// machine, plus what the current sweep has learned about it.
type vmHealth struct {
	state         HealthState
	strikes       int // consecutive failing sweeps
	quarantinedAt int // sweep number of the (latest) quarantine decision
	permStrikes   int // consecutive permanent-class failing sweeps
	breakerOpen   bool

	// The current sweep's marks, reset by partition.
	role sweepRole
	// overBudget: the per-VM budget dropped the VM mid-sweep.
	overBudget bool
	// failed is the worst fault class of the VM's VerdictErrors against a
	// pool that still had healthy members (permanent outranks transient;
	// permanent classes feed the breaker). Zero: no such failure.
	failed FaultClass
}

// sweepRole is how the current sweep treats a VM.
type sweepRole uint8

const (
	roleSkipped sweepRole = iota // destroyed, breaker tripped, or sitting out quarantine
	roleChecked                  // checked normally
	roleProbe                    // quarantined, checked as a readmission probe
)

// Alert is one integrity finding from a scanner sweep: a module on a VM
// that a majority of peers dispute, that produced no majority, or that could
// not be checked at all.
type Alert struct {
	Sweep      int
	Module     string
	VM         string
	Verdict    Verdict
	Components []string // mismatched components on that VM
	// Reason explains non-clean verdicts in one line: the fault behind a
	// VerdictError, or why the vote was inconclusive.
	Reason string
}

// ModuleError records a module the sweep could not check on any VM. The
// sweep continues past it — one unloadable module must not abort the scan of
// everything else.
type ModuleError struct {
	Module string
	Err    error
}

// SweepReport summarizes one full scan of the cloud.
type SweepReport struct {
	Sweep          int
	ModulesChecked int
	VMs            int
	Alerts         []Alert
	// Errors lists modules that could not be checked anywhere this sweep.
	Errors []ModuleError
	// Health is each tracked VM's state after this sweep.
	Health map[string]HealthState
	// healthOrder is Health's keys in sorted order, as the scanner built
	// them: the scanner's own read-only roster slice, shared by every
	// report. Nil for reports built elsewhere.
	healthOrder []string
	// Quarantined lists VMs quarantined as of the end of this sweep;
	// Readmitted lists VMs whose probe succeeded this sweep; Skipped lists
	// quarantined VMs excluded from this sweep entirely.
	Quarantined []string
	Readmitted  []string
	Skipped     []string
	// Partial marks a sweep cut short by its time budget: Remaining lists
	// the modules never reached, checkpointed for the next sweep to finish
	// first. Resumed marks a sweep that started from such a checkpoint.
	Partial   bool
	Resumed   bool
	Remaining []string
	// BudgetExceeded lists VMs dropped mid-sweep by the per-VM budget. They
	// accrue no health strikes — the sweep ran out of time for them, they
	// did not fail.
	BudgetExceeded []string
	// BreakerOpen lists VMs whose circuit breaker is open at sweep end
	// (always a subset of Quarantined).
	BreakerOpen []string
	// Simulated is the testbed time the sweep consumed on the hypervisor
	// clock (introspection + hashing, contention-stretched).
	Simulated time.Duration
	// Timing breaks the sweep's simulated time down by pipeline stage —
	// where a sweep spends its clock, the attribution the paper's Figures
	// 7/8 give per component.
	Timing SweepTiming
}

// SweepTiming is a sweep's per-stage elapsed breakdown plus the total work
// per ModChecker component. List is the session's one-time module-table
// snapshot; Fetch/Digest/Compare sum each module's stage elapsed. In
// pipelined parallel mode the stage sums exceed Simulated, because module
// k+1's fetch overlaps module k's comparison.
type SweepTiming struct {
	List    time.Duration
	Fetch   time.Duration
	Digest  time.Duration
	Compare time.Duration
	// Work is the total effective Searcher/Parser/Checker work across all
	// VMs and modules of the sweep (aggregate, not wall time).
	Work PhaseTiming
}

// Clean reports whether the sweep positively established integrity: no
// alerts, no module errors, and actual coverage. A sweep that checked
// nothing — every module skipped or deferred to a checkpoint, every domain
// destroyed — proves nothing and is not clean.
func (r *SweepReport) Clean() bool {
	return len(r.Alerts) == 0 && len(r.Errors) == 0 && !r.Partial && r.ModulesChecked > 0
}

// Scanner is the operational mode the paper's conclusion sketches:
// ModChecker as a continuously running, light-weight consistency check
// whose flags trigger deeper analysis or a snapshot revert. Each Sweep
// enumerates the module list of a reference VM and pool-checks every
// module across all VMs, isolating per-module failures and tracking per-VM
// health so a persistently failing VM degrades the pool instead of the scan.
type Scanner struct {
	cloud   *Cloud
	checker *Checker
	modules []string // nil: discover from a reference VM each sweep
	sweeps  int
	policy  HealthPolicy
	budget  BudgetPolicy
	breaker BreakerPolicy
	// The roster: the cloud's VMs, fixed at NewCloud. vms[i] is the state
	// of the i-th VM in creation (pool) order; names holds the same VMs
	// sorted by name, and order[k] is the vms index of names[k]. Sweeps walk
	// these instead of re-sorting or re-keying the fleet every time.
	vms   []vmHealth
	names []string
	order []int32
	// checkpoint is the sorted remainder of a budget-cut sweep; the next
	// Sweep checks it (and only it) before returning to full coverage.
	checkpoint []string

	// Sweep counters and histograms, resolved once against the cloud's
	// registry so the hot path never takes the registry lock.
	mSweeps       *metrics.Counter
	mAborted      *metrics.Counter
	mAlerts       *metrics.Counter
	mModuleErrors *metrics.Counter
	mQuarantines  *metrics.Counter
	mReadmissions *metrics.Counter
	mBreakerTrips *metrics.Counter
	mDeferred     *metrics.Counter
	mVMBudget     *metrics.Counter
	mResumed      *metrics.Counter
	hSweepSim     *metrics.Histogram
	hModuleSim    *metrics.Histogram
}

// NewScanner creates a scanner over the whole cloud. Checker options
// (WithParallel, WithRetry, ...) apply to every sweep. Restricting to
// specific modules is possible with SetModules.
//
// Scanner sweeps always derive lean reports: the sweep reads only each
// module's healthy count and its non-clean VMs' verdicts, reasons and
// mismatched components, all of which lean derivation computes exactly as
// full derivation does, so the O(pool²) per-pair detail is never built.
func (c *Cloud) NewScanner(opts ...CheckerOption) *Scanner {
	reg := c.Metrics()
	// Clipped to its length, so the append copies instead of writing into
	// spare capacity of the caller's slice.
	opts = append(opts[:len(opts):len(opts)], WithLeanReports())
	order := make([]int32, len(c.domains))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return strings.Compare(c.domains[a].Name, c.domains[b].Name)
	})
	names := make([]string, len(order))
	for k, i := range order {
		names[k] = c.domains[i].Name
	}
	return &Scanner{
		cloud:   c,
		checker: c.NewChecker(opts...),
		policy:  DefaultHealthPolicy(),
		breaker: DefaultBreakerPolicy(),
		vms:     make([]vmHealth, len(c.domains)),
		names:   names,
		order:   order,

		mSweeps:       reg.Counter("scanner/sweeps"),
		mAborted:      reg.Counter("scanner/aborted_sweeps"),
		mAlerts:       reg.Counter("scanner/alerts"),
		mModuleErrors: reg.Counter("scanner/module_errors"),
		mQuarantines:  reg.Counter("scanner/quarantines"),
		mReadmissions: reg.Counter("scanner/readmissions"),
		mBreakerTrips: reg.Counter("scanner/breaker_trips"),
		mDeferred:     reg.Counter("scanner/budget_deferred_modules"),
		mVMBudget:     reg.Counter("scanner/vm_budget_skips"),
		mResumed:      reg.Counter("scanner/resumed_sweeps"),
		hSweepSim:     reg.Histogram("scanner/sweep_sim_seconds", nil),
		hModuleSim:    reg.Histogram("scanner/module_sim_seconds", nil),
	}
}

// SetModules restricts sweeps to the given module names; nil restores
// discovery of the full loaded-module list.
func (s *Scanner) SetModules(modules []string) { s.modules = modules }

// SetHealthPolicy replaces the health-machine policy.
func (s *Scanner) SetHealthPolicy(p HealthPolicy) {
	if p.QuarantineAfter < 1 {
		p.QuarantineAfter = 1
	}
	if p.ReadmitAfter < 1 {
		p.ReadmitAfter = 1
	}
	s.policy = p
}

// SetBudget arms (or, zeroed, disarms) the scanner's sweep time budgets.
func (s *Scanner) SetBudget(p BudgetPolicy) { s.budget = p }

// SetBreakerPolicy replaces the circuit-breaker policy.
func (s *Scanner) SetBreakerPolicy(p BreakerPolicy) {
	if p.TripAfter < 1 {
		p.TripAfter = 1
	}
	s.breaker = p
}

// Checkpoint returns the modules deferred by the last budget-cut sweep —
// what the next Sweep will finish first — or nil when no resume is pending.
func (s *Scanner) Checkpoint() []string {
	if s.checkpoint == nil {
		return nil
	}
	out := make([]string, len(s.checkpoint))
	copy(out, s.checkpoint)
	return out
}

// Sweeps returns how many sweeps have completed.
func (s *Scanner) Sweeps() int { return s.sweeps }

// Health returns the named VM's current health state.
func (s *Scanner) Health(vm string) HealthState {
	if h := s.slot(vm); h != nil {
		return h.state
	}
	return HealthHealthy
}

// slot finds the named VM's roster state by binary search over the sorted
// names, or returns nil for a name outside the roster.
func (s *Scanner) slot(vm string) *vmHealth {
	k, ok := slices.BinarySearch(s.names, vm)
	if !ok {
		return nil
	}
	return &s.vms[s.order[k]]
}

// partition assigns every roster VM its role in sweep number `sweep` and
// describes, in pool order, a lazy target for each VM the sweep checks:
// healthy and suspect VMs, and quarantined VMs due for a readmission
// probe. No handle is opened here — the sweep session opens only the VMs
// it lists, so identity dups never get one. Skipped quarantined VMs get no
// target. Destroyed domains go straight to quarantine and are skipped —
// there is nothing left to probe, but the operator should still see them
// accounted. Each VM is checked against the roster's own domain; only when
// that domain is destroyed is the name resolved against the hypervisor
// again, so a domain later re-created under the same name re-enters
// through the normal readmission-probe path once its timer expires.
func (s *Scanner) partition(sweep int) []core.Target {
	targets := make([]core.Target, 0, len(s.vms))
	for i, d := range s.cloud.domains {
		name := d.Name
		h := &s.vms[i]
		h.role, h.overBudget, h.failed = roleSkipped, false, 0
		if d.Destroyed() {
			d = s.cloud.Domain(name)
		}
		if d == nil || d.Destroyed() {
			if h.state != HealthQuarantined {
				h.state = HealthQuarantined
				h.quarantinedAt = sweep
				s.mQuarantines.Inc()
				s.traceHealth(name, "destroyed", HealthQuarantined)
			}
			continue
		}
		if h.state != HealthQuarantined && d.ControlFailures() >= s.breaker.TripAfter {
			// The domain's control plane keeps failing: open the breaker
			// without waiting for read-path strikes. The readmission probe
			// is the half-open state; a clean probe closes it again.
			h.state = HealthQuarantined
			h.quarantinedAt = sweep
			h.breakerOpen = true
			s.mQuarantines.Inc()
			s.mBreakerTrips.Inc()
			s.traceHealth(name, "breaker open", HealthQuarantined)
			continue
		}
		if h.state == HealthQuarantined {
			if sweep-h.quarantinedAt < s.policy.ReadmitAfter {
				continue
			}
			h.role = roleProbe
		} else {
			h.role = roleChecked
		}
		targets = append(targets, s.cloud.target(d))
	}
	return targets
}

// traceHealth records one health-machine transition on the scanner track.
// Callers run on the sweep driver goroutine and walk the roster in a fixed
// order (pool order in partition, name order in updateHealth), so emission
// order is deterministic.
func (s *Scanner) traceHealth(vm, cause string, to HealthState) {
	tr := s.cloud.Tracer()
	if tr == nil {
		return
	}
	tr.Instant("health "+vm, "scanner", trace.PIDPipeline, 0, tr.Cursor(),
		trace.Arg{Key: "vm", Val: vm},
		trace.Arg{Key: "cause", Val: cause},
		trace.Arg{Key: "state", Val: to.String()})
}

// discoverModules finds the module set to sweep from the session's
// module-table snapshot: the first eligible VM whose list walk succeeded —
// a faulty reference VM must not blind the whole sweep.
func (s *Scanner) discoverModules(session *PoolSweep, eligible int) ([]string, error) {
	modules, err := session.Modules()
	if err != nil {
		return nil, fmt.Errorf("modchecker: scanner discovery failed on all %d eligible VMs: %w",
			eligible, err)
	}
	return modules, nil
}

// Sweep checks every module across every eligible VM once and returns the
// findings. Failures are contained at the smallest possible scope: a module
// that cannot be checked lands in Errors, a VM that cannot be read lands in
// Alerts with VerdictError and accrues a health strike, and only an empty
// eligible pool or failed discovery aborts the sweep.
//
//modsafe:charged
func (s *Scanner) Sweep() (*SweepReport, error) {
	// The sweep number is provisional until the sweep completes: aborted
	// sweeps must not advance the health clock, or every abort would
	// silently shrink quarantine and readmission timers computed as
	// "sweeps since quarantinedAt".
	sweep := s.sweeps + 1
	rep := &SweepReport{Sweep: sweep}
	start := s.cloud.Hypervisor().Clock().Now()
	tr := s.cloud.Tracer()
	tr.AlignTo(start)
	base := tr.Cursor()

	targets := s.partition(sweep)
	rep.VMs = len(targets)
	if len(targets) < 2 {
		return nil, s.abortSweep(tr, sweep, fmt.Errorf(
			"modchecker: sweep %d has %d eligible VMs, need at least 2", sweep, len(targets)))
	}

	// One session per sweep: every eligible VM's LDR list is walked exactly
	// once and the snapshot (plus warm introspection handles) is reused for
	// every module below. A module loaded between sweeps is observed by the
	// next sweep's fresh snapshot.
	session, err := s.checker.inner.NewPoolSweep(targets)
	if err != nil {
		return nil, s.abortSweep(tr, sweep, fmt.Errorf("modchecker: sweep %d: %w", sweep, err))
	}
	defer session.Close()
	rep.Timing.List = session.ListElapsed

	// A pending checkpoint takes priority over fresh discovery: the budget
	// already paid for the list walk of the cut sweep, so the remainder is
	// finished before coverage restarts from the top. Work behind the
	// checkpoint is never re-charged — the resumed sweep checks only what
	// the cut sweep deferred.
	modules := s.checkpoint
	if modules != nil {
		rep.Resumed = true
		s.mResumed.Inc()
	} else if modules = s.modules; modules == nil {
		if modules, err = s.discoverModules(session, len(targets)); err != nil {
			return nil, s.abortSweep(tr, sweep, err)
		}
	}
	sort.Strings(modules)
	if s.budget.SweepBudget > 0 || s.budget.VMBudget > 0 {
		session.SetBudgets(s.budget.SweepBudget, s.budget.VMBudget)
	}

	// The sweep span opens retroactively at the sweep's start cursor and is
	// emitted only on completion — aborted sweeps leave no span, exactly as
	// before. Every abort point is above this line, so the span is released
	// on the single remaining exit.
	span := tr.StartSpan("sweep "+strconv.Itoa(sweep), "scanner", trace.PIDPipeline, 0, base)

	// Stream per-module reports as they complete instead of collecting them
	// all first: each PoolReport is folded into the sweep report and dropped,
	// so the sweep never holds more than one module's reports at a time —
	// the invariant that keeps fleet-scale sweeps' memory flat. In parallel
	// (non-fleet) mode the session still pipelines: module k+1's fetches
	// overlap module k's comparison stage.
	mi := 0
	session.CheckModulesFunc(modules, func(pool *PoolReport) {
		module := modules[mi]
		mi++
		if pool.BudgetSkipped {
			// The sweep budget ran out before this module: defer it to the
			// checkpoint. No work ran, so there is nothing to account.
			rep.Remaining = append(rep.Remaining, module)
			return
		}
		rep.Timing.Fetch += pool.Stages.Fetch
		rep.Timing.Digest += pool.Stages.Digest
		rep.Timing.Compare += pool.Stages.Compare
		rep.Timing.Work.Add(pool.Timing)
		s.hModuleSim.ObserveDuration(pool.Elapsed)
		if pool.Healthy == 0 {
			if allOverVMBudget(pool) {
				// Every fetch was declined by the per-VM budget — time ran
				// out pool-wide, nothing actually failed. Treat the module
				// exactly like a sweep-budget skip.
				rep.Remaining = append(rep.Remaining, module)
				for _, r := range pool.VMReports {
					s.slot(r.TargetVM).overBudget = true
				}
				return
			}
			// Nothing could fetch this module: a module-level problem, not
			// evidence against any VM. Record once and move on.
			rep.Errors = append(rep.Errors, ModuleError{Module: module,
				Err: fmt.Errorf("modchecker: %s unreadable on all %d VMs", module, len(targets))})
			s.mModuleErrors.Inc()
			return
		}
		rep.ModulesChecked++
		for _, r := range pool.VMReports {
			if r.Verdict == VerdictClean {
				continue
			}
			if r.Verdict == VerdictError {
				h := s.slot(r.TargetVM)
				if errors.Is(r.Err, core.ErrVMBudget) {
					// Out of time, not out of order: no alert, no strike.
					h.overBudget = true
					continue
				}
				// A failure against a pool that still had healthy members:
				// evidence the VM, not the module or the pool, is the problem.
				if r.ErrClass > h.failed {
					h.failed = r.ErrClass
				}
			}
			rep.Alerts = append(rep.Alerts, Alert{
				Sweep:      sweep,
				Module:     module,
				VM:         r.TargetVM,
				Verdict:    r.Verdict,
				Components: r.MismatchedComponents(),
				Reason:     r.Reason(),
			})
		}
	})
	rep.Timing.Work.Searcher += session.ListTiming

	// Modules never reached become the checkpoint the next sweep resumes
	// from. (VMs dropped by the per-VM budget are accounted in updateHealth.)
	if len(rep.Remaining) > 0 {
		rep.Partial = true
		s.checkpoint = make([]string, len(rep.Remaining))
		copy(s.checkpoint, rep.Remaining)
		s.mDeferred.Add(uint64(len(rep.Remaining)))
	} else {
		s.checkpoint = nil
	}

	// The sweep completed: only now does the health clock advance.
	s.sweeps = sweep
	s.mSweeps.Inc()
	s.mAlerts.Add(uint64(len(rep.Alerts)))
	s.updateHealth(rep)
	rep.Simulated = s.cloud.Hypervisor().Clock().Now() - start
	s.hSweepSim.ObserveDuration(rep.Simulated)
	span.End(
		trace.Arg{Key: "modules", Val: strconv.Itoa(rep.ModulesChecked)},
		trace.Arg{Key: "vms", Val: strconv.Itoa(rep.VMs)},
		trace.Arg{Key: "alerts", Val: strconv.Itoa(len(rep.Alerts))})
	// All workers have joined: fold the deferred fault/lifecycle events
	// into the ring at this deterministic boundary.
	tr.Flush()
	return rep, nil
}

// abortSweep accounts an aborted sweep attempt — without advancing the
// health clock — and passes the error through.
func (s *Scanner) abortSweep(tr *trace.Tracer, sweep int, err error) error {
	s.mAborted.Inc()
	if tr != nil {
		tr.Instant("sweep "+strconv.Itoa(sweep)+" aborted", "scanner",
			trace.PIDPipeline, 0, tr.Cursor(),
			trace.Arg{Key: "error", Val: err.Error()})
		tr.Flush()
	}
	return err
}

// allOverVMBudget reports whether every errored fetch of the pool was a
// per-VM-budget skip (so the module failed for lack of time, not health).
func allOverVMBudget(pool *PoolReport) bool {
	if len(pool.VMReports) == 0 {
		return false
	}
	for _, r := range pool.VMReports {
		if !errors.Is(r.Err, core.ErrVMBudget) {
			return false
		}
	}
	return true
}

// updateHealth advances the health machine after a completed sweep and
// fills the report's per-VM accounting. It walks the roster in name order,
// so every list comes out sorted and map iteration order never leaks into
// the trace's emission sequence. VMs dropped by the per-VM budget are
// reported but accrue no health movement at all — skipping their update
// keeps readmission probes armed for a sweep that actually reaches them.
func (s *Scanner) updateHealth(rep *SweepReport) {
	quarantineAfter := s.policy.QuarantineAfter
	if quarantineAfter < 1 {
		quarantineAfter = 1
	}
	// A sweep that checked no module established nothing about anyone:
	// freeze the health machine entirely so probes re-fire and strikes
	// neither grow nor reset on zero evidence.
	frozen := rep.ModulesChecked == 0
	rep.Health = make(map[string]HealthState, len(s.vms))
	rep.healthOrder = s.names
	for k, i := range s.order {
		vm, h := s.names[k], &s.vms[i]
		switch {
		case h.role == roleSkipped:
			rep.Skipped = append(rep.Skipped, vm)
		case h.overBudget:
			rep.BudgetExceeded = append(rep.BudgetExceeded, vm)
		case !frozen:
			s.advance(rep, vm, h, quarantineAfter)
		}
		rep.Health[vm] = h.state
		if h.state == HealthQuarantined {
			rep.Quarantined = append(rep.Quarantined, vm)
		}
		if h.breakerOpen {
			rep.BreakerOpen = append(rep.BreakerOpen, vm)
		}
	}
	s.mVMBudget.Add(uint64(len(rep.BudgetExceeded)))
}

// advance moves one VM the sweep checked through the health machine.
func (s *Scanner) advance(rep *SweepReport, vm string, h *vmHealth, quarantineAfter int) {
	was := h.state
	probing := h.role == roleProbe
	if class := h.failed; class != 0 {
		h.strikes++
		if class == FaultPermanent {
			h.permStrikes++
		} else {
			h.permStrikes = 0
		}
		trip := h.permStrikes >= s.breaker.TripAfter
		switch {
		case probing || h.strikes >= quarantineAfter || trip:
			// A failed probe re-quarantines immediately; repeat
			// offenders graduate from suspect; a run of permanent
			// failures trips the breaker without waiting for either.
			h.state = HealthQuarantined
			h.quarantinedAt = s.sweeps
			s.mQuarantines.Inc()
			cause := "failed sweep"
			if trip {
				cause = "breaker open"
				if !h.breakerOpen {
					s.mBreakerTrips.Inc()
				}
				h.breakerOpen = true
			}
			s.traceHealth(vm, cause, h.state)
		default:
			h.state = HealthSuspect
			if was != HealthSuspect {
				s.traceHealth(vm, "failed sweep", h.state)
			}
		}
		return
	}
	if probing {
		rep.Readmitted = append(rep.Readmitted, vm)
		s.mReadmissions.Inc()
	}
	h.state = HealthHealthy
	h.strikes = 0
	h.permStrikes = 0
	if h.breakerOpen {
		// The half-open probe came back clean: close the breaker and
		// forgive the domain's control-plane failure streak.
		h.breakerOpen = false
		if d := s.cloud.Domain(vm); d != nil {
			d.ResetControlFailures()
		}
		s.traceHealth(vm, "breaker close", h.state)
	} else if was != HealthHealthy {
		s.traceHealth(vm, "clean sweep", h.state)
	}
}
