package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"modchecker/internal/faults"
)

// PoolReport is the result of sweeping one module across an entire VM pool:
// every VM is checked against all others, and VMs whose copy a majority of
// peers dispute are flagged. This is the operational mode the paper's
// conclusion sketches — a light-weight consistency check whose flags
// trigger deeper analysis or a snapshot revert.
//
// The report is a view over the engine's outcome: the verdicts come from
// cluster sizes, and At, Report and Pairs build any VM's detail on demand
// from the group- and cluster-sized tables the report keeps.
type PoolReport struct {
	ModuleName string
	// VMReports holds the reports of the VMs that are not clean (altered,
	// inconclusive or errored), in pool order. At and Report reach every
	// VM of the pool.
	VMReports []*ModuleReport

	// Flagged lists VMs with VerdictAltered; Inconclusive lists VMs with
	// no majority either way; Errored lists VMs whose own fetch failed
	// (VerdictError) — they contributed nothing to any vote.
	Flagged      []string
	Inconclusive []string
	Errored      []string

	// Healthy counts VMs whose fetch succeeded: the denominator that
	// actually voted. A report where Healthy is far below Len() describes
	// a degraded pool, not a clean one.
	Healthy int

	// BudgetSkipped marks a module that was never checked because the
	// sweep's time budget was exhausted first: no fetches ran, no verdicts
	// exist, and the module belongs in the sweep's resumable remainder.
	BudgetSkipped bool

	// Timing is total work; Elapsed is simulated wall-clock. Under the
	// parallel driver both the fetch stage and the comparison stage run on
	// a bounded worker pool, and Elapsed models each stage's critical path
	// across the workers; sequentially it is simply the sum of all work.
	Timing  PhaseTiming
	Elapsed time.Duration
	// Stages splits Elapsed by pipeline stage — where the simulated time of
	// this module's check went.
	Stages StageTiming

	// out is the engine outcome the view reads; nil when BudgetSkipped.
	out *outcome
}

// StageTiming is the per-stage simulated elapsed breakdown of a pool check
// or a whole sweep: how long the fetch, digest, and representative-compare
// stages each took on the modeled worker schedule.
type StageTiming struct {
	Fetch   time.Duration
	Digest  time.Duration
	Compare time.Duration
}

// Total returns the summed stage time.
func (s StageTiming) Total() time.Duration { return s.Fetch + s.Digest + s.Compare }

// Len returns the number of VMs in the pool.
func (p *PoolReport) Len() int {
	if p.out == nil {
		return 0
	}
	return p.out.grp.n
}

// At returns the report of VM i, in pool order: the stored report for a
// non-clean VM, a freshly built one for a clean VM.
func (p *PoolReport) At(i int) *ModuleReport {
	o := p.out
	if k, ok := slices.BinarySearch(o.nonClean, int32(i)); ok {
		return p.VMReports[k]
	}
	return o.vmReport(p.ModuleName, i)
}

// Report returns the report of the named VM, or nil.
func (p *PoolReport) Report(vm string) *ModuleReport {
	if i := p.index(vm); i >= 0 {
		return p.At(i)
	}
	return nil
}

// Pairs returns the named VM's result against every other VM of the pool,
// in pool order: two healthy VMs match when their clusters' representative
// comparison did, and a peer whose fetch failed carries its error. An
// errored VM's list is a single entry naming itself with its own error.
// nil for a VM not in the pool.
func (p *PoolReport) Pairs(vm string) []PairResult {
	i := p.index(vm)
	if i < 0 {
		return nil
	}
	o := p.out
	g := o.grp.group(i)
	if err := o.errs[g]; err != nil {
		return []PairResult{{PeerVM: vm, Err: err, ErrClass: faults.Classify(err)}}
	}
	pairs := make([]PairResult, 0, o.grp.n-1)
	for j := range o.grp.n {
		if j == i {
			continue
		}
		peer, pg := o.pool.Name(j), o.grp.group(j)
		if perr := o.errs[pg]; perr != nil {
			pairs = append(pairs, PairResult{PeerVM: peer, Err: perr, ErrClass: faults.Classify(perr)})
			continue
		}
		mm := o.mismatches(o.clusterOf[g], o.clusterOf[pg])
		pairs = append(pairs, PairResult{PeerVM: peer, Match: len(mm) == 0, MismatchedComponents: mm})
	}
	return pairs
}

// index returns the pool index of the named VM, or -1.
func (p *PoolReport) index(vm string) int {
	for i := range p.Len() {
		if p.out.pool.Name(i) == vm {
			return i
		}
	}
	return -1
}

// CheckPool fetches the module once from every VM and derives a per-VM
// majority verdict from cross-comparison. Unlike calling CheckModule per
// target (which refetches peers each time), the pool sweep reuses each
// fetch, so introspection cost stays linear in pool size; the comparison
// is digest pre-clustering (O(n) normalizations against a reference plus
// one true comparison per cluster pair), or the legacy O(n²) pairwise
// oracle under Config.FullPairwise. Every fetch walks the VM's LDR list
// itself; there is no store and no dedup.
//
//modsafe:charged
func (c *Checker) CheckPool(module string, vms []Target) (*PoolReport, error) {
	if len(vms) < 2 {
		return nil, fmt.Errorf("core: pool check of %s needs at least 2 VMs, have %d", module, len(vms))
	}
	return c.poolEngine(vms).report(module), nil
}

// poolEngine is the engine of the per-call pool checks: one flat shard,
// every VM its own group and fetched with its own LDR walk, no store.
func (c *Checker) poolEngine(vms []Target) *engine {
	p := targetPool(vms)
	return &engine{c: c, pool: p, grp: newGroups(p, false)}
}

// clusterVote is one cluster's side of the majority vote: every member
// has the cluster's successes and verdict.
type clusterVote struct {
	size      int // member VMs
	successes int
	verdict   Verdict
}

// derive fills a PoolReport from cluster structure: a VM's successes are
// its cluster's size minus itself plus every cluster whose representative
// comparison came back clean, so verdicts cost O(clusters²) once plus
// O(groups) to apply. Only the non-clean VMs get a stored ModuleReport, and
// only a module with a non-clean group walks the pool, to list them in
// pool order.
func (e *engine) derive(o *outcome) *PoolReport {
	rep := o.rep
	rep.out = o
	o.votes = make([]clusterVote, len(o.clusters))
	for g, cid := range o.clusterOf {
		if cid >= 0 {
			o.votes[cid].size += e.grp.size(g)
			rep.Healthy += e.grp.size(g)
		}
	}
	clean := true
	for cid := range o.votes {
		v := &o.votes[cid]
		v.successes = v.size - 1
		for d := range o.votes {
			if d != cid && len(o.mismatches(cid, d)) == 0 {
				v.successes += o.votes[d].size
			}
		}
		v.verdict = e.c.verdict(v.successes, rep.Healthy-1)
		clean = clean && v.verdict == VerdictClean
	}
	if clean && rep.Healthy == e.grp.n {
		return rep
	}

	for i := range e.grp.n {
		g := e.grp.group(i)
		if o.errs[g] == nil && o.votes[o.clusterOf[g]].verdict == VerdictClean {
			continue
		}
		r := o.vmReport(rep.ModuleName, i)
		rep.VMReports = append(rep.VMReports, r)
		o.nonClean = append(o.nonClean, int32(i))
		switch r.Verdict {
		case VerdictAltered:
			rep.Flagged = append(rep.Flagged, r.TargetVM)
		case VerdictInconclusive:
			rep.Inconclusive = append(rep.Inconclusive, r.TargetVM)
		case VerdictError:
			rep.Errored = append(rep.Errored, r.TargetVM)
		}
	}
	sort.Strings(rep.Flagged)
	sort.Strings(rep.Inconclusive)
	sort.Strings(rep.Errored)
	return rep
}

// vmReport builds VM i's ModuleReport from the outcome. A healthy VM's
// component tallies weigh each other cluster's representative comparison
// by the cluster's size.
func (o *outcome) vmReport(module string, i int) *ModuleReport {
	g := o.grp.group(i)
	r := &ModuleReport{ModuleName: module, TargetVM: o.pool.Name(i)}
	if err := o.errs[g]; err != nil {
		r.Verdict, r.Err, r.ErrClass = VerdictError, err, faults.Classify(err)
		return r
	}
	cid := o.clusterOf[g]
	v := o.votes[cid]
	r.Base = o.bases[g]
	r.Successes, r.Comparisons, r.Verdict = v.successes, o.rep.Healthy-1, v.verdict
	r.Components = tallyComponents(o.clusters[cid].names, r.Comparisons, func(dispute func([]string, int)) {
		for d := range o.clusters {
			if mm := o.mismatches(cid, d); len(mm) > 0 {
				dispute(mm, o.votes[d].size)
			}
		}
	})
	return r
}
