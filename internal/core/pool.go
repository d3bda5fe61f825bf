package core

import (
	"fmt"
	"sort"
	"time"

	"modchecker/internal/faults"
)

// PoolReport is the result of sweeping one module across an entire VM pool:
// every VM is checked against all others, and VMs whose copy a majority of
// peers dispute are flagged. This is the operational mode the paper's
// conclusion sketches — a light-weight consistency check whose flags
// trigger deeper analysis or a snapshot revert.
type PoolReport struct {
	ModuleName string
	VMReports  []*ModuleReport

	// Flagged lists VMs with VerdictAltered; Inconclusive lists VMs with
	// no majority either way; Errored lists VMs whose own fetch failed
	// (VerdictError) — they contributed nothing to any vote.
	Flagged      []string
	Inconclusive []string
	Errored      []string

	// Healthy counts VMs whose fetch succeeded: the denominator that
	// actually voted. A report where Healthy is far below len(VMReports)
	// describes a degraded pool, not a clean one.
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

// Report returns the per-VM report for the named VM, or nil.
func (p *PoolReport) Report(vm string) *ModuleReport {
	for _, r := range p.VMReports {
		if r.TargetVM == vm {
			return r
		}
	}
	return nil
}

// CheckPool fetches the module once from every VM and derives a per-VM
// majority verdict from cross-comparison. Unlike calling CheckModule per
// target (which refetches peers each time), the pool sweep reuses each
// fetch, so introspection cost stays linear in pool size; the comparison
// is digest pre-clustering (O(n) normalizations against a reference plus
// one true comparison per cluster pair), or the legacy O(n²) pairwise
// oracle under Config.FullPairwise. Every fetch walks the VM's LDR list
// itself; there is no store, no dedup, and the report is always full.
//
//modsafe:charged
func (c *Checker) CheckPool(module string, vms []Target) (*PoolReport, error) {
	if len(vms) < 2 {
		return nil, fmt.Errorf("core: pool check of %s needs at least 2 VMs, have %d", module, len(vms))
	}
	return c.poolEngine(vms).report(module), nil
}

// poolEngine is the engine of the per-call pool checks: one flat shard,
// every VM its own group and fetched with its own LDR walk, no store, full
// reports.
func (c *Checker) poolEngine(vms []Target) *engine {
	p := targetPool(vms)
	return &engine{c: c, pool: p, grp: newGroups(p, false)}
}

// derivePool fills a PoolReport's VMReports, tallies, verdicts and
// flag/error lists from the engine's clusters: two VMs' copies mismatch on
// exactly the components their clusters' representative comparison
// reported.
func (e *engine) derivePool(o *outcome, module string) {
	rep := o.rep
	n := e.grp.n
	for i := range n {
		name, g := e.pool.Name(i), e.grp.group(i)
		r := &ModuleReport{ModuleName: module, TargetVM: name}
		if err := o.errs[g]; err != nil {
			r.Verdict = VerdictError
			r.Err = err
			r.ErrClass = faults.Classify(err)
			r.Pairs = append(r.Pairs, PairResult{
				PeerVM: name, Err: err, ErrClass: r.ErrClass,
			})
			rep.VMReports = append(rep.VMReports, r)
			rep.Errored = append(rep.Errored, name)
			continue
		}
		rep.Healthy++
		r.Base = o.bases[g]
		tallies := make(map[string]*ComponentTally)
		var order []string
		for _, cn := range o.clusters[o.clusterOf[g]].names {
			tallies[cn] = &ComponentTally{Name: cn}
			order = append(order, cn)
		}
		for j := range n {
			if j == i {
				continue
			}
			peer, pg := e.pool.Name(j), e.grp.group(j)
			if perr := o.errs[pg]; perr != nil {
				r.Pairs = append(r.Pairs, PairResult{
					PeerVM: peer, Err: perr, ErrClass: faults.Classify(perr),
				})
				continue
			}
			mm := o.mismatches(o.clusterOf[g], o.clusterOf[pg])
			pr := PairResult{PeerVM: peer, Match: len(mm) == 0, MismatchedComponents: mm}
			r.Pairs = append(r.Pairs, pr)
			r.Comparisons++
			if pr.Match {
				r.Successes++
			}
			seen := make(map[string]bool, len(mm))
			for _, cn := range mm {
				seen[cn] = true
				t, ok := tallies[cn]
				if !ok {
					t = &ComponentTally{Name: cn}
					tallies[cn] = t
					order = append(order, cn)
				}
				t.Mismatches++
				t.MismatchedVMs = append(t.MismatchedVMs, peer)
			}
			for _, cn := range order {
				if !seen[cn] {
					tallies[cn].Matches++
				}
			}
		}
		for _, cn := range order {
			r.Components = append(r.Components, *tallies[cn])
		}
		r.Verdict = e.c.verdict(r.Successes, r.Comparisons)
		rep.VMReports = append(rep.VMReports, r)
		switch r.Verdict {
		case VerdictAltered:
			rep.Flagged = append(rep.Flagged, name)
		case VerdictInconclusive:
			rep.Inconclusive = append(rep.Inconclusive, name)
		}
	}
	sort.Strings(rep.Flagged)
	sort.Strings(rep.Inconclusive)
	sort.Strings(rep.Errored)
}

// deriveLean fills a PoolReport from cluster structure alone: a VM's
// successes are its cluster's size minus itself plus every cluster whose
// representative comparison came back clean, so verdicts cost O(clusters²)
// once plus O(groups) to apply. Clean VMs get no ModuleReport at all, and
// the reports lean mode does build omit the O(pool)-sized Pairs and
// MismatchedVMs lists — alerts, verdicts, and counts are unchanged. Only a
// module with a non-clean group walks the pool, to report its VMs in pool
// order.
func (e *engine) deriveLean(o *outcome, module string) {
	rep := o.rep
	nClusters := len(o.clusters)
	sizes := make([]int, nClusters)
	healthy := 0
	for g, cid := range o.clusterOf {
		if cid >= 0 {
			sizes[cid] += e.grp.size(g)
			healthy += e.grp.size(g)
		}
	}
	rep.Healthy = healthy

	succ := make([]int, nClusters)
	verdicts := make([]Verdict, nClusters)
	for cid := range succ {
		s := sizes[cid] - 1
		for d := 0; d < nClusters; d++ {
			if d != cid && len(o.mismatches(cid, d)) == 0 {
				s += sizes[d]
			}
		}
		succ[cid] = s
		verdicts[cid] = e.c.verdict(s, healthy-1)
	}
	clean := true
	for g, cid := range o.clusterOf {
		if o.errs[g] != nil || verdicts[cid] != VerdictClean {
			clean = false
			break
		}
	}
	if clean {
		return
	}

	for i := range e.grp.n {
		g := e.grp.group(i)
		if err := o.errs[g]; err != nil {
			name := e.pool.Name(i)
			r := &ModuleReport{ModuleName: module, TargetVM: name,
				Verdict: VerdictError, Err: err, ErrClass: faults.Classify(err)}
			r.Pairs = append(r.Pairs, PairResult{PeerVM: name, Err: err, ErrClass: r.ErrClass})
			rep.VMReports = append(rep.VMReports, r)
			rep.Errored = append(rep.Errored, name)
			continue
		}
		cid := o.clusterOf[g]
		v := verdicts[cid]
		if v == VerdictClean {
			continue
		}
		name := e.pool.Name(i)
		r := &ModuleReport{
			ModuleName:  module,
			TargetVM:    name,
			Base:        o.bases[g],
			Successes:   succ[cid],
			Comparisons: healthy - 1,
			Verdict:     v,
		}
		// Component tallies against every other cluster, weighted by
		// cluster size.
		order := append([]string(nil), o.clusters[cid].names...)
		tallies := make(map[string]*ComponentTally, len(order))
		for _, cn := range order {
			tallies[cn] = &ComponentTally{Name: cn, Matches: sizes[cid] - 1}
		}
		for d := 0; d < nClusters; d++ {
			if d == cid {
				continue
			}
			mm := o.mismatches(cid, d)
			if len(mm) == 0 {
				for _, cn := range order {
					tallies[cn].Matches += sizes[d]
				}
				continue
			}
			seen := make(map[string]bool, len(mm))
			for _, cn := range mm {
				seen[cn] = true
				t, ok := tallies[cn]
				if !ok {
					t = &ComponentTally{Name: cn}
					tallies[cn] = t
					order = append(order, cn)
				}
				t.Mismatches += sizes[d]
			}
			for _, cn := range order {
				if !seen[cn] {
					tallies[cn].Matches += sizes[d]
				}
			}
		}
		for _, cn := range order {
			r.Components = append(r.Components, *tallies[cn])
		}
		rep.VMReports = append(rep.VMReports, r)
		switch v {
		case VerdictAltered:
			rep.Flagged = append(rep.Flagged, name)
		case VerdictInconclusive:
			rep.Inconclusive = append(rep.Inconclusive, name)
		}
	}
	sort.Strings(rep.Flagged)
	sort.Strings(rep.Inconclusive)
	sort.Strings(rep.Errored)
}
