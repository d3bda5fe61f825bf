package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/rootkit"
)

func TestCheckPoolClean(t *testing.T) {
	_, targets := testPool(t, 5)
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 0 || len(rep.Inconclusive) != 0 {
		t.Errorf("flagged=%v inconclusive=%v", rep.Flagged, rep.Inconclusive)
	}
	if rep.Len() != 5 || len(rep.VMReports) != 0 {
		t.Fatalf("%d VMs, %d non-clean reports", rep.Len(), len(rep.VMReports))
	}
	for i := range rep.Len() {
		if r := rep.At(i); r.Verdict != VerdictClean || r.Successes != 4 {
			t.Errorf("%s: %v %d/%d", r.TargetVM, r.Verdict, r.Successes, r.Comparisons)
		}
	}
}

func TestCheckPoolSingleInfection(t *testing.T) {
	guests, targets := testPool(t, 5)
	if err := rootkit.InfectDiskAndReload(guests[3], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != targets[3].Name {
		t.Errorf("flagged = %v", rep.Flagged)
	}
	// Clean VMs lose exactly one pair (the infected peer).
	for i := range rep.Len() {
		r := rep.At(i)
		if r.TargetVM == targets[3].Name {
			continue
		}
		if r.Successes != 3 || r.Verdict != VerdictClean {
			t.Errorf("%s: %d successes, %v", r.TargetVM, r.Successes, r.Verdict)
		}
	}
}

// TestCheckPoolMajorityInfected reproduces the paper's Section III-B
// discussion: when a worm has spread to most VMs, the *clean* copies are
// the minority and get flagged — ModChecker still detects the discrepancy,
// which is what triggers deeper analysis.
func TestCheckPoolMajorityInfected(t *testing.T) {
	guests, targets := testPool(t, 5)
	for i := 0; i < 3; i++ {
		if err := rootkit.InfectDiskAndReload(guests[i], "alpha.sys", func(img []byte) ([]byte, error) {
			out, _, err := rootkit.OpcodeReplace(img)
			return out, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	// The two clean VMs (indexes 3,4) are the minority: flagged.
	if len(rep.Flagged) != 2 {
		t.Fatalf("flagged = %v", rep.Flagged)
	}
	// Discrepancy is visible regardless of which side is flagged: no VM
	// reaches full agreement.
	for i := range rep.Len() {
		if r := rep.At(i); r.Successes == r.Comparisons {
			t.Errorf("%s fully agrees despite split pool", r.TargetVM)
		}
	}
}

// TestCheckPoolSplitBrain: a 50/50 split (2 infected of 4) leaves every VM
// agreeing with only 1 of its 3 peers — everyone is in the minority, so
// everyone is flagged. The discrepancy is maximally visible; operators see
// an obviously inconsistent pool and escalate, per the paper's guidance.
func TestCheckPoolSplitBrain(t *testing.T) {
	guests, targets := testPool(t, 4)
	for i := 0; i < 2; i++ {
		if err := rootkit.InfectDiskAndReload(guests[i], "alpha.sys", func(img []byte) ([]byte, error) {
			out, _, err := rootkit.OpcodeReplace(img)
			return out, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 4 {
		t.Errorf("flagged = %v, want all 4 (no one has a majority of agreement)", rep.Flagged)
	}
}

// TestCheckPoolExactTieInconclusive: with 5 VMs and 2 infected, each clean
// VM agrees with exactly 2 of 4 peers — a tie, so the clean VMs are
// inconclusive while the infected ones (1 of 4 agreeing) are flagged.
func TestCheckPoolExactTieInconclusive(t *testing.T) {
	guests, targets := testPool(t, 5)
	for i := 0; i < 2; i++ {
		if err := rootkit.InfectDiskAndReload(guests[i], "alpha.sys", func(img []byte) ([]byte, error) {
			out, _, err := rootkit.OpcodeReplace(img)
			return out, err
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 2 {
		t.Errorf("flagged = %v, want the 2 infected VMs", rep.Flagged)
	}
	if len(rep.Inconclusive) != 3 {
		t.Errorf("inconclusive = %v, want the 3 clean VMs (tied votes)", rep.Inconclusive)
	}
}

func TestCheckPoolTooSmall(t *testing.T) {
	_, targets := testPool(t, 1)
	if _, err := NewChecker(Config{}).CheckPool("alpha.sys", targets); err == nil {
		t.Error("pool of 1 accepted")
	}
}

func TestCheckPoolModuleMissingOnOneVM(t *testing.T) {
	guests, targets := testPool(t, 4)
	if err := guests[1].UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	// The VM without the module errors out (its own fetch failed, there was
	// nothing to compare); the rest vote normally.
	found := false
	for _, n := range rep.Errored {
		if n == targets[1].Name {
			found = true
		}
	}
	if !found {
		t.Errorf("VM without module not errored: %v", rep.Errored)
	}
	if r := rep.Report(targets[1].Name); r.Verdict != VerdictError || !errors.Is(r.Err, ErrModuleNotFound) {
		t.Errorf("missing-module report: verdict=%v err=%v", r.Verdict, r.Err)
	}
	for i := range rep.Len() {
		r := rep.At(i)
		if r.TargetVM == targets[1].Name {
			continue
		}
		if r.Verdict != VerdictClean || r.Comparisons != 2 {
			t.Errorf("%s: %v with %d comparisons", r.TargetVM, r.Verdict, r.Comparisons)
		}
	}
}

func TestCheckPoolParallelEquivalent(t *testing.T) {
	guests, targets := testPool(t, 6)
	if err := rootkit.InfectDiskAndReload(guests[4], "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
	seq, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewChecker(Config{Parallel: true}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Flagged) != len(par.Flagged) || seq.Flagged[0] != par.Flagged[0] {
		t.Errorf("parallel pool diverges: %v vs %v", seq.Flagged, par.Flagged)
	}
}

func TestPoolReportLookup(t *testing.T) {
	_, targets := testPool(t, 3)
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Report(targets[1].Name) == nil {
		t.Error("Report lookup failed")
	}
	if rep.Report("nope") != nil {
		t.Error("Report found bogus VM")
	}
}

func TestCheckPoolTimingAggregates(t *testing.T) {
	_, targets := testPool(t, 4)
	rep, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timing.Searcher <= 0 || rep.Timing.Checker <= 0 {
		t.Errorf("timing = %+v", rep.Timing)
	}
}

// TestCheckPoolAllFetchesFail: sweeping a module no VM has loaded must not
// flag anyone — with zero successful fetches there are no comparisons, so
// every VM lands in Errored with VerdictError, and the report's timing still
// reflects the (wasted) introspection work rather than panicking or going
// negative.
func TestCheckPoolAllFetchesFail(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		t.Run(name, func(t *testing.T) {
			_, targets := testPool(t, 4)
			rep, err := NewChecker(Config{Parallel: parallel}).CheckPool("ghost.sys", targets)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Flagged) != 0 {
				t.Errorf("flagged = %v, want none (nothing to compare)", rep.Flagged)
			}
			if len(rep.Errored) != len(targets) {
				t.Errorf("errored = %v, want all %d VMs", rep.Errored, len(targets))
			}
			if rep.Healthy != 0 {
				t.Errorf("Healthy = %d, want 0", rep.Healthy)
			}
			if len(rep.VMReports) != len(targets) {
				t.Fatalf("%d VM reports, want %d", len(rep.VMReports), len(targets))
			}
			for _, r := range rep.VMReports {
				if r.Verdict != VerdictError || r.Err == nil {
					t.Errorf("%s: verdict %v (err %v), want Error", r.TargetVM, r.Verdict, r.Err)
				}
				if r.Comparisons != 0 || r.Successes != 0 {
					t.Errorf("%s: %d/%d comparisons despite failed fetch", r.TargetVM, r.Successes, r.Comparisons)
				}
				if pairs := rep.Pairs(r.TargetVM); len(pairs) != 1 || pairs[0].PeerVM != r.TargetVM || pairs[0].Err == nil {
					t.Errorf("%s: pairs = %+v, want a single error entry", r.TargetVM, pairs)
				}
			}
			// The failed walks still cost searcher time; no comparisons ran.
			if rep.Timing.Searcher <= 0 {
				t.Errorf("Timing.Searcher = %v, want > 0 (the walk itself is charged)", rep.Timing.Searcher)
			}
			if rep.Timing.Checker != 0 {
				t.Errorf("Timing.Checker = %v, want 0 (no pairs compared)", rep.Timing.Checker)
			}
			if rep.Elapsed <= 0 || rep.Elapsed < rep.Timing.Searcher && !parallel {
				t.Errorf("Elapsed = %v vs Timing %+v", rep.Elapsed, rep.Timing)
			}
		})
	}
}

// TestLeanDerivationMatchesFull checks the pool report, whose verdicts
// are derived from cluster sizes alone, against the full per-VM check:
// for every VM, At and Pairs must equal CheckModule against every other VM
// in pool order (verdict, counts, base, component tallies and pairs), and
// an errored VM's pairs must be its single self-error entry. VMReports must
// hold exactly the non-clean VMs, in pool order, At must return those
// stored reports, and the report must keep no fetched copy. It runs on
// CheckPool and on sharded and deduplicated NewPoolSweep sessions.
func TestLeanDerivationMatchesFull(t *testing.T) {
	const module = "alpha.sys"
	fail := func(guests []*guest.Guest, targets []Target, vms ...int) {
		p := faults.NewPlan(1)
		for _, i := range vms {
			p.FailForever(guests[i].Name(), 0)
			targets[i] = planTarget(guests[i], p)
		}
	}
	// clones forks six copy-on-write clones of two templates: with
	// DedupIdentical a session fetches one VM per identity group.
	clones := func(t *testing.T) ([]*guest.Guest, []Target) {
		ds := memoFleet(t, 6, testDisk(t), 16<<20)
		guests := make([]*guest.Guest, len(ds))
		for i, d := range ds {
			guests[i] = d.Guest()
		}
		return guests, fleetTargets(ds)
	}
	scenarios := []struct {
		name string
		cfg  Config
		// pool boots the VMs; nil: five guests from testPool.
		pool    func(t *testing.T) ([]*guest.Guest, []Target)
		prepare func(t *testing.T, guests []*guest.Guest, targets []Target)
		// session checks through a NewPoolSweep session instead of CheckPool.
		session                        bool
		flagged, inconclusive, errored int
		// peerOnly names a component the flagged VM's copy lacks but its
		// peers carry.
		peerOnly string
	}{
		{name: "clean"},
		{name: "one-infected", prepare: func(t *testing.T, g []*guest.Guest, _ []Target) { infectOn(t, g[3]) },
			flagged: 1},
		// 2 of 5 infected: each clean VM matches 2 of 4 peers, a tie.
		{name: "split-vote", prepare: func(t *testing.T, g []*guest.Guest, _ []Target) { infectOn(t, g[0]); infectOn(t, g[1]) },
			flagged: 2, inconclusive: 3},
		{name: "quorum-degraded", cfg: Config{Quorum: QuorumPolicy{MinPeers: 3}},
			prepare:      func(_ *testing.T, g []*guest.Guest, ts []Target) { fail(g, ts, 3, 4) },
			inconclusive: 3, errored: 2},
		{name: "fetch-faulted", prepare: func(_ *testing.T, g []*guest.Guest, ts []Target) { fail(g, ts, 1) },
			errored: 1},
		{name: "all-errored", prepare: func(_ *testing.T, g []*guest.Guest, ts []Target) { fail(g, ts, 0, 1, 2, 3, 4) },
			errored: 5},
		// Built without imports, vm3's copy has no INIT section.
		{name: "peer-only-component", prepare: func(t *testing.T, g []*guest.Guest, _ []Target) {
			if err := rootkit.InfectDiskAndReload(g[2], module, func([]byte) ([]byte, error) {
				return guest.BuildImage(guest.ModuleSpec{Name: module, TextSize: 16 << 10, DataSize: 4 << 10,
					RdataSize: 2 << 10, PreferredBase: 0x10000, Marker: true})
			}); err != nil {
				t.Fatal(err)
			}
		}, flagged: 1, peerOnly: "INIT"},
		{name: "full-pairwise", cfg: Config{FullPairwise: true},
			prepare: func(t *testing.T, g []*guest.Guest, _ []Target) { infectOn(t, g[3]) }, flagged: 1},
		{name: "sharded-session", cfg: Config{ShardSize: 2}, session: true,
			prepare: func(t *testing.T, g []*guest.Guest, _ []Target) { infectOn(t, g[4]) }, flagged: 1},
		{name: "dedup-session", cfg: Config{DedupIdentical: true}, session: true, pool: clones,
			prepare: func(t *testing.T, g []*guest.Guest, _ []Target) { infectOn(t, g[2]) }, flagged: 1},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			pool := sc.pool
			if pool == nil {
				pool = func(t *testing.T) ([]*guest.Guest, []Target) { return testPool(t, 5) }
			}
			guests, targets := pool(t)
			if sc.prepare != nil {
				sc.prepare(t, guests, targets)
			}
			c := NewChecker(sc.cfg)
			var rep *PoolReport
			if sc.session {
				ps, err := c.NewPoolSweep(targets)
				if err != nil {
					t.Fatal(err)
				}
				defer ps.Close()
				rep = ps.CheckModule(module)
				if sc.cfg.DedupIdentical && ps.grp.count() == len(targets) {
					t.Fatal("dedup session formed no identity group")
				}
			} else {
				var err error
				if rep, err = c.CheckPool(module, targets); err != nil {
					t.Fatal(err)
				}
			}
			if len(rep.Flagged) != sc.flagged || len(rep.Inconclusive) != sc.inconclusive || len(rep.Errored) != sc.errored {
				t.Fatalf("scenario yields flagged=%v inconclusive=%v errored=%v, want %d/%d/%d",
					rep.Flagged, rep.Inconclusive, rep.Errored, sc.flagged, sc.inconclusive, sc.errored)
			}
			if rep.Len() != len(targets) {
				t.Fatalf("report covers %d VMs, want %d", rep.Len(), len(targets))
			}
			for cid, cl := range rep.out.clusters {
				if cl.f != nil {
					t.Errorf("cluster %d still holds a fetched copy after the check", cid)
				}
			}
			nonClean := 0
			for i, tg := range targets {
				r := rep.At(i)
				if r.TargetVM != tg.Name || !reflect.DeepEqual(rep.Report(tg.Name), r) {
					t.Fatalf("At(%d) is %s's report, Report(%s) %+v", i, r.TargetVM, tg.Name, rep.Report(tg.Name))
				}
				if r.Verdict != VerdictClean {
					if nonClean >= len(rep.VMReports) || rep.VMReports[nonClean] != r {
						t.Errorf("%s: At does not return the stored non-clean report %d", tg.Name, nonClean)
					}
					nonClean++
				}
				pairs := rep.Pairs(tg.Name)
				if r.Verdict == VerdictError {
					want := []PairResult{{PeerVM: tg.Name, Err: r.Err, ErrClass: r.ErrClass}}
					if r.Err == nil || !reflect.DeepEqual(pairs, want) {
						t.Errorf("%s: errored with %v, pairs %+v; want one self-error entry", tg.Name, r.Err, pairs)
					}
					continue
				}
				peers := append(slices.Clone(targets[:i]), targets[i+1:]...)
				want, err := NewChecker(sc.cfg).CheckModule(module, tg, peers)
				if err != nil {
					t.Fatal(err)
				}
				if r.Verdict != want.Verdict || r.Successes != want.Successes || r.Comparisons != want.Comparisons ||
					r.Base != want.Base || r.Err != nil || !reflect.DeepEqual(r.Components, want.Components) {
					t.Errorf("%s: pool report\n%+v\nCheckModule\n%+v", tg.Name, r, want)
				}
				if len(pairs) != len(want.Pairs) {
					t.Fatalf("%s: %d pairs, CheckModule %d", tg.Name, len(pairs), len(want.Pairs))
				}
				for k, p := range pairs {
					w := want.Pairs[k]
					if p.PeerVM != w.PeerVM || p.Match != w.Match || !slices.Equal(p.MismatchedComponents, w.MismatchedComponents) ||
						(p.Err == nil) != (w.Err == nil) || p.ErrClass != w.ErrClass {
						t.Errorf("%s: pair %+v, CheckModule %+v", tg.Name, p, w)
					}
				}
				if sc.peerOnly != "" && r.Verdict == VerdictAltered && !slices.Contains(r.MismatchedComponents(), sc.peerOnly) {
					t.Errorf("%s: mismatched %v, want the peer-only %s", tg.Name, r.MismatchedComponents(), sc.peerOnly)
				}
			}
			if nonClean != len(rep.VMReports) {
				t.Errorf("%d stored reports, want one per non-clean VM (%d)", len(rep.VMReports), nonClean)
			}
		})
	}
}
