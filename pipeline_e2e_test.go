package modchecker

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"modchecker/internal/report"
)

// poolFingerprint serializes everything the clustered and full-pairwise
// comparison stages must agree on — verdicts, flags, pairs, per-component
// tallies — and nothing timing-dependent.
func poolFingerprint(rep *PoolReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module=%s healthy=%d flagged=%v inconclusive=%v errored=%v\n",
		rep.ModuleName, rep.Healthy, rep.Flagged, rep.Inconclusive, rep.Errored)
	for i := range rep.Len() {
		r := rep.At(i)
		fmt.Fprintf(&b, "vm=%s verdict=%v succ=%d comp=%d errclass=%v err=%v\n",
			r.TargetVM, r.Verdict, r.Successes, r.Comparisons, r.ErrClass, r.Err != nil)
		for _, p := range rep.Pairs(r.TargetVM) {
			fmt.Fprintf(&b, "  pair peer=%s match=%v mm=%v errclass=%v\n",
				p.PeerVM, p.Match, p.MismatchedComponents, p.ErrClass)
		}
		for _, c := range r.Components {
			fmt.Fprintf(&b, "  comp %s matches=%d mismatches=%d\n",
				c.Name, c.Matches, c.Mismatches)
		}
	}
	return b.String()
}

// infectedCloud builds the paper's 15-VM pool with all four evaluation
// infections (E1–E4), each on a different VM and module.
func infectedCloud(t *testing.T, seed int64) *Cloud {
	t.Helper()
	cloud := testCloud(t, 15, seed)
	if err := InfectOpcode(cloud, "Dom3", "hal.dll"); err != nil {
		t.Fatal(err)
	}
	if err := InfectInlineHookLive(cloud, "Dom6", "tcpip.sys"); err != nil {
		t.Fatal(err)
	}
	if err := InfectStubPatch(cloud, "Dom9", "dummy.sys", "DOS", "CHK"); err != nil {
		t.Fatal(err)
	}
	if err := InfectDLLHook(cloud, "Dom12", "ndis.sys", "inject.dll", "callMessageBox"); err != nil {
		t.Fatal(err)
	}
	return cloud
}

// TestClusteredMatchesPairwiseInfected is the acceptance differential: on a
// 15-VM pool carrying all four of the paper's infections, the digest
// pre-clustering path must produce reports identical to the legacy O(n²)
// full-pairwise path for every module — clean and infected alike.
func TestClusteredMatchesPairwiseInfected(t *testing.T) {
	// Two identically seeded, identically infected clouds: one per path, so
	// neither run's handle state can influence the other.
	clustered := infectedCloud(t, 42)
	pairwise := infectedCloud(t, 42)

	mods, err := clustered.NewChecker().ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	infected := map[string]string{
		"hal.dll": "Dom3", "tcpip.sys": "Dom6", "dummy.sys": "Dom9", "ndis.sys": "Dom12",
	}
	for _, m := range mods {
		a, err := clustered.NewChecker().CheckPool(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pairwise.NewChecker(WithFullPairwise()).CheckPool(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := poolFingerprint(a), poolFingerprint(b); got != want {
			t.Errorf("%s: clustered diverges from pairwise:\n--- clustered\n%s--- pairwise\n%s",
				m.Name, got, want)
		}
		if vm, ok := infected[m.Name]; ok {
			if len(a.Flagged) != 1 || a.Flagged[0] != vm {
				t.Errorf("%s: Flagged = %v, want [%s]", m.Name, a.Flagged, vm)
			}
		} else if len(a.Flagged) != 0 {
			t.Errorf("%s: clean module flagged %v", m.Name, a.Flagged)
		}
	}
}

// TestClusteredMatchesPairwiseUnderFaults runs the differential through a
// fault plan: transient outages crossed by retries, a permanently dead VM.
// Each path gets a fresh identically seeded cloud and plan, because fault
// schedules are stateful read-index counters.
func TestClusteredMatchesPairwiseUnderFaults(t *testing.T) {
	run := func(full bool) string {
		cloud := testCloud(t, 15, 42)
		plan := NewFaultPlan(1234)
		plan.FailReads("Dom3", 0, 2)
		plan.FailForever("Dom9", 0)
		cloud.InstallFaultPlan(plan)
		opts := []CheckerOption{WithRetry(DefaultRetryPolicy())}
		if full {
			opts = append(opts, WithFullPairwise())
		}
		rep, err := cloud.NewChecker(opts...).CheckPool("hal.dll")
		if err != nil {
			t.Fatal(err)
		}
		return poolFingerprint(rep)
	}
	a, b := run(false), run(true)
	if a != b {
		t.Errorf("fault differential diverges:\n--- clustered\n%s--- pairwise\n%s", a, b)
	}
	if !strings.Contains(a, "errored=[Dom9]") {
		t.Errorf("Dom9 not errored:\n%s", a)
	}
}

// TestParallelSweepDeterministic pins the PR's determinism criterion: two
// sweeps from one seed under the parallel pipeline produce byte-identical
// PoolReport JSON for every module.
func TestParallelSweepDeterministic(t *testing.T) {
	run := func() []string {
		cloud := testCloud(t, 15, 42)
		if err := InfectOpcode(cloud, "Dom7", "hal.dll"); err != nil {
			t.Fatal(err)
		}
		sweep, err := cloud.NewChecker(WithParallel()).NewPoolSweep()
		if err != nil {
			t.Fatal(err)
		}
		mods, err := sweep.Modules()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, rep := range sweep.CheckModules(mods) {
			var buf bytes.Buffer
			if err := report.WritePoolJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs produced %d vs %d reports", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("report %d differs across identically seeded parallel runs:\n--- run 1\n%s--- run 2\n%s",
				i, a[i], b[i])
		}
	}
	flagged := 0
	for _, j := range a {
		if strings.Contains(j, "Dom7") && strings.Contains(j, "ALTERED") {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("infected Dom7 never flagged in the sweep output")
	}
}

// TestParallelMatchesSequentialSweep pins that the parallel pipeline changes
// only timing, never findings.
func TestParallelMatchesSequentialSweep(t *testing.T) {
	run := func(opts ...CheckerOption) []string {
		cloud := testCloud(t, 8, 99)
		sweep, err := cloud.NewChecker(opts...).NewPoolSweep()
		if err != nil {
			t.Fatal(err)
		}
		mods, err := sweep.Modules()
		if err != nil {
			t.Fatal(err)
		}
		var sigs []string
		for _, rep := range sweep.CheckModules(mods) {
			sigs = append(sigs, poolFingerprint(rep))
		}
		return sigs
	}
	seq := run()
	par := run(WithParallel())
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("module %d: parallel sweep diverges from sequential:\n--- seq\n%s--- par\n%s",
				i, seq[i], par[i])
		}
	}
}

// TestScannerObservesModuleLoadedBetweenSweeps pins the module-table
// snapshot's freshness contract: the snapshot lives for one sweep, so a
// module loaded into the guests after sweep N is discovered by sweep N+1.
func TestScannerObservesModuleLoadedBetweenSweeps(t *testing.T) {
	cloud := testCloud(t, 4, 7)
	for _, g := range cloud.Guests() {
		if err := g.UnloadModule("dummy.sys"); err != nil {
			t.Fatal(err)
		}
	}
	sc := cloud.NewScanner()
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Clean() {
		t.Fatalf("sweep 1 not clean: %+v", rep1)
	}
	for _, g := range cloud.Guests() {
		if _, err := g.LoadModule("dummy.sys"); err != nil {
			t.Fatal(err)
		}
	}
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("sweep 2 not clean: %+v", rep2)
	}
	if rep2.ModulesChecked != rep1.ModulesChecked+1 {
		t.Errorf("sweep 2 checked %d modules, sweep 1 checked %d — newly loaded module not observed",
			rep2.ModulesChecked, rep1.ModulesChecked)
	}
}

// TestRevertInvalidatesTranslationCache pins the facade wiring: a snapshot
// revert bumps the domain's mapping epoch, so a previously warm handle pays
// fresh page-table walks afterwards.
func TestRevertInvalidatesTranslationCache(t *testing.T) {
	cloud := testCloud(t, 2, 11)
	h, err := cloud.OpenVMI("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	base := cloud.Guest("Dom1").Module("hal.dll").Base
	buf := make([]byte, 64)
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	warm := h.Stats()
	if warm.TLBHits == 0 {
		t.Fatalf("no TLB hit on repeat read: %+v", warm)
	}
	d := cloud.Domain("Dom1")
	if err := d.TakeSnapshot("pre"); err != nil {
		t.Fatal(err)
	}
	if err := d.Revert("pre"); err != nil {
		t.Fatal(err)
	}
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	after := h.Stats()
	if after.PTWalks != warm.PTWalks+1 {
		t.Errorf("post-revert read did not re-walk: before %+v, after %+v", warm, after)
	}
}

// TestNoTranslationCacheCloud pins the benchmark baseline switch: a cloud
// built with NoTranslationCache pays a page-table walk per translation.
func TestNoTranslationCacheCloud(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 2, Seed: 11, NoTranslationCache: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cloud.OpenVMI("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	base := cloud.Guest("Dom1").Module("hal.dll").Base
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if err := h.ReadVA(base, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := h.Stats()
	if s.PTWalks != 3 || s.TLBHits != 0 {
		t.Errorf("uncached cloud handle: %+v, want 3 walks / 0 hits", s)
	}
	if agg := cloud.IntrospectionStats(); agg.PTWalks != 3 {
		t.Errorf("cloud aggregate stats: %+v", agg)
	}
}
