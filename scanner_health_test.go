package modchecker

import (
	"testing"
	"unsafe"

	"modchecker/internal/guest"
)

// TestAbortedSweepDoesNotCount is the regression for the sweep-counter bug:
// an aborted sweep (too few eligible VMs) must not advance the completed
// sweep count or the health clock derived from it. It is accounted on the
// scanner/aborted_sweeps counter instead.
func TestAbortedSweepDoesNotCount(t *testing.T) {
	cloud := testCloud(t, 3, 151)
	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	for _, vm := range []string{"Dom2", "Dom3"} {
		if err := cloud.Hypervisor().DestroyDomain(vm); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := sc.Sweep(); err == nil {
			t.Fatalf("attempt %d: sweep with 1 eligible VM did not abort", attempt)
		}
		if sc.Sweeps() != 0 {
			t.Fatalf("attempt %d advanced the sweep counter to %d", attempt, sc.Sweeps())
		}
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/aborted_sweeps"); got != 2 {
		t.Errorf("scanner/aborted_sweeps = %d, want 2", got)
	}
	if got := counterValue(snap, "scanner/sweeps"); got != 0 {
		t.Errorf("scanner/sweeps = %d, want 0", got)
	}
}

// TestAbortedSweepLeavesProbeTimingUnchanged pins the health-clock half of
// the bugfix: a quarantined VM's readmission probe fires after ReadmitAfter
// *completed* sweeps, and an aborted attempt in between must not bring the
// probe forward. It also pins the fresh-quarantine stamp: a failed probe
// restarts the ReadmitAfter timer from the probing sweep, not the original
// quarantine sweep.
func TestAbortedSweepLeavesProbeTimingUnchanged(t *testing.T) {
	cloud := testCloud(t, 4, 157)
	plan := NewFaultPlan(23)
	plan.FailForever("Dom3", 0)
	plan.FailForever("Dom4", 0)
	cloud.InstallFaultPlan(plan)

	// No SetModules: the sweep must discover the module list, so an attempt
	// where every healthy VM's list walk fails aborts at discovery.
	sc := cloud.NewScanner()
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 1, ReadmitAfter: 2})

	// Completed sweep 1: both failing VMs quarantined at sweep 1.
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom3") != HealthQuarantined || rep1.Health.Of("Dom4") != HealthQuarantined {
		t.Fatalf("health after sweep 1 = %v", healthFingerprint(rep1))
	}

	// Force one aborted attempt: a one-read outage on each remaining healthy
	// VM fails both list walks, so discovery finds no reference VM. Each
	// failing walk consumes exactly the one scheduled read, so the windows
	// are exhausted by the abort and the next attempt proceeds normally.
	r1, r2 := plan.Reads("Dom1"), plan.Reads("Dom2")
	plan.FailReads("Dom1", r1, r1+1)
	plan.FailReads("Dom2", r2, r2+1)
	if _, err := sc.Sweep(); err == nil {
		t.Fatal("attempt with all list walks failing did not abort")
	}
	if sc.Sweeps() != 1 {
		t.Fatalf("aborted attempt advanced sweeps to %d", sc.Sweeps())
	}

	// Completed sweep 2: one completed sweep since quarantine — not due yet
	// (ReadmitAfter 2), so both stay skipped. Had the aborted attempt
	// advanced the clock, this sweep would already probe them.
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Sweep != 2 || rep2.VMs != 2 {
		t.Fatalf("sweep 2: Sweep=%d VMs=%d, want 2/2", rep2.Sweep, rep2.VMs)
	}
	if len(rep2.Skipped) != 2 || rep2.Skipped[0] != "Dom3" || rep2.Skipped[1] != "Dom4" {
		t.Fatalf("sweep 2 Skipped = %v, want [Dom3 Dom4] (probe fired early)", rep2.Skipped)
	}

	// Completed sweep 3: two completed sweeps since quarantine — both are
	// probed, both probes fail permanently, and the quarantine stamp is
	// refreshed to sweep 3.
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Skipped) != 0 || rep3.VMs != 4 {
		t.Fatalf("sweep 3: Skipped=%v VMs=%d, want probes for both", rep3.Skipped, rep3.VMs)
	}
	if rep3.Health.Of("Dom3") != HealthQuarantined || rep3.Health.Of("Dom4") != HealthQuarantined {
		t.Fatalf("failed probes did not re-quarantine: %v", healthFingerprint(rep3))
	}

	// Completed sweep 4: only one sweep since the *re*-quarantine, so the
	// probe must not fire. With a stale quarantinedAt (the original sweep 1)
	// it would.
	rep4, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep4.Skipped) != 2 {
		t.Fatalf("sweep 4 Skipped = %v, want [Dom3 Dom4] (stale quarantine stamp)", rep4.Skipped)
	}

	// Completed sweep 5: due again.
	rep5, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep5.Skipped) != 0 {
		t.Fatalf("sweep 5 Skipped = %v, want probes for both", rep5.Skipped)
	}
}

// TestDestroyedDomainAccountedAndReadmitted is the regression for the
// skipped-accounting bug: a destroyed domain is quarantined *and* listed in
// SweepReport.Skipped every sweep it sits out, and a domain re-created under
// the same name re-enters through the normal readmission-probe path.
func TestDestroyedDomainAccountedAndReadmitted(t *testing.T) {
	cloud := testCloud(t, 4, 163)
	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 1, ReadmitAfter: 2})

	if err := cloud.Hypervisor().DestroyDomain("Dom4"); err != nil {
		t.Fatal(err)
	}
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Skipped) != 1 || rep1.Skipped[0] != "Dom4" {
		t.Fatalf("sweep 1 Skipped = %v, want [Dom4]", rep1.Skipped)
	}
	if len(rep1.Quarantined) != 1 || rep1.Quarantined[0] != "Dom4" {
		t.Fatalf("sweep 1 Quarantined = %v, want [Dom4]", rep1.Quarantined)
	}
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Skipped) != 1 || rep2.Skipped[0] != "Dom4" {
		t.Fatalf("sweep 2 Skipped = %v, want [Dom4] (still destroyed)", rep2.Skipped)
	}

	// Re-create Dom4 from the standard disk (a fresh boot seed gives it new
	// load addresses — the situation RVA normalization exists for).
	disk, err := guest.BuildStandardDisk()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Hypervisor().CreateDomain(guest.Config{
		Name: "Dom4", MemBytes: 64 << 20, BootSeed: 9001, Disk: disk,
	}); err != nil {
		t.Fatal(err)
	}

	// Sweep 3: two completed sweeps since quarantine — the probe fires, the
	// fresh Dom4 reads clean, and it is readmitted.
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Readmitted) != 1 || rep3.Readmitted[0] != "Dom4" {
		t.Fatalf("sweep 3 Readmitted = %v, want [Dom4]", rep3.Readmitted)
	}
	if rep3.Health.Of("Dom4") != HealthHealthy || len(rep3.Skipped) != 0 {
		t.Fatalf("sweep 3: health=%v skipped=%v", rep3.Health.Of("Dom4"), rep3.Skipped)
	}
	if !rep3.Clean() {
		t.Errorf("re-created domain raised alerts: %+v / %+v", rep3.Alerts, rep3.Errors)
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/readmissions"); got != 1 {
		t.Errorf("scanner/readmissions = %d, want 1", got)
	}
	if got := counterValue(snap, "scanner/quarantines"); got != 1 {
		t.Errorf("scanner/quarantines = %d, want 1", got)
	}
}

// TestStrikesResetOnCleanSweep pins the consecutive-failure semantics of
// QuarantineAfter: a clean sweep between two failing ones resets the strike
// count, so quarantine requires genuinely consecutive failures.
func TestStrikesResetOnCleanSweep(t *testing.T) {
	cloud := testCloud(t, 3, 167)
	plan := NewFaultPlan(29)
	// Sweep 1 fails Dom3's list walk (one read consumed).
	plan.FailReads("Dom3", 0, 1)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 1})

	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom3") != HealthSuspect {
		t.Fatalf("after failing sweep 1: %v, want suspect", rep1.Health.Of("Dom3"))
	}

	// Sweep 2 is clean: the strike resets.
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Health.Of("Dom3") != HealthHealthy {
		t.Fatalf("after clean sweep 2: %v, want healthy", rep2.Health.Of("Dom3"))
	}

	// Sweeps 3 and 4 fail again. Only the second consecutive failure may
	// quarantine; if strikes survived the clean sweep, sweep 3 would already
	// tip Dom3 over QuarantineAfter=2.
	r := plan.Reads("Dom3")
	plan.FailReads("Dom3", r, r+2)
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Health.Of("Dom3") != HealthSuspect {
		t.Fatalf("after failing sweep 3: %v, want suspect (strikes did not reset)", rep3.Health.Of("Dom3"))
	}
	rep4, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Health.Of("Dom3") != HealthQuarantined {
		t.Fatalf("after failing sweep 4: %v, want quarantined", rep4.Health.Of("Dom3"))
	}
}

// TestHealthDeterministicAcrossRuns: the health machine's outcome — states,
// quarantine lists, readmissions — is identical across two identically
// seeded runs of a faulty scenario, in both sequential and parallel modes.
func TestHealthDeterministicAcrossRuns(t *testing.T) {
	run := func(parallel bool) string {
		var opts []CheckerOption
		if parallel {
			opts = append(opts, WithParallel(), WithRetry(DefaultRetryPolicy()))
		}
		cloud := testCloud(t, 6, 173)
		plan := NewFaultPlan(31)
		plan.FailForever("Dom2", 10)
		plan.FlakyReads("Dom5", 0.05)
		cloud.InstallFaultPlan(plan)
		sc := cloud.NewScanner(opts...)
		sc.SetModules([]string{"hal.dll", "ndis.sys"})
		sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 1})
		var out string
		for i := 0; i < 4; i++ {
			rep, err := sc.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			out += sweepFingerprint(rep) + healthFingerprint(rep) + "\n"
		}
		return out
	}
	for _, parallel := range []bool{false, true} {
		a, b := run(parallel), run(parallel)
		if a != b {
			t.Errorf("parallel=%v: health machine diverges across identically seeded runs:\n--- run 1\n%s--- run 2\n%s",
				parallel, a, b)
		}
	}
}

// TestRosterStateSize pins the scanner roster's per-VM footprint: the
// roster lives as long as the scanner, one entry per VM, so at 100k VMs
// every 8 bytes of vmHealth is 0.8 MB of live heap — more than the dedup
// group map a warm sweep keeps.
func TestRosterStateSize(t *testing.T) {
	if n := unsafe.Sizeof(vmHealth{}); n > 24 {
		t.Errorf("vmHealth is %d bytes, want at most 24", n)
	}
}
