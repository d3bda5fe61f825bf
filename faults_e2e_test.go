package modchecker

import (
	"fmt"
	"strings"
	"testing"
)

// TestSweepIsolatesUnloadableModule is the regression for the old behavior
// where one failing CheckPool aborted the whole sweep: a module no VM can
// produce lands in SweepReport.Errors, every other module is still checked,
// and no VM takes a health strike for it.
func TestSweepIsolatesUnloadableModule(t *testing.T) {
	cloud := testCloud(t, 4, 101)
	for _, g := range cloud.Guests() {
		if err := g.UnloadModule("dummy.sys"); err != nil {
			t.Fatal(err)
		}
	}
	sc := cloud.NewScanner()
	sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatalf("sweep aborted on unloadable module: %v", err)
	}
	if rep.ModulesChecked != 2 {
		t.Errorf("ModulesChecked = %d, want 2 (hal.dll, ndis.sys)", rep.ModulesChecked)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Module != "dummy.sys" {
		t.Fatalf("Errors = %+v, want one entry for dummy.sys", rep.Errors)
	}
	if len(rep.Alerts) != 0 {
		t.Errorf("alerts = %+v, want none (module-level failure, not VM-level)", rep.Alerts)
	}
	for k := range rep.Health.Len() {
		if vm, st := rep.Health.At(k); st != HealthHealthy {
			t.Errorf("%s = %v after a module-level failure, want healthy", vm, st)
		}
	}
}

// TestSweepReportsMissingModuleOnOneVM: a module absent from one VM produces
// a VerdictError alert for that VM, with the reason surfaced, while the
// remaining VMs vote normally.
func TestSweepReportsMissingModuleOnOneVM(t *testing.T) {
	cloud := testCloud(t, 4, 103)
	if err := cloud.Guest("Dom2").UnloadModule("dummy.sys"); err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner()
	sc.SetModules([]string{"dummy.sys"})
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Alerts) != 1 {
		t.Fatalf("alerts = %+v, want exactly one", rep.Alerts)
	}
	a := rep.Alerts[0]
	if a.VM != "Dom2" || a.Verdict != VerdictError {
		t.Errorf("alert = %+v", a)
	}
	if !strings.Contains(a.Reason, "not loaded") {
		t.Errorf("reason %q does not explain the missing module", a.Reason)
	}
}

// TestSweepSurvivesDestroyedDomain: destroying a domain between sweeps
// quarantines it immediately (nothing left to check) and the sweep proceeds
// over the survivors.
func TestSweepSurvivesDestroyedDomain(t *testing.T) {
	cloud := testCloud(t, 4, 107)
	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	if err := cloud.Hypervisor().DestroyDomain("Dom3"); err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.VMs != 3 {
		t.Errorf("VMs = %d, want 3 eligible", rep.VMs)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "Dom3" {
		t.Errorf("Quarantined = %v, want [Dom3]", rep.Quarantined)
	}
	if len(rep.Alerts) != 0 {
		t.Errorf("alerts = %+v", rep.Alerts)
	}
}

// TestFaultPlanLifecycleEvents: a scheduled destroy fires mid-sweep through
// the plan's hypervisor hook; the pool isolates the dead VM (permanent
// fault) and the next sweep quarantines it. A scheduled pause simply leaves
// the domain descheduled — its memory stays readable, as on real Xen.
func TestFaultPlanLifecycleEvents(t *testing.T) {
	cloud := testCloud(t, 4, 109)
	plan := NewFaultPlan(11)
	plan.DestroyAt("Dom2", 5)
	plan.PauseAt("Dom4", 3)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Domain("Dom2") != nil {
		t.Fatal("scheduled destroy did not reach the hypervisor")
	}
	var dom2 *Alert
	for i := range rep.Alerts {
		if rep.Alerts[i].VM == "Dom2" {
			dom2 = &rep.Alerts[i]
		}
	}
	if dom2 == nil || dom2.Verdict != VerdictError {
		t.Fatalf("destroyed VM alert = %+v", dom2)
	}
	if !strings.Contains(dom2.Reason, "permanent") {
		t.Errorf("reason %q not classified permanent", dom2.Reason)
	}
	if d := cloud.Domain("Dom4"); d == nil || !d.Paused() {
		t.Error("scheduled pause did not reach the scheduler")
	}
	// Healthy VMs still produced a verdict.
	if rep.ModulesChecked != 1 {
		t.Errorf("ModulesChecked = %d", rep.ModulesChecked)
	}

	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 1 || rep2.Quarantined[0] != "Dom2" {
		t.Errorf("sweep 2 Quarantined = %v, want [Dom2]", rep2.Quarantined)
	}
	if rep2.VMs != 3 {
		t.Errorf("sweep 2 VMs = %d, want 3", rep2.VMs)
	}
}

// TestScannerQuarantineAndReadmission walks the full health machine on a
// transiently failing VM: suspect after one failing sweep, quarantined after
// the second, a failed probe stays quarantined, and a succeeding probe
// readmits.
func TestScannerQuarantineAndReadmission(t *testing.T) {
	cloud := testCloud(t, 4, 113)
	plan := NewFaultPlan(13)
	// Dom4 fails its first 3 reads. With one module per sweep and no
	// retries, each failing sweep consumes one read; the probe in sweep 4
	// lands past the window and succeeds.
	plan.FailReads("Dom4", 0, 3)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 1})

	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom4") != HealthSuspect {
		t.Errorf("after sweep 1: %v, want suspect", rep1.Health.Of("Dom4"))
	}
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Health.Of("Dom4") != HealthQuarantined {
		t.Errorf("after sweep 2: %v, want quarantined", rep2.Health.Of("Dom4"))
	}
	// Sweep 3 probes (1 sweep elapsed >= ReadmitAfter); read index 2 is
	// still inside the window, so the probe fails and Dom4 stays put.
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Health.Of("Dom4") != HealthQuarantined || len(rep3.Readmitted) != 0 {
		t.Errorf("after failed probe: %v readmitted=%v", rep3.Health.Of("Dom4"), rep3.Readmitted)
	}
	// Sweep 4 probes again; the window is exhausted and Dom4 comes back.
	rep4, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Health.Of("Dom4") != HealthHealthy {
		t.Errorf("after succeeding probe: %v, want healthy", rep4.Health.Of("Dom4"))
	}
	if len(rep4.Readmitted) != 1 || rep4.Readmitted[0] != "Dom4" {
		t.Errorf("Readmitted = %v, want [Dom4]", rep4.Readmitted)
	}
	if !rep4.Clean() {
		t.Errorf("sweep 4 not clean: %+v / %+v", rep4.Alerts, rep4.Errors)
	}
}

// sweepFingerprint serializes the determinism-relevant content of a sweep.
func sweepFingerprint(rep *SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep=%d mods=%d vms=%d\n", rep.Sweep, rep.ModulesChecked, rep.VMs)
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "alert %s %s %v %v %s\n", a.Module, a.VM, a.Verdict, a.Components, a.Reason)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(&b, "err %s %v\n", e.Module, e.Err)
	}
	fmt.Fprintf(&b, "q=%v r=%v s=%v\n", rep.Quarantined, rep.Readmitted, rep.Skipped)
	return b.String()
}

// runFaultScenario executes the acceptance scenario on a fresh cloud: 15
// VMs, transient faults on three of them (one recovered within the sweep by
// retries, one flaky, one spanning sweeps), one VM failing permanently.
func runFaultScenario(t *testing.T, seed int64) []string {
	t.Helper()
	cloud := testCloud(t, 15, 42)
	plan := NewFaultPlan(seed)
	// Dom3: a 2-read outage the 3-attempt retry budget crosses within one
	// fetch — recovers to a conclusive verdict in sweep 1.
	plan.FailReads("Dom3", 0, 2)
	// Dom5: seeded flakiness.
	plan.FlakyReads("Dom5", 0.02)
	// Dom7: an outage wide enough to span sweeps (3 failing reads per
	// sweep), recovered by a later readmission probe.
	plan.FailReads("Dom7", 0, 8)
	// Dom9: gone for good.
	plan.FailForever("Dom9", 0)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner(WithRetry(DefaultRetryPolicy()))
	sc.SetModules([]string{"hal.dll"})
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 1})

	faulty := map[string]bool{"Dom3": true, "Dom5": true, "Dom7": true, "Dom9": true}
	var prints []string
	for sweep := 1; sweep <= 4; sweep++ {
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		for _, a := range rep.Alerts {
			if !faulty[a.VM] {
				t.Errorf("sweep %d: healthy VM %s alerted: %+v", sweep, a.VM, a)
			}
			if a.Verdict == VerdictAltered {
				t.Errorf("sweep %d: fault misread as infection on %s", sweep, a.VM)
			}
		}
		if sweep == 1 {
			for _, a := range rep.Alerts {
				if a.VM == "Dom3" {
					t.Errorf("sweep 1: Dom3 alerted despite retry recovery: %+v", a)
				}
			}
		}
		prints = append(prints, sweepFingerprint(rep))
	}
	// The permanently failing VM must be quarantined by the end.
	if sc.Health("Dom9") != HealthQuarantined {
		t.Errorf("Dom9 = %v after 4 sweeps, want quarantined", sc.Health("Dom9"))
	}
	// The sweep-spanning transient VM must have made it back.
	if sc.Health("Dom7") != HealthHealthy {
		t.Errorf("Dom7 = %v after 4 sweeps, want healthy (readmitted)", sc.Health("Dom7"))
	}
	return prints
}

// TestFaultScenarioEndToEnd is the PR's acceptance scenario, and
// TestFaultScenarioDeterministic pins that two runs from the same seed
// produce byte-identical findings.
func TestFaultScenarioEndToEnd(t *testing.T) {
	a := runFaultScenario(t, 1234)
	b := runFaultScenario(t, 1234)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sweep %d diverges across identically seeded runs:\n--- run 1\n%s--- run 2\n%s",
				i+1, a[i], b[i])
		}
	}
}

// TestCheckPoolThroughFaultPlan pins the root API path: a cloud-level pool
// check over an installed plan classifies the failing VM and leaves the
// healthy majority conclusive.
func TestCheckPoolThroughFaultPlan(t *testing.T) {
	cloud := testCloud(t, 5, 127)
	plan := NewFaultPlan(17)
	plan.FailForever("Dom2", 0)
	cloud.InstallFaultPlan(plan)
	rep, err := cloud.NewChecker().CheckPool("hal.dll")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errored) != 1 || rep.Errored[0] != "Dom2" {
		t.Fatalf("Errored = %v", rep.Errored)
	}
	r := rep.Report("Dom2")
	if r.Verdict != VerdictError || r.ErrClass != FaultPermanent {
		t.Errorf("Dom2: verdict=%v class=%v", r.Verdict, r.ErrClass)
	}
	if r.Err == nil {
		t.Error("Dom2 report carries no error")
	}
	if rep.Healthy != 4 || len(rep.Flagged) != 0 {
		t.Errorf("healthy=%d flagged=%v", rep.Healthy, rep.Flagged)
	}
}
