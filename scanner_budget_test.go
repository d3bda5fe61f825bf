package modchecker

import (
	"testing"
	"time"
)

// TestSweepBudgetPartialAndResume pins the checkpoint/resume contract: a
// sweep that exhausts its budget mid-flight returns a well-formed partial
// report (not an error), the next sweep finishes exactly the remainder, and
// no module is ever checked twice across the cut/resume pair.
func TestSweepBudgetPartialAndResume(t *testing.T) {
	cloud := testCloud(t, 4, 211)
	sc := cloud.NewScanner()

	// Sweep 1, unbudgeted: measure a full sweep's modeled spend.
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	total := rep1.ModulesChecked
	if total < 3 {
		t.Fatalf("need several modules to cut, have %d", total)
	}

	// Sweep 2: budget for the list walk plus about half the module work.
	work := rep1.Timing.Fetch + rep1.Timing.Digest + rep1.Timing.Compare
	sc.SetBudget(BudgetPolicy{SweepBudget: rep1.Timing.List + work/2})
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Partial || rep2.Resumed {
		t.Fatalf("budgeted sweep: Partial=%v Resumed=%v", rep2.Partial, rep2.Resumed)
	}
	if rep2.Clean() {
		t.Error("a partial sweep must not report clean")
	}
	if rep2.ModulesChecked < 1 || len(rep2.Remaining) < 1 {
		t.Fatalf("checked=%d remaining=%v — expected a mid-sweep cut", rep2.ModulesChecked, rep2.Remaining)
	}
	if rep2.ModulesChecked+len(rep2.Remaining) != total {
		t.Errorf("checked %d + remaining %d != %d modules", rep2.ModulesChecked, len(rep2.Remaining), total)
	}
	cp := sc.Checkpoint()
	if len(cp) != len(rep2.Remaining) {
		t.Errorf("Checkpoint() = %v, want %v", cp, rep2.Remaining)
	}

	// Sweep 3, disarmed: resumes the checkpoint and checks exactly the
	// remainder — checkpointed work is never re-charged.
	sc.SetBudget(BudgetPolicy{})
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Resumed || rep3.Partial {
		t.Fatalf("resumed sweep: Resumed=%v Partial=%v", rep3.Resumed, rep3.Partial)
	}
	if rep3.ModulesChecked != len(rep2.Remaining) {
		t.Errorf("resumed sweep checked %d modules, want exactly the %d deferred",
			rep3.ModulesChecked, len(rep2.Remaining))
	}
	if rep2.ModulesChecked+rep3.ModulesChecked != total {
		t.Errorf("cut+resume checked %d modules total, want %d (a module was re-checked or dropped)",
			rep2.ModulesChecked+rep3.ModulesChecked, total)
	}
	if !rep3.Clean() {
		t.Errorf("resumed sweep not clean: %+v / %+v", rep3.Alerts, rep3.Errors)
	}
	if sc.Checkpoint() != nil {
		t.Errorf("checkpoint survived a completed resume: %v", sc.Checkpoint())
	}

	// Sweep 4: full coverage is restored.
	rep4, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep4.Resumed || rep4.ModulesChecked != total {
		t.Errorf("post-resume sweep: Resumed=%v checked=%d, want full %d", rep4.Resumed, rep4.ModulesChecked, total)
	}

	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/resumed_sweeps"); got != 1 {
		t.Errorf("scanner/resumed_sweeps = %d, want 1", got)
	}
	if got := counterValue(snap, "scanner/budget_deferred_modules"); got != uint64(len(rep2.Remaining)) {
		t.Errorf("scanner/budget_deferred_modules = %d, want %d", got, len(rep2.Remaining))
	}
}

// TestSweepBudgetZeroCoverageFreezesHealth: a sweep whose budget dies before
// any module proves nothing, so the health machine must not move — in
// particular a readmission probe must not succeed on zero evidence.
func TestSweepBudgetZeroCoverageFreezesHealth(t *testing.T) {
	cloud := testCloud(t, 4, 223)
	plan := NewFaultPlan(37)
	plan.FailForever("Dom3", 0)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 1, ReadmitAfter: 1})

	// Sweep 1: Dom3 fails and is quarantined.
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom3") != HealthQuarantined {
		t.Fatalf("sweep 1 health = %v", healthFingerprint(rep1))
	}

	// Sweep 2 is due to probe Dom3, but a 1ns budget kills coverage before
	// the first module: the probe must not readmit on zero evidence.
	sc.SetBudget(BudgetPolicy{SweepBudget: time.Nanosecond})
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ModulesChecked != 0 || !rep2.Partial || len(rep2.Remaining) != 1 {
		t.Fatalf("zero-coverage sweep: checked=%d partial=%v remaining=%v",
			rep2.ModulesChecked, rep2.Partial, rep2.Remaining)
	}
	if rep2.Clean() {
		t.Error("a sweep that checked nothing must not report clean")
	}
	if len(rep2.Readmitted) != 0 || rep2.Health.Of("Dom3") != HealthQuarantined {
		t.Errorf("zero-coverage sweep moved the health machine: readmitted=%v health=%v",
			rep2.Readmitted, healthFingerprint(rep2))
	}

	// Faults clear; the disarmed sweep resumes the checkpoint, the probe
	// re-fires, and Dom3 is readmitted on real evidence.
	plan.Quiesce()
	sc.SetBudget(BudgetPolicy{})
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Resumed || rep3.ModulesChecked != 1 {
		t.Fatalf("resume sweep: Resumed=%v checked=%d", rep3.Resumed, rep3.ModulesChecked)
	}
	if len(rep3.Readmitted) != 1 || rep3.Readmitted[0] != "Dom3" {
		t.Errorf("sweep 3 Readmitted = %v, want [Dom3]", rep3.Readmitted)
	}
}

// TestVMBudgetSkipsWithoutStrikes: VMs dropped by the per-VM budget are
// surfaced in BudgetExceeded but accrue no alerts and no health strikes —
// running out of time is not a failure.
func TestVMBudgetSkipsWithoutStrikes(t *testing.T) {
	cloud := testCloud(t, 3, 227)
	sc := cloud.NewScanner()
	sc.SetBudget(BudgetPolicy{VMBudget: time.Nanosecond})

	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	// The first module always runs (spend starts at zero); everything after
	// finds every VM over budget and defers to the checkpoint.
	if rep.ModulesChecked != 1 {
		t.Fatalf("checked %d modules, want 1", rep.ModulesChecked)
	}
	if !rep.Partial || len(rep.Remaining) == 0 {
		t.Fatalf("Partial=%v Remaining=%v", rep.Partial, rep.Remaining)
	}
	if len(rep.Alerts) != 0 {
		t.Errorf("budget skips raised alerts: %+v", rep.Alerts)
	}
	want := []string{"Dom1", "Dom2", "Dom3"}
	if len(rep.BudgetExceeded) != len(want) {
		t.Fatalf("BudgetExceeded = %v, want %v", rep.BudgetExceeded, want)
	}
	for i, vm := range want {
		if rep.BudgetExceeded[i] != vm {
			t.Fatalf("BudgetExceeded = %v, want %v", rep.BudgetExceeded, want)
		}
		if rep.Health.Of(vm) != HealthHealthy {
			t.Errorf("%s = %v after budget skip, want healthy", vm, rep.Health.Of(vm))
		}
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/vm_budget_skips"); got != 3 {
		t.Errorf("scanner/vm_budget_skips = %d, want 3", got)
	}

	// Disarmed resume completes the remainder.
	sc.SetBudget(BudgetPolicy{})
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Resumed || rep2.ModulesChecked != len(rep.Remaining) {
		t.Errorf("resume: Resumed=%v checked=%d want %d", rep2.Resumed, rep2.ModulesChecked, len(rep.Remaining))
	}
}

// TestBreakerTripsOnPermanentReadFailures: consecutive permanent-class read
// failures open the circuit breaker well before the (slower) strike
// threshold, and one clean readmission probe closes it again.
func TestBreakerTripsOnPermanentReadFailures(t *testing.T) {
	cloud := testCloud(t, 4, 229)
	plan := NewFaultPlan(41)
	plan.FailForever("Dom3", 0)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	// Strikes alone would need 5 failing sweeps; the breaker takes 2.
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 5, ReadmitAfter: 2})
	sc.SetBreakerPolicy(BreakerPolicy{TripAfter: 2})

	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom3") != HealthSuspect || len(rep1.BreakerOpen) != 0 {
		t.Fatalf("sweep 1: health=%v breaker=%v", rep1.Health.Of("Dom3"), rep1.BreakerOpen)
	}

	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Health.Of("Dom3") != HealthQuarantined {
		t.Fatalf("second permanent failure did not trip the breaker: %v", healthFingerprint(rep2))
	}
	if len(rep2.BreakerOpen) != 1 || rep2.BreakerOpen[0] != "Dom3" {
		t.Fatalf("sweep 2 BreakerOpen = %v, want [Dom3]", rep2.BreakerOpen)
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/breaker_trips"); got != 1 {
		t.Errorf("scanner/breaker_trips = %d, want 1", got)
	}

	// Sweep 3: sitting out quarantine, breaker still open in the report.
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Skipped) != 1 || len(rep3.BreakerOpen) != 1 {
		t.Fatalf("sweep 3: skipped=%v breaker=%v", rep3.Skipped, rep3.BreakerOpen)
	}

	// Faults clear; sweep 4 probes (half-open), reads clean, closes the
	// breaker and readmits.
	plan.Quiesce()
	rep4, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep4.Readmitted) != 1 || rep4.Readmitted[0] != "Dom3" {
		t.Fatalf("sweep 4 Readmitted = %v, want [Dom3]", rep4.Readmitted)
	}
	if rep4.Health.Of("Dom3") != HealthHealthy || len(rep4.BreakerOpen) != 0 {
		t.Errorf("sweep 4: health=%v breaker=%v, want healthy/closed", rep4.Health.Of("Dom3"), rep4.BreakerOpen)
	}
}

// TestBreakerTripsOnControlPlaneFailures: repeated lifecycle-operation
// failures (here: snapshots that keep failing) open the domain's breaker at
// the next partition even though its read path is perfectly healthy, and a
// clean probe closes the breaker and forgives the failure streak.
func TestBreakerTripsOnControlPlaneFailures(t *testing.T) {
	cloud := testCloud(t, 4, 233)
	plan := NewFaultPlan(43)
	plan.FailOpsForever("Dom2", OpSnapshot, 0)
	cloud.InstallFaultPlan(plan)

	d := cloud.Domain("Dom2")
	for i := 0; i < 2; i++ {
		if err := d.TakeSnapshot("cp"); err == nil {
			t.Fatal("scheduled snapshot fault did not fire")
		}
	}
	if got := d.ControlFailures(); got != 2 {
		t.Fatalf("ControlFailures = %d, want 2", got)
	}

	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})

	// Sweep 1: partition opens the breaker — Dom2 is skipped, not checked.
	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Health.Of("Dom2") != HealthQuarantined || rep1.VMs != 3 {
		t.Fatalf("sweep 1: health=%v vms=%d", rep1.Health.Of("Dom2"), rep1.VMs)
	}
	if len(rep1.Skipped) != 1 || rep1.Skipped[0] != "Dom2" {
		t.Fatalf("sweep 1 Skipped = %v, want [Dom2]", rep1.Skipped)
	}
	if len(rep1.BreakerOpen) != 1 || rep1.BreakerOpen[0] != "Dom2" {
		t.Fatalf("sweep 1 BreakerOpen = %v, want [Dom2]", rep1.BreakerOpen)
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/breaker_trips"); got != 1 {
		t.Errorf("scanner/breaker_trips = %d, want 1", got)
	}

	// Sweep 2: still in quarantine (ReadmitAfter 2).
	if _, err := sc.Sweep(); err != nil {
		t.Fatal(err)
	}

	// Sweep 3: half-open probe reads clean — breaker closes and the
	// domain's control-failure streak is forgiven.
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Readmitted) != 1 || rep3.Readmitted[0] != "Dom2" {
		t.Fatalf("sweep 3 Readmitted = %v, want [Dom2]", rep3.Readmitted)
	}
	if len(rep3.BreakerOpen) != 0 {
		t.Errorf("sweep 3 BreakerOpen = %v, want closed", rep3.BreakerOpen)
	}
	if got := d.ControlFailures(); got != 0 {
		t.Errorf("ControlFailures = %d after clean probe, want 0", got)
	}
}

// TestAbortSweepOnDestroyDuringDiscovery: domains destroyed while the
// session's list walks are running leave discovery with no reference VM;
// the sweep aborts cleanly without advancing the health clock.
func TestAbortSweepOnDestroyDuringDiscovery(t *testing.T) {
	cloud := testCloud(t, 3, 239)
	plan := NewFaultPlan(47)
	for _, vm := range []string{"Dom1", "Dom2", "Dom3"} {
		plan.DestroyAt(vm, 0)
	}
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner() // no SetModules: the sweep must discover
	if _, err := sc.Sweep(); err == nil {
		t.Fatal("sweep with every domain destroyed mid-discovery did not abort")
	}
	if sc.Sweeps() != 0 {
		t.Fatalf("aborted sweep advanced the counter to %d", sc.Sweeps())
	}
	snap := cloud.Metrics().Snapshot()
	if got := counterValue(snap, "scanner/aborted_sweeps"); got != 1 {
		t.Errorf("scanner/aborted_sweeps = %d, want 1", got)
	}
	// The next attempt sees the destroyed domains at partition time and
	// aborts for lack of an eligible pool.
	if _, err := sc.Sweep(); err == nil {
		t.Fatal("follow-up sweep over destroyed pool did not abort")
	}
	if sc.Sweeps() != 0 {
		t.Errorf("sweeps = %d after two aborts, want 0", sc.Sweeps())
	}
}

// TestResumeResamplesIdentityAfterRevert is the satellite regression for
// stale identity tokens across a checkpoint/resume cut under
// WithIdentityDedup. Between the cut and the resume a clone is reverted to
// a snapshot — which swaps its guest's physical-memory object — and then
// infected. A resumed sweep that kept pre-cut identity samples (or an
// Identity closure pinned to the pre-revert memory) would still see the
// clone advertising its template's clean content token, dedup it behind a
// clean leader, and inherit a CLEAN verdict for a module that is now
// tampered. The contract: identities are resampled at resume, the diverged
// clone leads itself, and the deferred module's infection is flagged.
func TestResumeResamplesIdentityAfterRevert(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 8, Templates: 2, Seed: 212})
	if err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner(WithIdentityDedup())
	// Modules sweep in sorted order, so ntfs.sys is last: the budgeted cut
	// below must defer it to the resume.
	modules := []string{"hal.dll", "http.sys", "ndis.sys", "ntfs.sys"}
	sc.SetModules(modules)

	rep1, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Clean() || rep1.ModulesChecked != len(modules) {
		t.Fatalf("seed sweep: clean=%v checked=%d", rep1.Clean(), rep1.ModulesChecked)
	}

	work := rep1.Timing.Fetch + rep1.Timing.Digest + rep1.Timing.Compare
	sc.SetBudget(BudgetPolicy{SweepBudget: rep1.Timing.List + work/2})
	rep2, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Partial {
		t.Fatal("budgeted sweep was not cut")
	}
	deferred := false
	for _, m := range rep2.Remaining {
		if m == "ntfs.sys" {
			deferred = true
		}
	}
	if !deferred {
		t.Fatalf("ntfs.sys not deferred by the cut; remaining %v", rep2.Remaining)
	}

	// Divergence between cut and resume: revert Dom5 (a clone, deduped
	// behind its template's leader while clean), then tamper with the
	// deferred module. The revert is what made the historical bug bite —
	// it replaces the guest's memory object, so a pinned closure keeps
	// reading the untouched pre-revert image and reports its clean token.
	d := cloud.Domain("Dom5")
	if err := d.TakeSnapshot("cut"); err != nil {
		t.Fatal(err)
	}
	if err := d.Revert("cut"); err != nil {
		t.Fatal(err)
	}
	if err := InfectStubPatch(cloud, "Dom5", "ntfs.sys", "DOS", "CHK"); err != nil {
		t.Fatal(err)
	}

	sc.SetBudget(BudgetPolicy{})
	rep3, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Resumed {
		t.Fatal("third sweep did not resume the checkpoint")
	}
	found := false
	for _, a := range rep3.Alerts {
		if a.VM == "Dom5" && a.Module == "ntfs.sys" {
			found = true
		}
	}
	if !found {
		t.Fatalf("resumed sweep missed the post-revert infection on Dom5; alerts: %+v", rep3.Alerts)
	}
}
