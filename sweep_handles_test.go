package modchecker

import (
	"fmt"
	"testing"
)

// TestSweepOpensOnlyListedVMs: a parallel dedup scanner sweep over a fleet
// of copy-on-write clones opens an introspection handle only for the VMs
// the session lists — one per identity group, plus the infected VM whose
// private frames give it no identity — and the same cloud under a fault
// plan (no identities, so no dedup) opens and reads every VM exactly as
// before, reaching the same verdicts. Handles are counted by the cloud's
// vmi/handles_opened counter, reads by the fault plan.
func TestSweepOpensOnlyListedVMs(t *testing.T) {
	const vms = 2048
	cloud, err := NewCloud(CloudConfig{VMs: vms, Templates: 4, Seed: 7, Cores: 16})
	if err != nil {
		t.Fatal(err)
	}
	names := cloud.VMNames()
	infected := names[vms/2]
	if err := InfectOpcode(cloud, infected, "hal.dll"); err != nil {
		t.Fatal(err)
	}
	// The VMs a dedup session lists: the first of each identity group, and
	// every VM without an identity.
	groups := map[uint64]bool{}
	leaders := 0
	for _, n := range names {
		tg, err := cloud.Target(n)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := tg.Identity()
		if !ok || !groups[id] {
			leaders++
		}
		if ok {
			groups[id] = true
		}
	}
	if leaders < 5 || leaders > 16 {
		t.Fatalf("fixture: %d identity leaders among %d clones of 4 templates", leaders, vms)
	}

	modules := []string{"hal.dll"}
	opened := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "vmi/handles_opened") }
	sweep := func(sc *Scanner) string {
		t.Helper()
		before := opened()
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.VMs != vms || rep.ModulesChecked != len(modules) {
			t.Fatalf("sweep %d covered %d VMs x %d modules", rep.Sweep, rep.VMs, rep.ModulesChecked)
		}
		t.Logf("sweep %d opened %d handles", rep.Sweep, opened()-before)
		return fmt.Sprintf("opened=%d alerts=%v", opened()-before, rep.Alerts)
	}
	want := fmt.Sprintf("alerts=%v", []Alert{{Sweep: 1, Module: "hal.dll", VM: infected,
		Verdict: VerdictAltered, Components: []string{".text"},
		Reason: fmt.Sprintf("%d of %d peers dispute this copy", vms-1, vms-1)}})

	sc := cloud.NewScanner(WithParallel(), WithShardSize(256), WithLeanReports(), WithIdentityDedup())
	sc.SetModules(modules)
	if got := sweep(sc); got != fmt.Sprintf("opened=%d %s", leaders, want) {
		t.Errorf("dedup sweep: %s, want opened=%d %s", got, leaders, want)
	}

	plan := NewFaultPlan(1)
	cloud.InstallFaultPlan(plan)
	sc = cloud.NewScanner(WithParallel(), WithShardSize(256), WithLeanReports(), WithIdentityDedup())
	sc.SetModules(modules)
	if got := sweep(sc); got != fmt.Sprintf("opened=%d %s", vms, want) {
		t.Errorf("sweep under a fault plan: %s, want opened=%d %s", got, vms, want)
	}
	for _, n := range names {
		if plan.Reads(n) == 0 {
			t.Fatalf("sweep under a fault plan never read %s", n)
		}
	}
}
