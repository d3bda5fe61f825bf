package modchecker

import (
	"fmt"
	"testing"
)

// TestSweepOpensOnlyListedVMs: a parallel dedup scanner sweep over a fleet
// of copy-on-write clones opens an introspection handle only for the VMs
// the session lists — one per identity group, plus the infected VM whose
// private frames give it no identity. Once the infected VM's memory is
// sealed, every VM has a content token, so a scanner with a digest store
// takes every module table and digest of its second sweep from the first's
// under unchanged tokens: that sweep opens no handle and reads no guest
// byte. The same cloud under a fault
// plan (no identities, so no dedup and no kept tables) opens and reads
// every VM exactly as before, reaching the same verdicts. Handles are
// counted by the cloud's vmi/handles_opened counter, reads by the cloud's
// introspection stats and the fault plan.
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
		before, read := opened(), cloud.IntrospectionStats().BytesRead
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.VMs != vms || rep.ModulesChecked != len(modules) {
			t.Fatalf("sweep %d covered %d VMs x %d modules", rep.Sweep, rep.VMs, rep.ModulesChecked)
		}
		t.Logf("sweep %d opened %d handles", rep.Sweep, opened()-before)
		return fmt.Sprintf("opened=%d read=%v alerts=%v", opened()-before,
			cloud.IntrospectionStats().BytesRead > read, rep.Alerts)
	}
	want := func(sweep int) string {
		return fmt.Sprintf("alerts=%v", []Alert{{Sweep: sweep, Module: "hal.dll", VM: infected,
			Verdict: VerdictAltered, Components: []string{".text"},
			Reason: fmt.Sprintf("%d of %d peers dispute this copy", vms-1, vms-1)}})
	}

	sc := cloud.NewScanner(WithParallel(), WithShardSize(256), WithIdentityDedup())
	sc.SetModules(modules)
	if got := sweep(sc); got != fmt.Sprintf("opened=%d read=true %s", leaders, want(1)) {
		t.Errorf("dedup sweep: %s, want opened=%d read=true %s", got, leaders, want(1))
	}

	cloud.Domain(infected).Guest().Phys().Seal()
	sc = cloud.NewScanner(WithParallel(), WithShardSize(256), WithIdentityDedup(), WithDigestCache(NewDigestStore(0)))
	sc.SetModules(modules)
	sweep(sc)
	if got := sweep(sc); got != "opened=0 read=false "+want(2) {
		t.Errorf("second cached sweep: %s, want opened=0 read=false %s", got, want(2))
	}

	plan := NewFaultPlan(1)
	cloud.InstallFaultPlan(plan)
	sc = cloud.NewScanner(WithParallel(), WithShardSize(256), WithIdentityDedup())
	sc.SetModules(modules)
	if got := sweep(sc); got != fmt.Sprintf("opened=%d read=true %s", vms, want(1)) {
		t.Errorf("sweep under a fault plan: %s, want opened=%d read=true %s", got, vms, want(1))
	}
	for _, n := range names {
		if plan.Reads(n) == 0 {
			t.Fatalf("sweep under a fault plan never read %s", n)
		}
	}
}
