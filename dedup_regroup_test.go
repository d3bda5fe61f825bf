package modchecker

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"modchecker/internal/mm"
)

// regroupFleet builds the 64-clone, 4-template fleet of the regroup tests
// and names one identity group's leader and a follower of another group.
func regroupFleet(t *testing.T) (cloud *Cloud, leader, follower string) {
	t.Helper()
	cloud, err := NewCloud(CloudConfig{VMs: 64, Templates: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var groups []uint64
	members := map[uint64][]string{}
	for _, vm := range cloud.VMNames() {
		id, ok := identity(cloud.Domain(vm))
		if !ok {
			t.Fatalf("%s has no identity in a fresh fleet", vm)
		}
		if members[id] == nil {
			groups = append(groups, id)
		}
		members[id] = append(members[id], vm)
	}
	if len(groups) != 4 {
		t.Fatalf("fleet has %d identity groups, want 4", len(groups))
	}
	return cloud, members[groups[0]][0], members[groups[1]][1]
}

// regroupScanner is the dedup scanner the regroup tests sweep with.
func regroupScanner(cloud *Cloud) *Scanner {
	sc := cloud.NewScanner(WithShardSize(16), WithIdentityDedup())
	sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
	return sc
}

// alertSet renders a sweep's alerts without the sweep number, sorted.
func alertSet(rep *SweepReport) []string {
	out := make([]string, 0, len(rep.Alerts))
	for _, a := range rep.Alerts {
		out = append(out, fmt.Sprintf("%s %s %v %v", a.VM, a.Module, a.Verdict, a.Components))
	}
	slices.Sort(out)
	return out
}

// TestDedupSweepRegroupOnlyWhenIdentityChanges: a long-lived dedup scanner
// keeps its identity groups across sweeps and rebuilds them exactly once
// after each event that can change an identity answer or the eligible set
// — an infection of a follower or a leader, a revert, a frame allocated
// and freed again, a fault plan installed and cleared, a domain destroyed
// and re-created — and never on a warm sweep. After every event its alerts
// equal a fresh scanner's, which samples every identity afresh.
func TestDedupSweepRegroupOnlyWhenIdentityChanges(t *testing.T) {
	cloud, leader, follower := regroupFleet(t)
	for _, vm := range []string{leader, follower} {
		if err := cloud.Domain(vm).TakeSnapshot("boot"); err != nil {
			t.Fatal(err)
		}
	}
	sc := regroupScanner(cloud)
	regroups := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "core/dedup_regroups") }

	// sweep runs one long-lived sweep, checks its regroup count and its
	// alerts against a fresh scanner's, and returns the alerts.
	sweep := func(step string, wantRegroups uint64) []string {
		t.Helper()
		before := regroups()
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := regroups() - before; got != wantRegroups {
			t.Errorf("%s: %d regroups, want %d", step, got, wantRegroups)
		}
		fresh, err := regroupScanner(cloud).Sweep()
		if err != nil {
			t.Fatalf("%s: fresh scanner: %v", step, err)
		}
		got, want := alertSet(rep), alertSet(fresh)
		if !slices.Equal(got, want) {
			t.Errorf("%s: long-lived scanner alerts\n  %v\nfresh scanner alerts\n  %v", step, got, want)
		}
		return got
	}
	flagged := func(alerts []string, vm string) bool {
		return slices.ContainsFunc(alerts, func(a string) bool { return strings.HasPrefix(a, vm+" hal.dll ALTERED") })
	}

	sweep("first sweep", 1)
	sweep("warm sweep", 0)
	sweep("warm sweep", 0)

	var phys *mm.PhysMemory
	var pfn uint32
	recreated := "Dom7"
	events := []struct {
		name string
		do   func() error
		// warm: a second sweep after the event must reuse the groups. A
		// sweep under a fault plan, or with a roster name resolving to a
		// re-created domain, carries no identity stamp and always regroups.
		warm  bool
		check func(alerts []string) error
	}{
		{"InfectOpcode on a follower", func() error { return InfectOpcode(cloud, follower, "hal.dll") }, true,
			func(alerts []string) error {
				if !flagged(alerts, follower) {
					return fmt.Errorf("infected follower %s not flagged", follower)
				}
				return nil
			}},
		{"InfectOpcode on a leader", func() error { return InfectOpcode(cloud, leader, "hal.dll") }, true,
			func(alerts []string) error {
				if !flagged(alerts, leader) || !flagged(alerts, follower) {
					return fmt.Errorf("infected %s and %s not both flagged", leader, follower)
				}
				return nil
			}},
		{"Revert", func() error {
			for _, vm := range []string{leader, follower} {
				if err := cloud.Domain(vm).Revert("boot"); err != nil {
					return err
				}
			}
			return nil
		}, true, nil},
		{"AllocFrame on a follower", func() error {
			phys = cloud.Domain(follower).Guest().Phys()
			var err error
			pfn, err = phys.AllocFrame()
			return err
		}, true, nil},
		{"FreeFrame back to clean", func() error { return phys.FreeFrame(pfn) }, true, nil},
		{"install a fault plan", func() error { cloud.InstallFaultPlan(NewFaultPlan(22)); return nil }, false, nil},
		{"clear the fault plan", func() error { cloud.InstallFaultPlan(nil); return nil }, true, nil},
		{"DestroyDomain", func() error { return cloud.Hypervisor().DestroyDomain(recreated) }, true, nil},
		{"re-create the domain", func() error {
			_, err := cloud.Hypervisor().ForkDomain("Dom3", recreated, 7)
			return err
		}, false, nil},
	}
	for _, ev := range events {
		if err := ev.do(); err != nil {
			t.Fatalf("%s: %v", ev.name, err)
		}
		alerts := sweep(ev.name, 1)
		if ev.check != nil {
			if err := ev.check(alerts); err != nil {
				t.Errorf("%s: %v", ev.name, err)
			}
		}
		if ev.warm {
			sweep(ev.name+", then a warm sweep", 0)
		}
	}
}

// TestDedupSweepRegroupConcurrentWrites sweeps a dedup fleet while a
// goroutine keeps moving a follower's memory between dirty and clean —
// allocating, writing and freeing a frame outside any module — so identity
// epochs move while sessions sample and reuse groups. Run under -race it
// checks the epoch, the stamp and the retained groups for data races; in
// any mode every sweep must stay clean, whether the follower was sampled
// dirty (introspected alone) or clean (deduped behind its leader).
func TestDedupSweepRegroupConcurrentWrites(t *testing.T) {
	cloud, _, follower := regroupFleet(t)
	sc := regroupScanner(cloud)
	phys := cloud.Domain(follower).Guest().Phys()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pfn, err := phys.AllocFrame()
			if err != nil {
				t.Error(err)
				return
			}
			if err := phys.WritePhys(pfn*mm.PageSize, []byte("scratch")); err != nil {
				t.Error(err)
				return
			}
			if err := phys.FreeFrame(pfn); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		rep, err := sc.Sweep()
		if err != nil {
			t.Errorf("sweep %d: %v", i+1, err)
			break
		}
		if len(rep.Alerts) != 0 || !rep.Clean() {
			t.Errorf("sweep %d under concurrent follower writes: alerts %v", i+1, alertSet(rep))
		}
	}
	close(stop)
	wg.Wait()
}
