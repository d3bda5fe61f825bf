package modchecker

import (
	"bytes"
	"testing"

	"modchecker/internal/core"
)

// TestModuleTableReusesCounter pins core/module_table_reuses on a cached
// scanner over the fleet256-warm shape (256 clones of 4 templates): a cold
// sweep walks every list and adds 0, a warm sweep takes every VM's table
// from the last sweep's and adds the VM count, and a sweep under a fault
// plan, whose VMs advertise no content tokens, walks every list again and
// adds 0.
func TestModuleTableReusesCounter(t *testing.T) {
	const vms = 256
	cloud, err := NewCloud(CloudConfig{VMs: vms, Templates: 4, Seed: 1, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	reuses := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "core/module_table_reuses") }
	sweep := func(step string, sc *Scanner, want uint64) {
		t.Helper()
		before := reuses()
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if rep.VMs != vms || len(rep.Alerts) != 0 {
			t.Fatalf("%s: %d VMs, alerts %v", step, rep.VMs, rep.Alerts)
		}
		if got := reuses() - before; got != want {
			t.Errorf("%s: %d module tables reused, want %d", step, got, want)
		}
	}
	sc := cloud.NewScanner(WithDigestCache(NewDigestStore(0)))
	sweep("cold sweep", sc, 0)
	sweep("warm sweep", sc, vms)

	cloud.InstallFaultPlan(NewFaultPlan(1))
	sweep("sweep under a fault plan", sc, 0)
}

// forgetTables drops the module tables sc's checker keeps: a session over
// VMs without content tokens keeps none, so sc's next sweep walks every
// listed VM's module list.
func forgetTables(t *testing.T, cloud *Cloud, sc *Scanner) {
	t.Helper()
	var vms []core.Target
	for _, name := range cloud.VMNames()[:2] {
		tg, err := cloud.Target(name)
		if err != nil {
			t.Fatal(err)
		}
		tg.Identity = nil
		vms = append(vms, tg)
	}
	ps, err := sc.checker.inner.NewPoolSweep(vms)
	if err != nil {
		t.Fatal(err)
	}
	ps.Close()
}

// TestModuleTableReportsMatchWalk is the scanner-level differential of the
// kept module tables: two clouds built alike go through the same steps —
// clean sweeps, infected, reverted, destroyed and re-created domains —
// and one scanner keeps its tables while the other's are dropped before
// every sweep. With and without the digest store and with identity dedup,
// every sweep's report is byte-identical apart from simulated time, and
// only the first scanner ever reuses a table.
func TestModuleTableReportsMatchWalk(t *testing.T) {
	for _, leg := range []struct {
		name string
		opts func() []CheckerOption
	}{
		{"plain", func() []CheckerOption { return nil }},
		{"store", func() []CheckerOption { return []CheckerOption{WithDigestCache(NewDigestStore(0))} }},
		{"dedup-store", func() []CheckerOption {
			return []CheckerOption{WithShardSize(8), WithIdentityDedup(), WithDigestCache(NewDigestStore(0))}
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			type side struct {
				cloud *Cloud
				sc    *Scanner
			}
			sides := make([]side, 2)
			for k := range sides {
				cloud, err := NewCloud(CloudConfig{VMs: 24, Templates: 4, Seed: 61})
				if err != nil {
					t.Fatal(err)
				}
				for _, vm := range []string{"Dom5", "Dom6"} {
					if err := cloud.Domain(vm).TakeSnapshot("boot"); err != nil {
						t.Fatal(err)
					}
				}
				sides[k] = side{cloud, cloud.NewScanner(leg.opts()...)}
			}
			kept, walked := sides[0], sides[1]
			for _, step := range []struct {
				name   string
				mutate func(*Cloud) error
			}{
				{"cold", nil},
				{"warm", nil},
				{"Dom5 infected", func(c *Cloud) error { return InfectOpcode(c, "Dom5", "hal.dll") }},
				{"warm, infected", nil},
				{"Dom6 hooked", func(c *Cloud) error { return InfectInlineHookLive(c, "Dom6", "ndis.sys") }},
				{"reverted", func(c *Cloud) error {
					if err := c.Domain("Dom5").Revert("boot"); err != nil {
						return err
					}
					return c.Domain("Dom6").Revert("boot")
				}},
				{"warm, reverted", nil},
				{"Dom7 destroyed", func(c *Cloud) error { return c.Hypervisor().DestroyDomain("Dom7") }},
				{"Dom7 re-created", func(c *Cloud) error {
					_, err := c.Hypervisor().ForkDomain("Dom3", "Dom7", 7)
					return err
				}},
				{"warm, re-created", nil},
				{"warm, re-created, 2", nil},
				{"warm, re-created, 3", nil},
			} {
				var reports [2][]byte
				for k, s := range sides {
					if step.mutate != nil {
						if err := step.mutate(s.cloud); err != nil {
							t.Fatalf("%s: %v", step.name, err)
						}
					}
					if k == 1 {
						forgetTables(t, s.cloud, s.sc)
					}
					rep, err := s.sc.Sweep()
					if err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
					var buf bytes.Buffer
					if err := rep.WriteJSON(&buf); err != nil {
						t.Fatal(err)
					}
					reports[k] = redactTiming(t, buf.Bytes())
				}
				if !bytes.Equal(reports[0], reports[1]) {
					t.Errorf("%s: kept tables diverge from walked ones: %s", step.name, firstDiffLine(reports[1], reports[0]))
				}
			}
			reused := func(s side) uint64 {
				return counterValue(s.cloud.Metrics().Snapshot(), "core/module_table_reuses")
			}
			if reused(kept) == 0 || reused(walked) != 0 {
				t.Errorf("tables reused: %d by the keeping scanner (want some), %d by the walking one (want 0)",
					reused(kept), reused(walked))
			}
		})
	}
}
