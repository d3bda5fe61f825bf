package modchecker

import (
	"bytes"
	"strings"
	"testing"
)

// differentialSweep builds a fresh deterministic 15-VM cloud, applies the
// scenario, runs one full scanner sweep with the given checker options, and
// returns the sweep report's JSON rendering.
func differentialSweep(t *testing.T, seed int64, scenario func(*testing.T, *Cloud), opts ...CheckerOption) []byte {
	t.Helper()
	cloud := testCloud(t, 15, seed)
	if scenario != nil {
		scenario(t, cloud)
	}
	sc := cloud.NewScanner(opts...)
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func firstDiffLine(a, b []byte) string {
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + string(rune('0'+i%10)) + ": " + al[i] + " != " + bl[i]
		}
	}
	return "length mismatch"
}

// TestShardedSweepMatchesFlat is the fleet engine's contract: for every
// shard size, over clean, infected (paper experiments E1-E4), multi-cluster,
// and faulted pools, in sequential and parallel mode, the sharded sweep's
// report is byte-for-byte the flat clustered path's report. Sharding may
// only bound memory, never change results.
func TestShardedSweepMatchesFlat(t *testing.T) {
	infect := func(f func(*Cloud) error) func(*testing.T, *Cloud) {
		return func(t *testing.T, c *Cloud) {
			t.Helper()
			if err := f(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	scenarios := []struct {
		name     string
		seed     int64
		scenario func(*testing.T, *Cloud)
		opts     []CheckerOption
	}{
		{name: "clean", seed: 42},
		{name: "e1-opcode", seed: 43,
			scenario: infect(func(c *Cloud) error { return InfectOpcode(c, "Dom2", "hal.dll") })},
		{name: "e2-inline-hook", seed: 44,
			scenario: infect(func(c *Cloud) error { return InfectInlineHookLive(c, "Dom2", "ndis.sys") })},
		{name: "e3-stub-patch", seed: 45,
			scenario: infect(func(c *Cloud) error { return InfectStubPatch(c, "Dom2", "ntfs.sys", "DOS", "CHK") })},
		{name: "e4-dll-hook", seed: 46,
			scenario: infect(func(c *Cloud) error { return InfectDLLHook(c, "Dom2", "http.sys", "evil.dll", "spy") })},
		// Two VMs in different shards (at shard size 4) carrying the same
		// patch must land in the same cross-shard cluster; a third carries a
		// different patch — three clusters total.
		{name: "multi-cluster", seed: 47,
			scenario: infect(func(c *Cloud) error {
				if err := InfectOpcode(c, "Dom2", "hal.dll"); err != nil {
					return err
				}
				if err := InfectOpcode(c, "Dom9", "hal.dll"); err != nil {
					return err
				}
				return InfectInlineHookLive(c, "Dom13", "hal.dll")
			})},
		// Fault-plan faults are keyed to each VM's read schedule, which the
		// sharded engine must preserve exactly: same reads, same faults,
		// same VerdictError reports.
		{name: "faulted", seed: 48,
			scenario: func(t *testing.T, c *Cloud) {
				plan := NewFaultPlan(48)
				plan.FailReads("Dom3", 10, 60)
				plan.FailForever("Dom5", 1)
				plan.FlakyReads("Dom11", 0.02)
				c.InstallFaultPlan(plan)
			}},
		{name: "parallel-infected", seed: 49,
			scenario: infect(func(c *Cloud) error { return InfectOpcode(c, "Dom4", "dummy.sys") }),
			opts:     []CheckerOption{WithParallel()}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			flat := differentialSweep(t, sc.seed, sc.scenario, sc.opts...)
			for _, shard := range []int{1, 4, 15} {
				opts := append(append([]CheckerOption{}, sc.opts...), WithShardSize(shard))
				got := differentialSweep(t, sc.seed, sc.scenario, opts...)
				if !bytes.Equal(flat, got) {
					t.Errorf("shard size %d diverges from flat: %s", shard, firstDiffLine(flat, got))
				}
			}
		})
	}
}

// TestShardedBudgetedSweepMatchesFlat: PR 7's checkpoint/resume must keep
// working with sharding on. A sweep budget that cuts the first sweep mid-way
// defers the same modules, and the resumed sweep finishes the same
// remainder, byte-identically to the flat path.
func TestShardedBudgetedSweepMatchesFlat(t *testing.T) {
	run := func(opts ...CheckerOption) []byte {
		cloud := testCloud(t, 15, 51)
		sc := cloud.NewScanner(opts...)
		first, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		work := first.Simulated - first.Timing.List
		sc.SetBudget(BudgetPolicy{SweepBudget: first.Timing.List + work/2})
		var buf bytes.Buffer
		partial, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Partial || len(partial.Remaining) == 0 {
			t.Fatalf("half-budget sweep was not partial: %+v", partial)
		}
		if err := partial.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		resumed, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if !resumed.Resumed {
			t.Fatal("follow-up sweep did not resume the checkpoint")
		}
		if err := resumed.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	flat := run()
	sharded := run(WithShardSize(4))
	if !bytes.Equal(flat, sharded) {
		t.Errorf("budgeted sharded sweeps diverge from flat: %s", firstDiffLine(flat, sharded))
	}
}

// TestLeanSweepMatchesFlat: a sweep on the lean fleet path — four VMs per
// shard — must fold byte-identically the same SweepReport as the flat
// path: alerts with their components and reasons, verdict counts, health,
// module errors and simulated timing, through infections and a VM that
// fails for good after the first sweep.
func TestLeanSweepMatchesFlat(t *testing.T) {
	scenario := func(t *testing.T, c *Cloud) {
		t.Helper()
		if err := InfectOpcode(c, "Dom2", "hal.dll"); err != nil {
			t.Fatal(err)
		}
		if err := InfectDLLHook(c, "Dom6", "http.sys", "evil.dll", "spy"); err != nil {
			t.Fatal(err)
		}
		plan := NewFaultPlan(50)
		plan.FailForever("Dom9", 1)
		c.InstallFaultPlan(plan)
	}
	flat := differentialSweep(t, 50, scenario)
	lean := differentialSweep(t, 50, scenario, WithShardSize(4))
	if !bytes.Equal(flat, lean) {
		t.Errorf("lean sweep diverges from flat: %s", firstDiffLine(flat, lean))
	}
}
