package modchecker

import (
	"bytes"
	"encoding/json"
	"testing"
)

// cacheScenarios are the differential scenarios the digest cache must pass:
// the fleet suite's pools (clean, the paper's E1-E4 infections, cross-shard
// multi-cluster, fault-plan faults, parallel mode) re-run with a store
// attached.
func cacheScenarios() []struct {
	name     string
	seed     int64
	scenario func(*testing.T, *Cloud)
	opts     []CheckerOption
} {
	infect := func(f func(*Cloud) error) func(*testing.T, *Cloud) {
		return func(t *testing.T, c *Cloud) {
			t.Helper()
			if err := f(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return []struct {
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
}

// TestCachedSweepColdMatchesUncached is the cache's cost-model contract: a
// cold store changes nothing. CostCASLookup is only charged on hits, so the
// first sweep through an empty store must reproduce the uncached sweep
// byte-for-byte — verdicts, alerts, and simulated timing included — for
// every scenario, on the flat path and on the sharded fleet path.
func TestCachedSweepColdMatchesUncached(t *testing.T) {
	for _, sc := range cacheScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			plain := differentialSweep(t, sc.seed, sc.scenario, sc.opts...)
			cachedOpts := append(append([]CheckerOption{}, sc.opts...),
				WithDigestCache(NewDigestStore(0)))
			cached := differentialSweep(t, sc.seed, sc.scenario, cachedOpts...)
			if !bytes.Equal(plain, cached) {
				t.Errorf("cold cached sweep diverges from uncached: %s", firstDiffLine(plain, cached))
			}
		})
		t.Run(sc.name+"-fleet", func(t *testing.T) {
			fleetOpts := append(append([]CheckerOption{}, sc.opts...),
				WithShardSize(4))
			plain := differentialSweep(t, sc.seed, sc.scenario, fleetOpts...)
			cached := differentialSweep(t, sc.seed, sc.scenario,
				append(append([]CheckerOption{}, fleetOpts...), WithDigestCache(NewDigestStore(0)))...)
			if !bytes.Equal(plain, cached) {
				t.Errorf("cold cached fleet sweep diverges: %s", firstDiffLine(plain, cached))
			}
		})
	}
}

// redactTiming strips the two time-valued subtrees (simulated_ms and the
// timing breakdown) from a sweep's JSON. Warm cached sweeps legitimately
// report less simulated time than uncached sweeps; everything else must
// still agree.
func redactTiming(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "simulated_ms")
	delete(m, "timing")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCachedSweepWarmMatchesUncached: the second sweep over an unchanged
// pool runs almost entirely from the store, and must still agree with the
// uncached second sweep on everything but timing — same verdicts, same
// alerts with the same components, same health — while actually being
// cheaper on the simulated clock.
func TestCachedSweepWarmMatchesUncached(t *testing.T) {
	for _, sc := range cacheScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			secondSweep := func(opts ...CheckerOption) (*SweepReport, []byte) {
				cloud := testCloud(t, 15, sc.seed)
				if sc.scenario != nil {
					sc.scenario(t, cloud)
				}
				s := cloud.NewScanner(append(append([]CheckerOption{}, sc.opts...), opts...)...)
				if _, err := s.Sweep(); err != nil {
					t.Fatal(err)
				}
				rep, err := s.Sweep()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return rep, buf.Bytes()
			}
			plainRep, plain := secondSweep()
			store := NewDigestStore(0)
			warmRep, warm := secondSweep(WithDigestCache(store))
			if got, want := redactTiming(t, warm), redactTiming(t, plain); !bytes.Equal(got, want) {
				t.Errorf("warm cached sweep diverges beyond timing: %s", firstDiffLine(want, got))
			}
			// The faulted pool keeps the cache inert (no identities under a
			// plan), so no hits and no saving are expected there.
			if sc.name != "faulted" {
				if st := store.Stats(); st.Hits == 0 {
					t.Errorf("warm sweep never hit the store: %+v", st)
				}
			}
			if sc.name != "faulted" && warmRep.Simulated >= plainRep.Simulated {
				t.Errorf("warm sweep not cheaper: cached %v vs uncached %v",
					warmRep.Simulated, plainRep.Simulated)
			}
		})
	}
}

// TestCachedBudgetedResumeMatchesUncached: a budget-cut sweep and its resume
// both run over modules the store has never seen (the cut is the first
// sweep, the resume checks only the deferred remainder), so checkpointing
// under a cold cache must reproduce the uncached partial and resumed
// reports byte-identically — same cut point, same Remaining, same resume.
func TestCachedBudgetedResumeMatchesUncached(t *testing.T) {
	// Measure the budget on a throwaway uncached cloud so the measured run
	// cannot warm the store under test.
	measure := testCloud(t, 15, 51)
	full, err := measure.NewScanner().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	budget := BudgetPolicy{SweepBudget: full.Timing.List + (full.Simulated-full.Timing.List)/2}

	run := func(opts ...CheckerOption) []byte {
		cloud := testCloud(t, 15, 51)
		s := cloud.NewScanner(opts...)
		s.SetBudget(budget)
		var buf bytes.Buffer
		partial, err := s.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Partial || len(partial.Remaining) == 0 {
			t.Fatalf("half-budget sweep was not partial: %+v", partial)
		}
		if err := partial.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		resumed, err := s.Sweep()
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
	plain := run()
	cached := run(WithDigestCache(NewDigestStore(0)))
	if !bytes.Equal(plain, cached) {
		t.Errorf("budgeted cached sweeps diverge from uncached: %s", firstDiffLine(plain, cached))
	}
	sharded := run(WithShardSize(4), WithDigestCache(NewDigestStore(0)))
	if !bytes.Equal(plain, sharded) {
		t.Errorf("budgeted sharded cached sweeps diverge: %s", firstDiffLine(plain, sharded))
	}
}

// TestCachedSteadyStateSkipsFetches pins the cache's point: the second sweep
// over an unchanged copy-on-write fleet recomputes nothing — every digest
// and comparison replays from the store, no new entries are written, and
// guest-memory reads collapse to the per-sweep list walks.
func TestCachedSteadyStateSkipsFetches(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 24, Templates: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	store := NewDigestStore(0)
	s := cloud.NewScanner(WithDigestCache(store))

	before := cloud.IntrospectionStats()
	cold, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	afterCold := cloud.IntrospectionStats()
	statsCold := store.Stats()
	if statsCold.Inserts == 0 {
		t.Fatal("cold sweep inserted nothing")
	}

	warm, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	afterWarm := cloud.IntrospectionStats()
	statsWarm := store.Stats()

	if !warm.Clean() {
		t.Fatalf("warm sweep not clean: %+v", warm.Alerts)
	}
	if statsWarm.Inserts != statsCold.Inserts {
		t.Errorf("warm sweep recomputed %d entries", statsWarm.Inserts-statsCold.Inserts)
	}
	if lk, h := statsWarm.Lookups-statsCold.Lookups, statsWarm.Hits-statsCold.Hits; lk == 0 || lk != h {
		t.Errorf("warm sweep lookups %d, hits %d — want all-hit", lk, h)
	}
	coldBytes := afterCold.BytesRead - before.BytesRead
	warmBytes := afterWarm.BytesRead - afterCold.BytesRead
	// The warm sweep still walks every VM's module list; the module bodies —
	// the overwhelming majority of a sweep's reads — must not be re-fetched.
	if warmBytes*4 > coldBytes {
		t.Errorf("warm sweep read %d bytes vs cold %d — fetches not skipped", warmBytes, coldBytes)
	}
	if warm.Simulated >= cold.Simulated/2 {
		t.Errorf("warm sweep simulated %v vs cold %v — no steady-state saving", warm.Simulated, cold.Simulated)
	}
}

// TestCachedSweepDetectsLiveInfection is the staleness contract: an in-place
// infection between two cached sweeps dirties the VM's copy-on-write
// overlay, its content token stops resolving, and the next sweep must
// re-fetch and flag it — a stale CLEAN served from the store would be a
// missed rootkit.
func TestCachedSweepDetectsLiveInfection(t *testing.T) {
	cloud := testCloud(t, 15, 60)
	store := NewDigestStore(0)
	s := cloud.NewScanner(WithDigestCache(store))
	first, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Clean() {
		t.Fatalf("seed sweep not clean: %+v", first.Alerts)
	}
	if err := InfectInlineHookLive(cloud, "Dom2", "ndis.sys"); err != nil {
		t.Fatal(err)
	}
	second, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range second.Alerts {
		if a.VM == "Dom2" && a.Module == "ndis.sys" && a.Verdict == VerdictAltered {
			found = true
		}
	}
	if !found {
		t.Fatalf("infection after a cached sweep not flagged; alerts: %+v", second.Alerts)
	}
}

// TestCachedSweepRevertBumpsEpoch: a snapshot revert restores the exact
// pre-sweep image — same frozen base layer, same SnapshotID — but rewrites
// memory behind every open handle's back, so the mapping epoch is bumped
// and must be part of the content token: the post-revert sweep may not
// address the pre-revert entries even though the bytes happen to match.
func TestCachedSweepRevertBumpsEpoch(t *testing.T) {
	cloud := testCloud(t, 15, 61)
	store := NewDigestStore(0)
	s := cloud.NewScanner(WithDigestCache(store))
	d := cloud.Domain("Dom2")
	if err := d.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	statsBefore := store.Stats()
	if err := d.Revert("clean"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("post-revert sweep not clean: %+v", rep.Alerts)
	}
	statsAfter := store.Stats()
	if statsAfter.Inserts == statsBefore.Inserts {
		t.Error("post-revert sweep wrote no new entries — epoch not folded into the token")
	}
}

// TestCachedSweepInertUnderFaultPlan: targets opened under a fault plan
// advertise no identity, so a faulted pool must never touch the store —
// neither populating it with possibly fault-corrupted reads nor serving
// hits whose per-VM fault schedules would be skipped.
func TestCachedSweepInertUnderFaultPlan(t *testing.T) {
	cloud := testCloud(t, 15, 62)
	plan := NewFaultPlan(62)
	plan.FlakyReads("Dom4", 0.05)
	cloud.InstallFaultPlan(plan)
	store := NewDigestStore(0)
	s := cloud.NewScanner(WithDigestCache(store))
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Lookups != 0 || st.Inserts != 0 || store.Len() != 0 {
		t.Errorf("faulted sweep touched the store: %+v", st)
	}
}

// TestCachedSweepPersistentReopen: digests written through the persistent
// tier must survive a close/reopen under the same fingerprint and make the
// next run's first sweep warm — the cross-run version of the steady state.
func TestCachedSweepPersistentReopen(t *testing.T) {
	cfg := CloudConfig{VMs: 15, Seed: 63}
	path := t.TempDir() + "/digests.cas"

	cloud1, err := NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store1, err := OpenDigestStore(path, cfg.CacheFingerprint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s1 := cloud1.NewScanner(WithDigestCache(store1))
	cold, err := s1.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run: same deterministic cloud, fresh process state.
	cloud2, err := NewCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := OpenDigestStore(path, cfg.CacheFingerprint(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if st := store2.Stats(); st.Loaded == 0 {
		t.Fatal("persistent tier replayed nothing")
	}
	s2 := cloud2.NewScanner(WithDigestCache(store2))
	warm, err := s2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Clean() {
		t.Fatalf("reopened-store sweep not clean: %+v", warm.Alerts)
	}
	if st := store2.Stats(); st.Hits == 0 {
		t.Errorf("reopened store served no hits: %+v", st)
	}
	if warm.Simulated >= cold.Simulated/2 {
		t.Errorf("reopened store gave no saving: warm %v vs cold %v", warm.Simulated, cold.Simulated)
	}
	// A foreign fingerprint must not serve this store's tokens.
	store3, err := OpenDigestStore(path, "some-other-cloud", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if st := store3.Stats(); st.Loaded != 0 {
		t.Errorf("foreign fingerprint replayed %d entries", st.Loaded)
	}
}

// TestTargetIdentityTracksRevert pins the stale-capture fix in
// Cloud.Target: a snapshot revert swaps the guest's backing memory object,
// so an identity closure pinned to the pre-revert object would keep
// advertising the old frozen layer's stable ID while the actual image
// diverges — and identity dedup or the digest cache would treat an infected
// VM as bit-identical to its clean template.
func TestTargetIdentityTracksRevert(t *testing.T) {
	cloud := testCloud(t, 15, 64)
	d := cloud.Domain("Dom2")
	if err := d.TakeSnapshot("pre"); err != nil {
		t.Fatal(err)
	}
	tgt, err := cloud.Target("Dom2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tgt.Identity(); !ok {
		t.Fatal("snapshotted guest has no stable identity")
	}
	epoch0 := tgt.Epoch()
	if err := d.Revert("pre"); err != nil {
		t.Fatal(err)
	}
	if tgt.Epoch() == epoch0 {
		t.Error("revert did not bump the target's mapping epoch")
	}
	if err := InfectOpcode(cloud, "Dom2", "hal.dll"); err != nil {
		t.Fatal(err)
	}
	if id, ok := tgt.Identity(); ok {
		t.Errorf("diverged guest still advertises identity %d — stale memory capture", id)
	}
}
