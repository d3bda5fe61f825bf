package core

import (
	"errors"
	"testing"

	"modchecker/internal/cas"
)

// TestPoolSweepClose pins the session lifecycle: Close drops the module-table
// snapshot, is idempotent, and every later lookup fails with ErrSweepClosed
// instead of answering from a stale snapshot.
func TestPoolSweepClose(t *testing.T) {
	_, targets := testPool(t, 4)
	c := NewChecker(Config{})
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Modules(); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	ps.Close() // a second Close must be a no-op, not a double release

	if _, err := ps.Modules(); !errors.Is(err, ErrSweepClosed) {
		t.Errorf("Modules after Close: err = %v, want ErrSweepClosed", err)
	}
	rep := ps.CheckModule("alpha.sys")
	if rep.Healthy != 0 {
		t.Errorf("CheckModule after Close reported %d healthy VMs, want 0", rep.Healthy)
	}
	for _, r := range rep.VMReports {
		if !errors.Is(r.Err, ErrSweepClosed) {
			t.Errorf("%s: err = %v, want ErrSweepClosed", r.TargetVM, r.Err)
		}
	}
}

// TestPoolSweepCloseFlushesTLBs pins that Close invalidates each handle's
// translation cache: the next session on the same handles starts from a cold
// TLB rather than trusting mappings cached before the release point.
func TestPoolSweepCloseFlushesTLBs(t *testing.T) {
	_, targets := testPool(t, 4)
	c := NewChecker(Config{})
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	ps.CheckModule("alpha.sys")
	walksBefore := targets[0].Handle.Stats().PTWalks
	ps.Close()

	ps2, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	ps2.CheckModule("alpha.sys")
	if walks := targets[0].Handle.Stats().PTWalks; walks <= walksBefore {
		t.Errorf("second sweep after Close added no page-table walks (%d -> %d); translation cache was not flushed", walksBefore, walks)
	}
}

// TestFullPairwiseSessionIgnoresEngineSettings pins that FullPairwise
// selects the pairwise oracle on every session path: with a shard size or
// identity dedup also set, a session still charges exactly
// the stages, elapsed time and work of a flat FullPairwise session.
func TestFullPairwiseSessionIgnoresEngineSettings(t *testing.T) {
	check := func(cfg Config) *PoolReport {
		_, targets := testPool(t, 6)
		ps, err := NewChecker(cfg).NewPoolSweep(targets)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		return ps.CheckModule("alpha.sys")
	}
	want := check(Config{FullPairwise: true})
	for name, cfg := range map[string]Config{
		"shard": {FullPairwise: true, ShardSize: 4},
		"dedup": {FullPairwise: true, DedupIdentical: true},
	} {
		got := check(cfg)
		if got.Stages != want.Stages || got.Elapsed != want.Elapsed || got.Timing != want.Timing {
			t.Errorf("%s: stages %+v elapsed %v timing %+v, want the oracle's %+v %v %+v",
				name, got.Stages, got.Elapsed, got.Timing, want.Stages, want.Elapsed, want.Timing)
		}
	}
}

// countingPool is a target slice under a fixed identity stamp that records
// every VM whose identity a session asks for.
type countingPool struct {
	targetPool
	stamp uint64
	asked []int
}

func (p *countingPool) Identity(i int) (uint64, bool) {
	p.asked = append(p.asked, i)
	return p.targetPool.Identity(i)
}

func (p *countingPool) IdentityStamp() (uint64, bool) { return p.stamp, true }

// TestWarmDedupSweepAsksOnlyLeaders: a dedup session over a pool whose
// identity stamp matches the last one reuses that session's groups, so it
// asks Pool.Identity only for group leaders (the digest cache's content
// tokens) and never samples the followers; a new stamp samples every VM
// again.
func TestWarmDedupSweepAsksOnlyLeaders(t *testing.T) {
	_, targets := testPool(t, 6)
	for i := range targets {
		id := uint64(i % 2) // two identity groups, led by VMs 0 and 1
		targets[i].Identity = func() (uint64, bool) { return id, true }
	}
	c := NewChecker(Config{DedupIdentical: true, DigestCache: cas.NewStore(0)})
	sweep := func(stamp uint64) (*countingPool, *PoolSweep) {
		t.Helper()
		p := &countingPool{targetPool: targets, stamp: stamp}
		ps, err := c.NewPoolSweepFrom(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep := ps.CheckModule("alpha.sys"); rep.Healthy != len(targets) {
			t.Fatalf("stamp %d: %d healthy VMs, want %d", stamp, rep.Healthy, len(targets))
		}
		ps.Close()
		return p, ps
	}

	if p, ps := sweep(1); !ps.Regrouped || len(p.asked) < len(targets) {
		t.Fatalf("cold session: regrouped %v, asked %v; want every VM sampled", ps.Regrouped, p.asked)
	}
	p, ps := sweep(1)
	if ps.Regrouped {
		t.Error("warm session with an unchanged stamp regrouped")
	}
	for _, i := range p.asked {
		if i > 1 {
			t.Errorf("warm session asked follower VM %d for its identity (asked %v)", i, p.asked)
		}
	}
	if len(p.asked) == 0 {
		t.Error("warm session asked no leader for its cache token")
	}
	if p, ps := sweep(2); !ps.Regrouped || len(p.asked) < len(targets) {
		t.Errorf("session under a new stamp: regrouped %v, asked %v; want every VM sampled", ps.Regrouped, p.asked)
	}
}
