package modchecker

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"modchecker/internal/stress"
)

// simcostLedger renders one line per measured step of the simcost
// scenarios: the exact simulated time, its fetch/digest/compare split, and
// the introspection and digest-store work the step did.
type simcostLedger struct {
	buf   bytes.Buffer
	cloud *Cloud
	store *DigestStore // nil: cas_hits stays 0
	walks uint64
	read  uint64
	hits  uint64
}

// begin snapshots the counters a step's deltas are taken against.
func (l *simcostLedger) begin(cloud *Cloud, store *DigestStore) {
	l.cloud, l.store = cloud, store
	st := cloud.IntrospectionStats()
	l.walks, l.read, l.hits = st.PTWalks, st.BytesRead, 0
	if store != nil {
		l.hits = store.Stats().Hits
	}
}

// record writes one step's line and re-snapshots the counters.
func (l *simcostLedger) record(step string, sim, fetch, digest, compare time.Duration, alerts int) {
	st := l.cloud.IntrospectionStats()
	var hits uint64
	if l.store != nil {
		hits = l.store.Stats().Hits - l.hits
	}
	fmt.Fprintf(&l.buf, "%s sim_ns=%d fetch_ns=%d digest_ns=%d compare_ns=%d pt_walks=%d bytes_read=%d cas_hits=%d alerts=%d\n",
		step, sim.Nanoseconds(), fetch.Nanoseconds(), digest.Nanoseconds(), compare.Nanoseconds(),
		st.PTWalks-l.walks, st.BytesRead-l.read, hits, alerts)
	l.begin(l.cloud, l.store)
}

// sweep runs one scanner sweep and records it.
func (l *simcostLedger) sweep(t *testing.T, step string, sc *Scanner) {
	t.Helper()
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	l.record(step, rep.Simulated, rep.Timing.Fetch, rep.Timing.Digest, rep.Timing.Compare, len(rep.Alerts))
}

// simcostRun drives every simcost scenario once at a fixed seed, each on a
// fresh cloud, and returns the ledger. The scenarios mirror the benchmarks
// whose simulated time must not drift under host-side optimizations:
//
//   - paper15: perfbench's paper15 workload at seed 1 — 15 booted clones,
//     WithParallel, TCPIRPHOOK in tcpip.sys and Rustock.B in ntfs.sys on
//     seed-chosen VMs — swept twice by the scanner.
//   - fig7-legacy / fig7-pipeline: one BenchmarkFig7Sweep15 iteration each
//     (15 VMs, seed 42): the sequential full-pairwise CheckPool per module
//     without translation caches, and the parallel clustered PoolSweep.
//   - fleet1k: one BenchmarkFleetSweep/vms=1000 iteration.
//   - cached15: BenchmarkCachedSweep/vms=15, its cold sweep and one warm one.
//   - churn32: fleet256-churn's revert+patch step on a 32-VM fleet behind a
//     digest store — a cold sweep, a sweep after patching hal.dll on 4 VMs,
//     and one after reverting them and patching 4 others.
//   - scan4k: fleet100k-dedup's scanner sweep scaled to 4096 clones of 4
//     templates (sharded, identity dedup, its three modules), swept
//     twice, plus the SHA-256 of both sweeps' WriteJSON bytes.
//   - trace300: a traced parallel dedup scanner over 300 clones of 4
//     templates (shard 64), swept twice, plus the SHA-256 of the Chrome
//     trace export: every dedup follower's zero-cost list and fetch task
//     keeps its event, lane and timestamp.
//   - mapped15: the fig7-pipeline sweep with WithMappedCopy — the bulk
//     mapping copy strategy (ablation A3), which pays vmi.CostMappedPage
//     per page instead of a translated page-wise copy.
//   - reloc15: the fig7-pipeline sweep with WithRelocNormalizer (ablation
//     A2) on the E1–E4 infected 15-VM cloud (infectedCloud, seed 42): each
//     copy is normalized at its own .reloc sites and hashed, charged at
//     parse time, and the E4 copy carries a .reloc table of its own.
//   - fig8-loaded: one BenchmarkFig8RuntimeLoaded/VMs=12 iteration on the
//     mapped15 cloud — 12 guests under HeavyLoad, past the 8-core knee, so
//     the hypervisor's contention curve stretches every charge.
//   - fig9: experiments.Fig9 at seed 1 (120 ticks, two windows in which a
//     searcher copies http.sys out of Dom1 of a 2-VM cloud), plus the
//     SHA-256 of the sampled guest counters.
//   - faulted15: the fig7-pipeline sweep with WithRetry(DefaultRetryPolicy)
//     under a seeded fault plan that makes 2% of Dom4's, Dom8's and Dom13's
//     reads fail transiently, so the retry backoff is charged.
func simcostRun(t *testing.T) []byte {
	t.Helper()
	var l simcostLedger

	cloud := testCloud(t, 15, 1)
	names := cloud.VMNames()
	perm := rand.New(rand.NewSource(1)).Perm(len(names))
	for i, preset := range []string{"tcpirphook", "rustock.b"} {
		if err := InfectPreset(cloud, names[perm[i]], preset); err != nil {
			t.Fatal(err)
		}
	}
	sc := cloud.NewScanner(WithParallel())
	l.begin(cloud, nil)
	l.sweep(t, "paper15 sweep=1", sc)
	l.sweep(t, "paper15 sweep=2", sc)

	legacy, err := NewCloud(CloudConfig{VMs: 15, Seed: 42, NoTranslationCache: true})
	if err != nil {
		t.Fatal(err)
	}
	checker := legacy.NewChecker(WithFullPairwise())
	mods, err := checker.ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	l.begin(legacy, nil)
	var sim time.Duration
	var stages StageTiming
	flagged := 0
	for _, m := range mods {
		rep, err := checker.CheckPool(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		sim += rep.Elapsed
		stages.Fetch += rep.Stages.Fetch
		stages.Digest += rep.Stages.Digest
		stages.Compare += rep.Stages.Compare
		flagged += len(rep.Flagged)
	}
	l.record("fig7-legacy", sim, stages.Fetch, stages.Digest, stages.Compare, flagged)

	pipeline, err := NewCloud(CloudConfig{VMs: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	l.poolSweep(t, "fig7-pipeline", pipeline.NewChecker(WithParallel()))

	fleet, err := NewCloud(CloudConfig{VMs: 1000, Templates: 4, Seed: 42, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	fc := fleet.NewChecker(WithShardSize(256), WithIdentityDedup())
	l.begin(fleet, nil)
	sweep, err := fc.NewPoolSweep()
	if err != nil {
		t.Fatal(err)
	}
	sim = sweep.ListElapsed
	stages, flagged = StageTiming{}, 0
	sweep.CheckModulesFunc([]string{"dummy.sys", "hal.dll", "ndis.sys"}, func(rep *PoolReport) {
		sim += rep.Elapsed
		stages.Fetch += rep.Stages.Fetch
		stages.Digest += rep.Stages.Digest
		stages.Compare += rep.Stages.Compare
		flagged += len(rep.Flagged)
	})
	sweep.Close()
	l.record("fleet1k", sim, stages.Fetch, stages.Digest, stages.Compare, flagged)

	cached, err := NewCloud(CloudConfig{VMs: 15, Templates: 4, Seed: 42, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	store := NewDigestStore(0)
	sc = cached.NewScanner(WithDigestCache(store))
	l.begin(cached, store)
	l.sweep(t, "cached15 cold", sc)
	l.sweep(t, "cached15 warm", sc)

	churn, err := NewCloud(CloudConfig{VMs: 32, Templates: 4, Seed: 3, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	names = churn.VMNames()
	for _, vm := range names {
		if err := churn.Domain(vm).TakeSnapshot("boot"); err != nil {
			t.Fatal(err)
		}
	}
	store = NewDigestStore(0)
	sc = churn.NewScanner(WithDigestCache(store))
	l.begin(churn, store)
	l.sweep(t, "churn32 cold", sc)
	// Never the first VM: it is the sweep's reference (see perfbench).
	order := rand.New(rand.NewSource(3)).Perm(len(names) - 1)
	var patched []string
	for step := 1; step <= 2; step++ {
		for _, vm := range patched {
			if err := churn.Domain(vm).Revert("boot"); err != nil {
				t.Fatal(err)
			}
		}
		patched = patched[:0]
		for _, k := range order[4*(step-1) : 4*step] {
			patched = append(patched, names[1+k])
		}
		for _, vm := range patched {
			if err := InfectOpcode(churn, vm, "hal.dll"); err != nil {
				t.Fatal(err)
			}
		}
		l.sweep(t, fmt.Sprintf("churn32 step=%d", step), sc)
	}

	scan, err := NewCloud(CloudConfig{VMs: 4096, Templates: 4, Seed: 1, Cores: 800})
	if err != nil {
		t.Fatal(err)
	}
	sc = scan.NewScanner(WithShardSize(256), WithIdentityDedup())
	sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
	l.begin(scan, nil)
	reports := sha256.New()
	for sweep := 1; sweep <= 2; sweep++ {
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		l.record(fmt.Sprintf("scan4k sweep=%d", sweep),
			rep.Simulated, rep.Timing.Fetch, rep.Timing.Digest, rep.Timing.Compare, len(rep.Alerts))
		if err := rep.WriteJSON(reports); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&l.buf, "scan4k report_sha256=%x\n", reports.Sum(nil))

	traced, err := NewCloud(CloudConfig{VMs: 300, Templates: 4, Seed: 5, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := traced.EnableTrace(1 << 14) // before NewScanner: checkers capture it
	sc = traced.NewScanner(WithParallel(), WithShardSize(64), WithIdentityDedup())
	sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
	l.begin(traced, nil)
	l.sweep(t, "trace300 sweep=1", sc)
	l.sweep(t, "trace300 sweep=2", sc)
	if tr.Dropped() != 0 {
		t.Fatalf("trace300: ring dropped %d events", tr.Dropped())
	}
	export := sha256.New()
	if err := tr.WriteChromeJSON(export); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&l.buf, "trace300 trace_sha256=%x\n", export.Sum(nil))

	mapped, err := NewCloud(CloudConfig{VMs: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	l.poolSweep(t, "mapped15", mapped.NewChecker(WithParallel(), WithMappedCopy()))
	l.poolSweep(t, "reloc15", infectedCloud(t, 42).NewChecker(WithParallel(), WithRelocNormalizer()))

	loaded := mapped.VMNames()[:12]
	for _, vm := range loaded {
		stress.Apply(mapped.Guest(vm), stress.HeavyLoad)
	}
	l.begin(mapped, nil)
	rep, err := mapped.NewChecker().CheckModule("http.sys", loaded[0], loaded[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	st := mapped.IntrospectionStats()
	fmt.Fprintf(&l.buf, "fig8-loaded vms=%d slowdown=%.6f sim_ns=%d searcher_ns=%d parser_ns=%d checker_ns=%d pt_walks=%d bytes_read=%d successes=%d\n",
		len(loaded), mapped.Hypervisor().Slowdown(), rep.Timing.Total().Nanoseconds(), rep.Timing.Searcher.Nanoseconds(),
		rep.Timing.Parser.Nanoseconds(), rep.Timing.Checker.Nanoseconds(), st.PTWalks-l.walks, st.BytesRead-l.read, rep.Successes)

	l.fig9(t)

	faulted, err := NewCloud(CloudConfig{VMs: 15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(15)
	for _, vm := range []string{"Dom4", "Dom8", "Dom13"} {
		plan.FlakyReads(vm, 0.02)
	}
	faulted.InstallFaultPlan(plan)
	l.poolSweep(t, "faulted15", faulted.NewChecker(WithParallel(), WithRetry(DefaultRetryPolicy())))
	return l.buf.Bytes()
}

// SimcostFig9Line renders the fig9 ledger line from experiments.Fig9(120,
// 1). That package imports this one, so the external test package, which
// may import both, sets it.
var SimcostFig9Line func() (string, error)

// fig9 records the fig9 line: the Dom0 time, walks and bytes of the
// window copies, and the SHA-256 of the sampled guest counters.
func (l *simcostLedger) fig9(t *testing.T) {
	t.Helper()
	if SimcostFig9Line == nil {
		t.Fatal("SimcostFig9Line is not set")
	}
	line, err := SimcostFig9Line()
	if err != nil {
		t.Fatal(err)
	}
	l.buf.WriteString(line)
}

// poolSweep checks every module Dom1 lists in one pool sweep over all of
// the checker's VMs and records the sweep, its list walk included (Dom1's
// discovery walk is not).
func (l *simcostLedger) poolSweep(t *testing.T, step string, checker *Checker) {
	t.Helper()
	mods, err := checker.ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	l.begin(checker.cloud, nil)
	sweep, err := checker.NewPoolSweep()
	if err != nil {
		t.Fatal(err)
	}
	defer sweep.Close()
	sim := sweep.ListElapsed
	var stages StageTiming
	flagged := 0
	modules := make([]string, len(mods))
	for i, m := range mods {
		modules[i] = m.Name
	}
	for _, rep := range sweep.CheckModules(modules) {
		sim += rep.Elapsed
		stages.Fetch += rep.Stages.Fetch
		stages.Digest += rep.Stages.Digest
		stages.Compare += rep.Stages.Compare
		flagged += len(rep.Flagged)
	}
	l.record(step, sim, stages.Fetch, stages.Digest, stages.Compare, flagged)
}

// TestSimCostGolden byte-compares the simulated cost of the simcost
// scenarios with testdata/simcost.golden, generated before the leaf-layer
// optimizations of Algorithm 2 and MD5, for scan4k before lazy
// introspection targets, for trace300 before per-group sweep state, for
// mapped15 before dedup sweeps kept their identity groups, and for reloc15
// before the reloc-table normalizer joined the digest path (see
// testdata/README.md for the exact commands).
// Host-side optimizations must leave every simulated nanosecond, stage
// split, page-table walk, byte read, store hit and scan4k report byte as
// it was; any drift shows up here.
func TestSimCostGolden(t *testing.T) {
	got := simcostRun(t)
	path := filepath.Join("testdata", "simcost.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("simulated costs differ from %s:\n got: %s\nwant: %s", path, got, want)
	}
}
