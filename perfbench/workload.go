package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"modchecker"
)

// workload is one named input set. build makes a fresh environment from the
// seed alone, so two builds with one seed (the timed cloud and the traced
// run's twin) are identical and receive identical mutations.
type workload struct {
	name string
	why  string
	// warmups is how many sweeps setup runs before the first timed sweep
	// (the cold cached sweep, where there is a cache, is the first of them).
	warmups int
	build   func(seed int64) (*env, error)
}

// alertKey is one expected or observed non-clean verdict.
type alertKey struct {
	module, vm string
	verdict    modchecker.Verdict
}

func (k alertKey) String() string { return k.module + "@" + k.vm + "=" + k.verdict.String() }

// env is one built workload: the cloud, the scanner the closed loop drives,
// and the generator state that owns the ground truth.
type env struct {
	cloud   *modchecker.Cloud
	scanner *modchecker.Scanner
	// opts are the checker options the scanner was built with; the traced
	// run applies the same options to its decomposed twin sweep.
	opts  []modchecker.CheckerOption
	store *modchecker.DigestStore // nil when the workload runs uncached
	// modules restricts sweeps to a fixed module list; nil discovers the
	// full loaded-module catalog every sweep.
	modules []string
	// expected is the exact alert set the next sweep must produce.
	expected map[alertKey]bool
	// step, when set, mutates the pool before every sweep after setup and
	// updates expected.
	step func() error
}

// workloads lists every workload in the order BENCHMARK.json names them.
var workloads = []workload{
	{
		name:    "paper15",
		why:     "the paper's 15-clone testbed with two seeded rootkits: every sweep copies, normalizes and hashes every guest byte",
		warmups: 3,
		build:   buildPaper15,
	},
	{
		name:    "fleet256-warm",
		why:     "256 copy-on-write clones behind a warm digest cache: steady-state monitoring where sweeps read almost nothing",
		warmups: 3,
		build:   func(seed int64) (*env, error) { return buildFleet256(seed, false) },
	},
	{
		name:    "fleet256-churn",
		why:     "the warm fleet with 4 VMs reverted and 4 patched before each sweep: fresh fetches and digests of changed VMs beside cache hits",
		warmups: 3,
		build:   func(seed int64) (*env, error) { return buildFleet256(seed, true) },
	},
	{
		name:    "fleet100k-dedup",
		why:     "100000 clones through the sharded fleet engine with identity dedup: per-VM bookkeeping dominates",
		warmups: 3,
		build:   buildFleet100k,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// buildPaper15 boots the paper's testbed of 15 independently booted clones
// and infects two seed-chosen VMs: one with the TCPIRPHOOK live inline hook
// of tcpip.sys and one with the Rustock.B DLL hook of ntfs.sys.
func buildPaper15(seed int64) (*env, error) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: 15, Seed: seed})
	if err != nil {
		return nil, err
	}
	names := cloud.VMNames()
	perm := rand.New(rand.NewSource(seed)).Perm(len(names))
	e := &env{
		cloud:    cloud,
		opts:     []modchecker.CheckerOption{modchecker.WithParallel()},
		expected: map[alertKey]bool{},
	}
	for i, inf := range []struct{ preset, module string }{
		{"tcpirphook", "tcpip.sys"},
		{"rustock.b", "ntfs.sys"},
	} {
		vm := names[perm[i]]
		if err := modchecker.InfectPreset(cloud, vm, inf.preset); err != nil {
			return nil, err
		}
		e.expected[alertKey{inf.module, vm, modchecker.VerdictAltered}] = true
	}
	e.scanner = cloud.NewScanner(e.opts...)
	return e, nil
}

// churnVMs is how many VMs fleet256-churn reverts and patches per sweep.
const churnVMs = 4

// buildFleet256 forks 256 copy-on-write clones from 4 templates behind an
// in-memory digest store (what `modchecker -watch -cache` runs). With churn,
// every VM gets a boot snapshot, and each step reverts the previous step's
// patched VMs and applies the E1 opcode patch to hal.dll on 4 new
// seed-chosen VMs.
func buildFleet256(seed int64, churn bool) (*env, error) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: 256, Templates: 4, Seed: seed, Cores: 8})
	if err != nil {
		return nil, err
	}
	store := modchecker.NewDigestStore(0)
	e := &env{
		cloud:    cloud,
		store:    store,
		opts:     []modchecker.CheckerOption{modchecker.WithDigestCache(store)},
		expected: map[alertKey]bool{},
	}
	e.scanner = cloud.NewScanner(e.opts...)
	if !churn {
		return e, nil
	}
	const tag = "boot"
	names := cloud.VMNames()
	for _, vm := range names {
		if err := cloud.Domain(vm).TakeSnapshot(tag); err != nil {
			return nil, err
		}
	}
	// The churn walks a seeded permutation of every VM but the first, 4 at
	// a time. The first VM is the sweep's reference: its content token is
	// part of every cache key, so patching it would turn the next two
	// sweeps into cold ones and make per-sweep work depend on the seed.
	order := rand.New(rand.NewSource(seed)).Perm(len(names) - 1)
	next := 0
	var patched []string
	e.step = func() error {
		for _, vm := range patched {
			if err := cloud.Domain(vm).Revert(tag); err != nil {
				return err
			}
		}
		patched = patched[:0]
		for len(patched) < churnVMs {
			patched = append(patched, names[1+order[next]])
			next = (next + 1) % len(order)
		}
		sort.Strings(patched)
		clear(e.expected)
		for _, vm := range patched {
			if err := modchecker.InfectOpcode(cloud, vm, "hal.dll"); err != nil {
				return err
			}
			e.expected[alertKey{"hal.dll", vm, modchecker.VerdictAltered}] = true
		}
		return nil
	}
	return e, nil
}

// buildFleet100k forks 100000 clones from 4 templates (800 simulated cores,
// the paper's consolidation ratio scaled out) and sweeps three modules
// through the sharded fleet engine with lean reports and identity dedup.
func buildFleet100k(seed int64) (*env, error) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: 100000, Templates: 4, Seed: seed, Cores: 800})
	if err != nil {
		return nil, err
	}
	e := &env{
		cloud: cloud,
		opts: []modchecker.CheckerOption{
			modchecker.WithShardSize(256),
			modchecker.WithLeanReports(),
			modchecker.WithIdentityDedup(),
		},
		modules:  []string{"dummy.sys", "hal.dll", "ndis.sys"},
		expected: map[alertKey]bool{},
	}
	e.scanner = cloud.NewScanner(e.opts...)
	e.scanner.SetModules(e.modules)
	return e, nil
}

// tally is the correctness ledger of a run: checks attempted and failed,
// and the first contradiction of ground truth, if any.
type tally struct {
	attempted, failed int
	wrong             error
}

// verify checks one sweep report against the environment's ground truth:
// the alert set must equal the expected set exactly, and the sweep must be
// complete. It also counts VM×module checks and the ones that failed
// (VerdictError or a module that could not be checked on any VM).
func (e *env) verify(rep *modchecker.SweepReport, t *tally) {
	t.attempted += rep.VMs * (rep.ModulesChecked + len(rep.Errors))
	t.failed += rep.VMs * len(rep.Errors)
	got := make(map[alertKey]bool, len(rep.Alerts))
	for _, a := range rep.Alerts {
		if a.Verdict == modchecker.VerdictError {
			t.failed++
		}
		got[alertKey{a.Module, a.VM, a.Verdict}] = true
	}
	if t.wrong != nil {
		return
	}
	if err := diffAlerts(e.expected, got); err != nil {
		t.wrong = fmt.Errorf("sweep %d: verdicts contradict ground truth: %w", rep.Sweep, err)
	} else if rep.Partial || rep.ModulesChecked == 0 {
		t.wrong = fmt.Errorf("sweep %d: incomplete (partial=%v, modules=%d)", rep.Sweep, rep.Partial, rep.ModulesChecked)
	}
}

// diffAlerts reports the difference between two alert sets, or nil.
func diffAlerts(want, got map[alertKey]bool) error {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k.String())
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k.String())
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	return fmt.Errorf("missing %v, unexpected %v", missing, extra)
}
