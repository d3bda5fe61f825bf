package modchecker

import (
	"strings"
	"testing"
	"time"

	"modchecker/internal/core"
	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/stress"
)

// guestBuildV2 builds the "updated" ndis.sys used by cluster tests.
func guestBuildV2() ([]byte, error) {
	return guest.BuildImage(guest.ModuleSpec{
		Name: "ndis-v2", TextSize: 128 << 10, DataSize: 32 << 10, RdataSize: 8 << 10,
		PreferredBase: 0x10000,
		Imports:       []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}},
	})
}

func testCloud(t testing.TB, vms int, seed int64) *Cloud {
	t.Helper()
	cloud, err := NewCloud(CloudConfig{VMs: vms, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cloud
}

func TestCloudDefaults(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cloud.Hypervisor().Cores() != 8 {
		t.Errorf("default cores = %d", cloud.Hypervisor().Cores())
	}
	names := cloud.VMNames()
	if len(names) != 2 || names[0] != "Dom1" || names[1] != "Dom2" {
		t.Errorf("VMNames = %v", names)
	}
}

func TestCloudPaperScale(t *testing.T) {
	// The paper's full configuration: 15 XP clones.
	cloud := testCloud(t, 15, 42)
	if len(cloud.VMNames()) != 15 {
		t.Fatalf("%d VMs", len(cloud.VMNames()))
	}
	// All VMs expose the full standard module set via introspection.
	checker := cloud.NewChecker()
	mods, err := checker.ListModules("Dom15")
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 7 {
		t.Errorf("Dom15 exposes %d modules", len(mods))
	}
}

func TestCloudDeterminism(t *testing.T) {
	a := testCloud(t, 3, 9)
	b := testCloud(t, 3, 9)
	for _, name := range a.VMNames() {
		ma := a.Guest(name).Module("hal.dll")
		mb := b.Guest(name).Module("hal.dll")
		if ma.Base != mb.Base {
			t.Errorf("%s: bases differ across identically-seeded clouds", name)
		}
	}
}

func TestGuestAccessors(t *testing.T) {
	cloud := testCloud(t, 2, 1)
	if cloud.Guest("Dom1") == nil || cloud.Domain("Dom1") == nil {
		t.Error("accessors failed")
	}
	if cloud.Guest("DomX") != nil || cloud.Domain("DomX") != nil {
		t.Error("bogus VM found")
	}
	if len(cloud.Guests()) != 2 {
		t.Error("Guests() wrong length")
	}
}

func TestTargetErrors(t *testing.T) {
	cloud := testCloud(t, 2, 1)
	if _, err := cloud.Target("DomX"); err == nil {
		t.Error("target on bogus VM succeeded")
	}
	if _, err := cloud.Targets("Dom1", "DomX"); err == nil {
		t.Error("targets with bogus VM succeeded")
	}
	if _, err := cloud.OpenVMI("DomX"); err == nil {
		t.Error("OpenVMI on bogus VM succeeded")
	}
}

func TestCheckModuleDefaultsToAllPeers(t *testing.T) {
	cloud := testCloud(t, 4, 2)
	rep, err := cloud.NewChecker().CheckModule("http.sys", "Dom2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparisons != 3 {
		t.Errorf("comparisons = %d, want 3", rep.Comparisons)
	}
	for _, p := range rep.Pairs {
		if p.PeerVM == "Dom2" {
			t.Error("target compared against itself")
		}
	}
}

func TestCheckAllCatalogModules(t *testing.T) {
	cloud := testCloud(t, 3, 3)
	checker := cloud.NewChecker()
	mods, err := checker.ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		rep, err := checker.CheckModule(m.Name, "Dom1")
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if rep.Verdict != VerdictClean {
			t.Errorf("%s: %v (%v)", m.Name, rep.Verdict, rep.MismatchedComponents())
		}
	}
}

func TestInfectHelpers(t *testing.T) {
	cases := []struct {
		name   string
		module string
		apply  func(c *Cloud) error
		want   []string // substrings of expected mismatched components
	}{
		{"opcode", "hal.dll", func(c *Cloud) error { return InfectOpcode(c, "Dom2", "hal.dll") }, []string{".text"}},
		{"inline-live", "ndis.sys", func(c *Cloud) error { return InfectInlineHookLive(c, "Dom2", "ndis.sys") }, []string{".text"}},
		{"stub", "ntfs.sys", func(c *Cloud) error { return InfectStubPatch(c, "Dom2", "ntfs.sys", "DOS", "CHK") }, []string{"IMAGE_DOS_HEADER"}},
		{"dllhook", "http.sys", func(c *Cloud) error { return InfectDLLHook(c, "Dom2", "http.sys", "evil.dll", "spy") }, []string{"IMAGE_NT_HEADER", "IMAGE_OPTIONAL_HEADER", ".text"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cloud := testCloud(t, 4, 11)
			if err := tc.apply(cloud); err != nil {
				t.Fatalf("infect: %v", err)
			}
			rep, err := cloud.NewChecker().CheckModule(tc.module, "Dom2")
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != VerdictAltered {
				t.Fatalf("verdict = %v", rep.Verdict)
			}
			got := strings.Join(rep.MismatchedComponents(), ",")
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("mismatched %q missing %q", got, w)
				}
			}
		})
	}
}

func TestInfectErrors(t *testing.T) {
	cloud := testCloud(t, 2, 1)
	if err := InfectPreset(cloud, "DomX", "opcode-patch"); err == nil {
		t.Error("infecting bogus VM succeeded")
	}
	if err := InfectPreset(cloud, "Dom1", "bogus"); err == nil {
		t.Error("bogus preset succeeded")
	}
	if err := InfectOpcode(cloud, "DomX", "hal.dll"); err == nil {
		t.Error("opcode on bogus VM succeeded")
	}
	if err := InfectOpcode(cloud, "Dom1", "http.sys"); err == nil {
		t.Error("opcode on marker-less module succeeded")
	}
	if err := InfectDLLHook(cloud, "DomX", "http.sys", "a.dll", "f"); err == nil {
		t.Error("dllhook on bogus VM succeeded")
	}
	if err := InfectInlineHookLive(cloud, "DomX", "hal.dll"); err == nil {
		t.Error("live hook on bogus VM succeeded")
	}
	if err := InfectStubPatch(cloud, "DomX", "hal.dll", "DOS", "CHK"); err == nil {
		t.Error("stub patch on bogus VM succeeded")
	}
}

func TestInfectionPresetsListing(t *testing.T) {
	ps := InfectionPresets()
	if len(ps) != 5 {
		t.Fatalf("%d presets", len(ps))
	}
	for _, p := range ps {
		if p.Name == "" || p.Module == "" || p.Description == "" {
			t.Errorf("incomplete preset %+v", p)
		}
	}
}

func TestAllPresetsDetected(t *testing.T) {
	for _, p := range InfectionPresets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cloud := testCloud(t, 5, 21)
			if err := InfectPreset(cloud, "Dom4", p.Name); err != nil {
				t.Fatalf("infect: %v", err)
			}
			pool, err := cloud.NewChecker().CheckPool(p.Module)
			if err != nil {
				t.Fatal(err)
			}
			if len(pool.Flagged) != 1 || pool.Flagged[0] != "Dom4" {
				t.Errorf("flagged = %v", pool.Flagged)
			}
		})
	}
}

func TestSnapshotRevertWorkflow(t *testing.T) {
	cloud := testCloud(t, 3, 31)
	dom := cloud.Domain("Dom2")
	if err := dom.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}
	if err := InfectPreset(cloud, "Dom2", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	checker := cloud.NewChecker()
	pool, err := checker.CheckPool("hal.dll")
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Flagged) != 1 {
		t.Fatalf("flagged = %v", pool.Flagged)
	}
	if err := dom.Revert("clean"); err != nil {
		t.Fatal(err)
	}
	pool, err = checker.CheckPool("hal.dll")
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Flagged) != 0 {
		t.Errorf("still flagged after revert: %v", pool.Flagged)
	}
}

func TestCheckerOptionsCombined(t *testing.T) {
	cloud := testCloud(t, 4, 41)
	if err := InfectPreset(cloud, "Dom3", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]CheckerOption{
		{WithParallel()},
		{WithMappedCopy()},
		{WithRelocNormalizer()},
		{WithParallel(), WithMappedCopy(), WithRelocNormalizer()},
	} {
		pool, err := cloud.NewChecker(opts...).CheckPool("hal.dll")
		if err != nil {
			t.Fatal(err)
		}
		if len(pool.Flagged) != 1 || pool.Flagged[0] != "Dom3" {
			t.Errorf("opts %d: flagged = %v", len(opts), pool.Flagged)
		}
	}
}

func TestContentionStretchesTiming(t *testing.T) {
	cloud := testCloud(t, 15, 51)
	checker := cloud.NewChecker()
	idle, err := checker.CheckModule("http.sys", "Dom1")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range cloud.Guests() {
		stress.Apply(g, stress.HeavyLoad)
	}
	loaded, err := checker.CheckModule("http.sys", "Dom1")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Timing.Total() <= idle.Timing.Total() {
		t.Errorf("loaded timing %v not above idle %v", loaded.Timing.Total(), idle.Timing.Total())
	}
}

func TestOpenVMIChargesClock(t *testing.T) {
	cloud := testCloud(t, 2, 61)
	h, err := cloud.OpenVMI("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	before := cloud.Hypervisor().Clock().Now()
	buf := make([]byte, 64<<10)
	base := cloud.Guest("Dom1").Module("http.sys").Base
	if err := h.ReadVA(base, buf); err != nil {
		t.Fatal(err)
	}
	if cloud.Hypervisor().Clock().Now() == before {
		t.Error("raw VMI reads did not advance the hypervisor clock")
	}
}

// TestListModulesChargesClock pins that a standalone LDR-list walk is
// accounted on the hypervisor clock. Targets carry no per-primitive charge
// hook, so ListModules must charge the walk's cost itself — an uncharged
// walk would make module discovery free in the simulation.
func TestListModulesChargesClock(t *testing.T) {
	cloud := testCloud(t, 2, 62)
	before := cloud.Hypervisor().Clock().Now()
	mods, err := cloud.NewChecker().ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) == 0 {
		t.Fatal("no modules listed")
	}
	if cloud.Hypervisor().Clock().Now() == before {
		t.Error("ListModules did not charge the LDR walk to the hypervisor clock")
	}
}

// TestWarmListModulesAllocs pins the list walk's allocations: once a
// searcher has interned a guest's names, walking its 7-module list again
// allocates the module table and nothing per entry.
func TestWarmListModulesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations of its own; the count only holds in plain builds")
	}
	cloud := testCloud(t, 1, 42)
	target, err := cloud.Target("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(target.Handle, core.CopyPageWise)
	mods, err := s.ListModules()
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 7 {
		t.Fatalf("Dom1 lists %d modules, want 7", len(mods))
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.ListModules(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm ListModules made %v allocations, want at most 2", allocs)
	}
}

func TestCustomDisk(t *testing.T) {
	base := testCloud(t, 1, 1)
	disk := map[string][]byte{"hal.dll": base.Guest("Dom1").DiskImage("hal.dll")}
	cloud, err := NewCloud(CloudConfig{VMs: 2, Seed: 5, Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	mods, err := cloud.NewChecker().ListModules("Dom1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 1 || mods[0].Name != "hal.dll" {
		t.Errorf("modules = %v", mods)
	}
}

func TestVerdictReexports(t *testing.T) {
	if VerdictClean.String() != "CLEAN" || VerdictAltered.String() != "ALTERED" {
		t.Error("re-exported verdicts broken")
	}
	var pt PhaseTiming
	pt.Searcher = time.Millisecond
	if pt.Total() != time.Millisecond {
		t.Error("PhaseTiming re-export broken")
	}
}

// TestClusterPoolPublicAPI exercises the version-aware sweep through the
// facade: a fleet-wide rolling update of ndis.sys (half done) clusters
// into two groups with nothing flagged, while an infected VM shows up as
// a flagged singleton once a majority exists.
func TestClusterPoolPublicAPI(t *testing.T) {
	cloud := testCloud(t, 6, 101)
	// Roll the update onto half the fleet only.
	updated, err := guestBuildV2()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cloud.VMNames()[:3] {
		g := cloud.Guest(name)
		if err := g.ReplaceDiskImage("ndis.sys", updated); err != nil {
			t.Fatal(err)
		}
		if err := g.UnloadModule("ndis.sys"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.LoadModule("ndis.sys"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := cloud.NewChecker().ClusterPool("ndis.sys")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 2 || rep.MajorityCluster != -1 || len(rep.Flagged) != 0 {
		t.Errorf("rolling update report: %+v", rep)
	}

	// Now an infection on a fully-updated pool.
	cloud2 := testCloud(t, 5, 103)
	if err := InfectPreset(cloud2, "Dom4", "opcode-patch"); err != nil {
		t.Fatal(err)
	}
	rep2, err := cloud2.NewChecker().ClusterPool("hal.dll")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Flagged) != 1 || rep2.Flagged[0] != "Dom4" {
		t.Errorf("flagged = %v", rep2.Flagged)
	}
}
