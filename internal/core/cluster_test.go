package core

import (
	"runtime/debug"
	"sync/atomic"
	"testing"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
)

// updateModuleOn swaps alpha.sys on a guest for the "v2" build and
// reloads, modeling one VM of a rolling update.
func updateModuleOn(t testing.TB, g *guest.Guest) {
	t.Helper()
	v2, err := guest.BuildImage(guest.ModuleSpec{
		Name: "alpha-v2", TextSize: 20 << 10, DataSize: 4 << 10, RdataSize: 2 << 10,
		PreferredBase: 0x10000, Marker: true,
		Imports: []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ReplaceDiskImage("alpha.sys", v2); err != nil {
		t.Fatal(err)
	}
	if err := g.UnloadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.LoadModule("alpha.sys"); err != nil {
		t.Fatal(err)
	}
}

func infectOn(t testing.TB, g *guest.Guest) {
	t.Helper()
	if err := rootkit.InfectDiskAndReload(g, "alpha.sys", func(img []byte) ([]byte, error) {
		out, _, err := rootkit.OpcodeReplace(img)
		return out, err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPoolClean(t *testing.T) {
	_, targets := testPool(t, 5)
	rep, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 1 || rep.Clusters[0].Size() != 5 {
		t.Fatalf("clusters = %+v", rep.Clusters)
	}
	if rep.MajorityCluster != 0 || len(rep.Flagged) != 0 || len(rep.Suspicious) != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestClusterPoolSingleInfection(t *testing.T) {
	guests, targets := testPool(t, 5)
	infectOn(t, guests[2])
	rep, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 2 {
		t.Fatalf("clusters = %+v", rep.Clusters)
	}
	if rep.Clusters[0].Size() != 4 || rep.Clusters[1].Size() != 1 {
		t.Errorf("cluster sizes %d/%d", rep.Clusters[0].Size(), rep.Clusters[1].Size())
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != targets[2].Name {
		t.Errorf("flagged = %v", rep.Flagged)
	}
}

// TestClusterPoolRollingUpdate is the scenario the plain majority vote
// cannot express: half the fleet runs v2, half still v1 — two large
// self-consistent clusters, nothing flagged, nothing suspicious.
func TestClusterPoolRollingUpdate(t *testing.T) {
	guests, targets := testPool(t, 6)
	for i := 0; i < 3; i++ {
		updateModuleOn(t, guests[i])
	}
	rep, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 2 || rep.Clusters[0].Size() != 3 || rep.Clusters[1].Size() != 3 {
		t.Fatalf("clusters = %+v", rep.Clusters)
	}
	if rep.MajorityCluster != -1 {
		t.Errorf("majority cluster = %d, want none", rep.MajorityCluster)
	}
	if len(rep.Flagged) != 0 || len(rep.Suspicious) != 0 {
		t.Errorf("flagged=%v suspicious=%v for a legitimate rolling update", rep.Flagged, rep.Suspicious)
	}
	// Contrast: the plain pool sweep sees a hopeless split.
	plain, err := NewChecker(Config{}).CheckPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Flagged)+len(plain.Inconclusive) == 0 {
		t.Error("plain sweep unexpectedly clean on a split pool")
	}
}

// TestClusterPoolUpdatePlusInfection: mid-rolling-update, one VM is also
// infected — three clusters, with the singleton marked suspicious.
func TestClusterPoolUpdatePlusInfection(t *testing.T) {
	guests, targets := testPool(t, 7)
	for i := 0; i < 3; i++ {
		updateModuleOn(t, guests[i])
	}
	infectOn(t, guests[5])
	rep, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) != 3 {
		t.Fatalf("clusters = %+v", rep.Clusters)
	}
	if len(rep.Suspicious) != 1 || rep.Suspicious[0] != targets[5].Name {
		t.Errorf("suspicious = %v", rep.Suspicious)
	}
}

func TestClusterPoolWithFaultyVM(t *testing.T) {
	guests, targets := testPool(t, 4)
	p := faults.NewPlan(1)
	p.FailForever(guests[2].Name(), 5)
	targets[2] = planTarget(guests[2], p)
	rep, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Errors[targets[2].Name]; !ok {
		t.Errorf("faulty VM not in Errors: %+v", rep.Errors)
	}
	if len(rep.Clusters) != 1 || rep.Clusters[0].Size() != 3 {
		t.Errorf("clusters = %+v", rep.Clusters)
	}
}

func TestClusterPoolTooSmall(t *testing.T) {
	_, targets := testPool(t, 1)
	if _, err := NewChecker(Config{}).ClusterPool("alpha.sys", targets); err == nil {
		t.Error("pool of 1 accepted")
	}
}

func TestClusterPoolParallel(t *testing.T) {
	guests, targets := testPool(t, 5)
	infectOn(t, guests[1])
	rep, err := NewChecker(Config{Parallel: true}).ClusterPool("alpha.sys", targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0] != targets[1].Name {
		t.Errorf("flagged = %v", rep.Flagged)
	}
}

// TestClusterPoolRecyclesFetchBuffers pins the fix for a sweep-scale pool
// leak: ClusterPool used to drop its fetch records on the floor after
// clustering, allocating a fresh SizeOfImage-sized buffer per VM per
// sweep. With GC disabled so the pool cannot be flushed between runs, a
// second identical sweep must be served entirely from the buffers the
// first sweep recycled — zero misses in any of the fetchBufPools.
func TestClusterPoolRecyclesFetchBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops a quarter of all Puts by design; the zero-miss invariant only holds in plain builds")
	}
	_, targets := testPool(t, 5)
	checker := NewChecker(Config{})

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var misses atomic.Int64
	for i := range fetchBufPools {
		oldNew := fetchBufPools[i].New
		fetchBufPools[i].New = func() any { misses.Add(1); return new([]byte) }
		defer func() { fetchBufPools[i].New = oldNew }()
	}

	if _, err := checker.ClusterPool("alpha.sys", targets); err != nil {
		t.Fatal(err)
	}
	warm := misses.Load()
	if _, err := checker.ClusterPool("alpha.sys", targets); err != nil {
		t.Fatal(err)
	}
	if got := misses.Load() - warm; got != 0 {
		t.Errorf("second ClusterPool sweep allocated %d fresh fetch buffers; all %d from the first sweep should have been recycled", got, warm)
	}
}
