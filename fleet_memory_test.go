package modchecker

import (
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// fleetSweepMemory runs one pool sweep over a copy-on-write fleet with
// verified reads and returns (allocated, retained) bytes: total allocation
// churn during the sweep, and heap still live after it with the sweep's
// results held — every PoolReport on the baseline path, nothing but fold
// state on the streaming path. Retention is the heap the held results
// keep: it is read after the session is closed and two collections have
// run, so neither the session's per-VM state nor the buffer pools (whose
// victim cache survives one collection) count, once with the results
// alive and once after they are dropped.
//
// Both paths verify their reads, so both copy every VM they fetch: an
// unverified flat sweep checks clean copies in place and no longer
// allocates a buffer per VM.
func fleetSweepMemory(t *testing.T, vms int, streaming bool) (allocated, retained uint64) {
	t.Helper()
	cloud, err := NewCloud(CloudConfig{VMs: vms, Templates: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	opts := []CheckerOption{WithRetry(DefaultRetryPolicy())}
	if streaming {
		opts = append(opts, WithShardSize(16), WithIdentityDedup())
	}
	checker := cloud.NewChecker(opts...)
	session, err := checker.NewPoolSweep()
	if err != nil {
		t.Fatal(err)
	}
	modules := []string{"dummy.sys", "hal.dll", "ndis.sys"}

	var before, swept, after, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var held []*PoolReport
	alerts := 0
	if streaming {
		session.CheckModulesFunc(modules, func(pool *PoolReport) {
			for _, r := range pool.VMReports {
				if r.Verdict != VerdictClean {
					alerts++
				}
			}
		})
	} else {
		held = session.CheckModules(modules)
	}
	runtime.ReadMemStats(&swept)
	session.Close()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if !streaming && len(held) != len(modules) {
		t.Fatalf("baseline sweep returned %d reports", len(held))
	}
	if streaming && alerts != 0 {
		t.Fatalf("clean fleet raised %d alerts", alerts)
	}
	runtime.KeepAlive(held)
	held = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	allocated = swept.TotalAlloc - before.TotalAlloc
	if after.HeapAlloc > dropped.HeapAlloc {
		retained = after.HeapAlloc - dropped.HeapAlloc
	}
	// The reports reach the cloud through the session's targets; keep it
	// alive through both readings so its guests count in neither.
	runtime.KeepAlive(cloud)
	return allocated, retained
}

// TestStreamingSweepBoundsMemory: the point of the fleet engine is that
// sweep memory stops scaling with pool size. The held-in-memory flat path
// copies and parses every VM, so it allocates O(pool); the streaming
// path — sharded, deduplicated, reports folded and dropped —
// must allocate far less at the same size and grow sublinearly from a 64-VM
// to a 256-VM pool, and keep far less than the flat path's held reports.
// Margins are generous (3-4x) so the test pins the asymptotic claim, not
// allocator noise.
func TestStreamingSweepBoundsMemory(t *testing.T) {
	allocBase64, _ := fleetSweepMemory(t, 64, false)
	allocBase256, retBase256 := fleetSweepMemory(t, 256, false)
	allocStream64, _ := fleetSweepMemory(t, 64, true)
	allocStream256, retStream256 := fleetSweepMemory(t, 256, true)
	t.Logf("baseline  64: alloc %d", allocBase64)
	t.Logf("baseline 256: alloc %d retained %d", allocBase256, retBase256)
	t.Logf("streaming 64: alloc %d", allocStream64)
	t.Logf("streaming256: alloc %d retained %d", allocStream256, retStream256)

	if allocStream256 >= allocBase256/3 {
		t.Errorf("streaming 256-VM sweep allocated %d bytes, want < baseline/3 (%d)",
			allocStream256, allocBase256/3)
	}
	// Quadrupling the pool must cost the streaming path far less than the
	// 4x of linear growth (dedup makes introspection O(templates)); the
	// baseline, which introspects every VM, close to 4x.
	if allocStream256 >= 3*allocStream64 {
		t.Errorf("streaming sweep grew %d -> %d bytes (>= 3x) from 64 to 256 VMs",
			allocStream64, allocStream256)
	}
	if allocBase256 < 3*allocBase64 {
		t.Errorf("baseline sweep grew only %d -> %d bytes from 64 to 256 VMs; expected near-linear growth",
			allocBase64, allocBase256)
	}
	if retStream256 >= retBase256/3 {
		t.Errorf("streaming sweep retained %d bytes, want < a third of baseline's %d",
			retStream256, retBase256)
	}
}

// warmScannerSweepAlloc returns the bytes one warm Scanner.Sweep allocates
// over a clean vms-VM fleet behind a digest cache: the cold sweep fills the
// store, and the measured sweep replays every VM from it.
func warmScannerSweepAlloc(t *testing.T, vms int) uint64 {
	t.Helper()
	cloud, err := NewCloud(CloudConfig{VMs: vms, Templates: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner(WithDigestCache(NewDigestStore(0)))
	if _, err := sc.Sweep(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := sc.Sweep()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("warm sweep of a clean %d-VM fleet not clean: %+v", vms, rep.Alerts)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmScannerSweepAllocatesLinearly: a warm scanner sweep does O(pool)
// work per module (a store lookup per VM, a verdict per cluster), so
// quadrupling the fleet should roughly quadruple its allocation. Deriving a
// per-pair report for every VM would grow it about 16x instead.
func TestWarmScannerSweepAllocatesLinearly(t *testing.T) {
	a64 := warmScannerSweepAlloc(t, 64)
	a256 := warmScannerSweepAlloc(t, 256)
	t.Logf("warm sweep alloc: 64 VMs %d B, 256 VMs %d B (%.1fx)", a64, a256, float64(a256)/float64(a64))
	if a256 >= 6*a64 {
		t.Errorf("warm 256-VM sweep allocated %d B, want < 6x the 64-VM sweep's %d B", a256, a64)
	}
}

// dedupSweepAlloc returns the heap objects and bytes each of `sweeps`
// warm dedup scanner sweeps and their WriteJSON allocate over a clean
// vms-VM fleet of 4 templates (shard 256, 3 modules). The first
// sweep warms the scanner; the ones after it are measured, each on one P
// with the garbage collector held off.
func dedupSweepAlloc(t *testing.T, vms, sweeps int) (objects, bytes []uint64) {
	t.Helper()
	cloud, err := NewCloud(CloudConfig{VMs: vms, Templates: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner(WithShardSize(256), WithIdentityDedup())
	sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
	if _, err := sc.Sweep(); err != nil {
		t.Fatal(err)
	}
	measure := func() {
		var before, after runtime.MemStats
		runtime.GC()
		// A collection during the sweep would empty the fetch-buffer pools,
		// and a sweep moved to another P misses the buffers left in the
		// first P's private pool slot; either makes the sweep refill the
		// pools, and on a loaded host that happens often enough to decide
		// the result. Hold the collector off and sweep on one P.
		gc := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gc)
		procs := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(procs)
		runtime.ReadMemStats(&before)
		rep, err := sc.Sweep()
		if err == nil {
			err = rep.WriteJSON(io.Discard)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("dedup sweep of a clean %d-VM fleet not clean: %+v", vms, rep.Alerts)
		}
		objects = append(objects, after.Mallocs-before.Mallocs)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	for range sweeps {
		measure()
	}
	return objects, bytes
}

// TestDedupSweepObjectsIndependentOfFleet: under identity dedup a sweep
// reads only the template leaders, and its per-VM bookkeeping is index
// arrays and the health view's state bytes, not an object per VM. Quadrupling the fleet
// from 1024 to 4096 clones must therefore add far fewer than one heap
// object per added VM; a Target with closures per VM, or a pool-sized
// array per module, adds several. The bound is a quarter object per VM,
// so the test pins the asymptotic claim, not allocator noise.
func TestDedupSweepObjectsIndependentOfFleet(t *testing.T) {
	objects, _ := dedupSweepAlloc(t, 1024, 1)
	small := objects[0]
	objects, _ = dedupSweepAlloc(t, 4096, 1)
	large := objects[0]
	perVM := (float64(large) - float64(small)) / (4096 - 1024)
	t.Logf("objects per dedup sweep: 1024 VMs %d, 4096 VMs %d (%.3f per added VM)", small, large, perVM)
	if perVM >= 0.25 {
		t.Errorf("dedup sweep added %.3f heap objects per added VM (1024 VMs: %d, 4096 VMs: %d), want < 0.25",
			perVM, small, large)
	}
}

// TestDedupSweepBytesPerVM: what a warm dedup sweep and its report still
// allocate per VM is a byte of health state and the report's share of
// WriteJSON's buffer; the VM→group map is built once and kept while no
// identity changes. Quadrupling the fleet from 1024 to 4096 clones must
// add fewer than 16 bytes per added VM; a fresh 4-byte group map per sweep
// costs about 4 more, and a map entry per VM (a name-keyed health map)
// several times the bound. A sweep now and then refills a fetch buffer
// pool that a collection emptied, about 0.5 MB at either size, so each
// size's figure is the least of 5 sweeps.
func TestDedupSweepBytesPerVM(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops a quarter of all Puts by design, so every sweep refills fetch buffers")
	}
	_, bs := dedupSweepAlloc(t, 1024, 5)
	small := slices.Min(bs)
	_, bs = dedupSweepAlloc(t, 4096, 5)
	large := slices.Min(bs)
	perVM := (float64(large) - float64(small)) / (4096 - 1024)
	t.Logf("bytes per dedup sweep: 1024 VMs %d, 4096 VMs %d (%.1f per added VM)", small, large, perVM)
	if perVM >= 16 {
		t.Errorf("dedup sweep added %.1f bytes per added VM (1024 VMs: %d B, 4096 VMs: %d B), want < 16",
			perVM, small, large)
	}
}
