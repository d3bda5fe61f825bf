package modchecker_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"modchecker"
)

// benchFleetSweep sweeps a representative module set across a copy-on-write
// fleet of n VMs in the fleet configuration: 4 fully booted templates with
// everything else forked from them, sharded clustering (256-VM shards),
// identity dedup, and streaming report folding. This is the
// tentpole measurement for scaling past the paper's 15-VM testbed: host
// wall time and allocation must stay near-flat in pool size (introspection
// is O(templates), bookkeeping O(pool)), and peak heap must stay bounded.
//
// Reported metrics: sim-ms/op (simulated testbed time for the sweep) and
// heap-MB (live heap after the sweep — the resident footprint a Dom0
// operator would see, dominated by the fleet's page tables).
func benchFleetSweep(b *testing.B, n int) {
	// 8 cores per 1000 guests, the paper's consolidation ratio scaled out:
	// a 100k-VM fleet lives on hundreds of hosts, not one 8-core box, so
	// simulated slowdown reflects per-host contention, not an absurdity.
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{
		VMs: n, Templates: 4, Seed: 42, Cores: 8 * ((n + 999) / 1000),
	})
	if err != nil {
		b.Fatal(err)
	}
	checker := cloud.NewChecker(
		modchecker.WithShardSize(256),
		modchecker.WithIdentityDedup(),
	)
	modules := []string{"dummy.sys", "hal.dll", "ndis.sys"}
	hv := cloud.Hypervisor()
	var simMS float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.Clock().Reset()
		sweep, err := checker.NewPoolSweep()
		if err != nil {
			b.Fatal(err)
		}
		simMS += sweep.ListElapsed.Seconds() * 1e3
		flagged := 0
		sweep.CheckModulesFunc(modules, func(rep *modchecker.PoolReport) {
			simMS += rep.Elapsed.Seconds() * 1e3
			flagged += len(rep.Flagged)
		})
		if flagged != 0 {
			b.Fatalf("clean fleet flagged %d VMs", flagged)
		}
		sweep.Close()
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
	runtime.KeepAlive(cloud) // heap-MB must include the resident fleet
	runtime.KeepAlive(checker)
}

// BenchmarkFleetSweep is the fleet scaling curve: the fleet sweep
// at 1k, 10k, and 100k VMs. 1k runs everywhere (it is the CI fleet-smoke
// leg); the larger sizes are skipped in -short mode.
func BenchmarkFleetSweep(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			if testing.Short() && n > 1000 {
				b.Skipf("%d VMs skipped in short mode", n)
			}
			benchFleetSweep(b, n)
		})
	}
}

// benchScannerSweep times what `modchecker -watch -json` repeats: one
// Scanner.Sweep plus its JSON report. Unlike BenchmarkFleetSweep, which
// times only the checker, this includes the scanner's own per-VM
// bookkeeping — partition, target opening, the health machine — and the
// report render. One untimed sweep first settles the health machine.
//
// The timed loop runs under the pprof label phase=sweep, so a CPU profile
// can leave out building the cloud (make profile-fleet):
//
//	go tool pprof -tagfocus phase=sweep cpu.prof
//
// Reported metrics: sim-ms/op (simulated testbed time per sweep) and
// report-B/op (size of the rendered JSON report).
func benchScannerSweep(b *testing.B, sc *modchecker.Scanner) {
	var buf bytes.Buffer
	sweep := func() *modchecker.SweepReport {
		rep, err := sc.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("clean sweep %d: %d alerts, %d errors", rep.Sweep, len(rep.Alerts), len(rep.Errors))
		}
		buf.Reset()
		if err := rep.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		return rep
	}
	sweep()
	var sim time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	pprof.Do(context.Background(), pprof.Labels("phase", "sweep"), func(context.Context) {
		for i := 0; i < b.N; i++ {
			sim += sweep().Simulated
		}
	})
	b.StopTimer()
	b.ReportMetric(sim.Seconds()*1e3/float64(b.N), "sim-ms/op")
	b.ReportMetric(float64(buf.Len()), "report-B/op")
}

// BenchmarkScannerSweep is the scanner leg of the fleet curve: the paper's
// 15-VM testbed (every module discovered, 7 x 15), then fleets of 1k and
// 100k VMs in the configuration of BenchmarkFleetSweep. 1k runs everywhere;
// 100k is skipped in -short mode. make fleet-smoke runs each fleet once.
func BenchmarkScannerSweep(b *testing.B) {
	b.Run("paper15", func(b *testing.B) {
		benchScannerSweep(b, mustCloud(b, 15, 42).NewScanner())
	})
	for _, n := range []int{1000, 100000} {
		n := n
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			if testing.Short() && n > 1000 {
				b.Skipf("%d VMs skipped in short mode", n)
			}
			cloud, err := modchecker.NewCloud(modchecker.CloudConfig{
				VMs: n, Templates: 4, Seed: 42, Cores: 8 * ((n + 999) / 1000),
			})
			if err != nil {
				b.Fatal(err)
			}
			sc := cloud.NewScanner(
				modchecker.WithShardSize(256),
				modchecker.WithIdentityDedup(),
			)
			sc.SetModules([]string{"dummy.sys", "hal.dll", "ndis.sys"})
			benchScannerSweep(b, sc)
		})
	}
}
