package modchecker_test

import (
	"fmt"
	"testing"

	"modchecker"
)

// benchCachedSweep measures the steady state of the cross-sweep digest
// cache: a warm sweep over an unchanged pool of n VMs. The first sweep
// (outside the timed region) populates the store; every timed iteration
// re-sweeps the same clean pool, so fetch work collapses to cache lookups —
// the O(changed modules) curve the cache exists for. Compare sim-ms/op and
// bytes-read/op against the cold sweep reported alongside as cold-sim-ms.
//
// Reported metrics: sim-ms/op (simulated time of one warm sweep),
// cold-sim-ms (the one cold sweep, for the steady-state ratio),
// cas-hits/op and bytes-read/op (guest bytes actually copied per warm
// sweep — near zero once the store is warm).
func benchCachedSweep(b *testing.B, n int) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{
		VMs: n, Templates: 4, Seed: 42, Cores: 8 * ((n + 999) / 1000),
	})
	if err != nil {
		b.Fatal(err)
	}
	store := modchecker.NewDigestStore(0)
	sc := cloud.NewScanner(modchecker.WithDigestCache(store))

	hv := cloud.Hypervisor()
	cold, err := sc.Sweep()
	if err != nil {
		b.Fatal(err)
	}
	if !cold.Clean() {
		b.Fatalf("cold sweep not clean: %+v", cold.Alerts)
	}

	var simMS float64
	var hits, bytesRead uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.Clock().Reset()
		preStats := store.Stats()
		preBytes := cloud.IntrospectionStats().BytesRead
		rep, err := sc.Sweep()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("warm sweep not clean: %+v", rep.Alerts)
		}
		simMS += rep.Simulated.Seconds() * 1e3
		hits += store.Stats().Hits - preStats.Hits
		bytesRead += cloud.IntrospectionStats().BytesRead - preBytes
	}
	b.StopTimer()
	b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
	b.ReportMetric(cold.Simulated.Seconds()*1e3, "cold-sim-ms")
	b.ReportMetric(float64(hits)/float64(b.N), "cas-hits/op")
	b.ReportMetric(float64(bytesRead)/float64(b.N), "bytes-read/op")
}

// BenchmarkCachedSweep is the steady-state curve: warm cached
// sweeps at the paper's 15-VM pool and at fleet scale. The 1000-VM size is
// skipped in -short mode.
func BenchmarkCachedSweep(b *testing.B) {
	for _, n := range []int{15, 1000} {
		n := n
		b.Run(fmt.Sprintf("vms=%d", n), func(b *testing.B) {
			if testing.Short() && n > 15 {
				b.Skipf("%d VMs skipped in short mode", n)
			}
			benchCachedSweep(b, n)
		})
	}
}
