package modchecker_test

import (
	"testing"
	"time"

	"modchecker"
)

// benchSweep15 is the PR's headline measurement: sweep every module of the
// standard catalog across the paper's 15-VM pool. The legacy configuration
// is the paper-faithful baseline — sequential, O(n²) full-pairwise
// comparison, no translation cache, and a fresh LDR-list walk per module
// (one CheckPool per module). The pipeline configuration is the optimized
// sweep — digest pre-clustering, the bounded parallel fetch/compare stages,
// per-handle software TLBs, and a per-sweep module-table snapshot.
//
// Reported metrics: host ns/op (wall time of the simulator itself),
// sim-ms/op (simulated testbed time), and ptwalks/op (external page-table
// walks per sweep, the introspection cost the TLB and the snapshot remove).
//
// The traced mode is the pipeline configuration with the deterministic
// tracer recording every stage; the pipeline/traced pair measures the
// tracing overhead the observability layer must keep under 10% host wall
// time (perfbench's trace.overhead_frac is the recorded figure).
//
// The chaos mode is the pipeline configuration with the robustness
// machinery armed but inert: an empty fault plan wraps every memory read
// and lifecycle op, and a per-VM budget (too large to ever trip) keeps the
// budget accounting on the hot path. The pipeline/chaos pair prices the
// fault plane + budget bookkeeping.
func benchSweep15(b *testing.B, legacy, traced, chaos bool) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{
		VMs: 15, Seed: 42, NoTranslationCache: legacy,
	})
	if err != nil {
		b.Fatal(err)
	}
	if chaos {
		cloud.InstallFaultPlan(modchecker.NewFaultPlan(42))
	}
	var tracer *modchecker.Tracer
	if traced {
		tracer = cloud.EnableTrace(0) // before NewChecker: checkers capture it
	}
	var opts []modchecker.CheckerOption
	if legacy {
		opts = append(opts, modchecker.WithFullPairwise())
	} else {
		opts = append(opts, modchecker.WithParallel())
	}
	checker := cloud.NewChecker(opts...)
	mods, err := checker.ListModules("Dom1")
	if err != nil {
		b.Fatal(err)
	}
	modules := make([]string, len(mods))
	for i, m := range mods {
		modules[i] = m.Name
	}
	hv := cloud.Hypervisor()
	var simMS, walks float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.Clock().Reset()
		tracer.Reset() // nil-safe; keeps the ring flat across iterations
		before := cloud.IntrospectionStats()
		var clean int
		if legacy {
			for _, m := range modules {
				rep, err := checker.CheckPool(m)
				if err != nil {
					b.Fatal(err)
				}
				simMS += rep.Elapsed.Seconds() * 1e3
				if len(rep.Flagged) == 0 {
					clean++
				}
			}
		} else {
			sweep, err := checker.NewPoolSweep()
			if err != nil {
				b.Fatal(err)
			}
			if chaos {
				// Per-VM budget only: a sweep budget would force the fetch
				// stage sequential, and an hour of modeled time never trips,
				// so the parallel pipeline runs unchanged with the budget
				// accounting live.
				sweep.SetBudgets(0, time.Hour)
			}
			simMS += sweep.ListElapsed.Seconds() * 1e3
			for _, rep := range sweep.CheckModules(modules) {
				simMS += rep.Elapsed.Seconds() * 1e3
				if len(rep.Flagged) == 0 {
					clean++
				}
			}
		}
		if clean != len(modules) {
			b.Fatalf("clean pool flagged modules: %d/%d clean", clean, len(modules))
		}
		if traced {
			tracer.Flush()
			if tracer.Len() == 0 {
				b.Fatal("traced sweep recorded no events")
			}
		}
		after := cloud.IntrospectionStats()
		walks += float64(after.PTWalks - before.PTWalks)
	}
	b.ReportMetric(simMS/float64(b.N), "sim-ms/op")
	b.ReportMetric(walks/float64(b.N), "ptwalks/op")
}

// BenchmarkFig7Sweep15 pits the paper-faithful sweep against the optimized
// pipeline on the full 15-VM Figure-7 configuration, plus the pipeline with
// deterministic tracing on: compare the sub-benchmarks' ns/op, sim-ms/op
// and ptwalks/op for the headline speedup and the tracing overhead. The
// host-time record is perfbench (docs/performance.md).
func BenchmarkFig7Sweep15(b *testing.B) {
	b.Run("legacy", func(b *testing.B) { benchSweep15(b, true, false, false) })
	b.Run("pipeline", func(b *testing.B) { benchSweep15(b, false, false, false) })
	b.Run("traced", func(b *testing.B) { benchSweep15(b, false, true, false) })
	b.Run("chaos", func(b *testing.B) { benchSweep15(b, false, false, true) })
}
