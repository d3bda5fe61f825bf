// Benchmarks regenerating the paper's evaluation, one per table/figure:
//
//	BenchmarkDetect*          — Section V-B experiments E1-E4
//	BenchmarkFig7RuntimeIdle  — Figure 7 (runtime vs #VMs, idle)
//	BenchmarkFig8RuntimeLoaded— Figure 8 (runtime vs #VMs, HeavyLoad)
//	BenchmarkFig9GuestImpact  — Figure 9 (in-guest impact of VMI access)
//	BenchmarkAblation*        — DESIGN.md ablations A1-A3
//
// Each runtime benchmark reports both host wall time (ns/op) and the
// simulated testbed time (sim-ms/op), which is the number whose *shape*
// tracks the paper's measurements.
package modchecker_test

import (
	"fmt"
	"testing"

	"modchecker"
	"modchecker/internal/amd64"
	"modchecker/internal/baseline"
	"modchecker/internal/core"
	"modchecker/internal/experiments"
	"modchecker/internal/stress"
)

// mustCloud builds a cloud or aborts the benchmark.
func mustCloud(b *testing.B, vms int, seed int64) *modchecker.Cloud {
	b.Helper()
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: vms, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return cloud
}

// benchDetect benchmarks one V-B detection scenario: pool-sweeping the
// infected module across 15 VMs.
func benchDetect(b *testing.B, module string, infect func(*modchecker.Cloud) error) {
	cloud := mustCloud(b, 15, 42)
	if err := infect(cloud); err != nil {
		b.Fatal(err)
	}
	checker := cloud.NewChecker()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := checker.CheckPool(module)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Flagged) != 1 {
			b.Fatalf("flagged %v, want exactly the infected VM", rep.Flagged)
		}
	}
}

func BenchmarkDetectOpcodeReplacement(b *testing.B) { // E1
	benchDetect(b, "hal.dll", func(c *modchecker.Cloud) error {
		return modchecker.InfectOpcode(c, "Dom7", "hal.dll")
	})
}

func BenchmarkDetectInlineHooking(b *testing.B) { // E2
	benchDetect(b, "tcpip.sys", func(c *modchecker.Cloud) error {
		return modchecker.InfectInlineHookLive(c, "Dom7", "tcpip.sys")
	})
}

func BenchmarkDetectStubModification(b *testing.B) { // E3
	benchDetect(b, "dummy.sys", func(c *modchecker.Cloud) error {
		return modchecker.InfectStubPatch(c, "Dom7", "dummy.sys", "DOS", "CHK")
	})
}

func BenchmarkDetectDLLHooking(b *testing.B) { // E4
	benchDetect(b, "dummy.sys", func(c *modchecker.Cloud) error {
		return modchecker.InfectDLLHook(c, "Dom7", "dummy.sys", "inject.dll", "callMessageBox")
	})
}

// benchRuntime benchmarks CheckModule("http.sys") of Dom1 against t-1
// peers, reporting simulated testbed milliseconds alongside wall time.
func benchRuntime(b *testing.B, cloud *modchecker.Cloud, t int, loaded bool) {
	names := cloud.VMNames()[:t]
	if loaded {
		for _, n := range names {
			stress.Apply(cloud.Guest(n), stress.HeavyLoad)
		}
		defer func() {
			for _, n := range names {
				stress.Idle(cloud.Guest(n))
			}
		}()
	}
	checker := cloud.NewChecker()
	hv := cloud.Hypervisor()
	var simTotal, searcher, parser, chk float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hv.Clock().Reset()
		rep, err := checker.CheckModule("http.sys", names[0], names[1:]...)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += rep.Timing.Total().Seconds() * 1e3
		searcher += rep.Timing.Searcher.Seconds() * 1e3
		parser += rep.Timing.Parser.Seconds() * 1e3
		chk += rep.Timing.Checker.Seconds() * 1e3
	}
	b.ReportMetric(simTotal/float64(b.N), "sim-ms/op")
	b.ReportMetric(searcher/float64(b.N), "sim-searcher-ms/op")
	b.ReportMetric(parser/float64(b.N), "sim-parser-ms/op")
	b.ReportMetric(chk/float64(b.N), "sim-checker-ms/op")
}

// BenchmarkFig7RuntimeIdle regenerates Figure 7: one sub-benchmark per pool
// size, idle guests. sim-ms/op grows linearly and sim-searcher dominates.
func BenchmarkFig7RuntimeIdle(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	for t := 2; t <= 15; t++ {
		b.Run(fmt.Sprintf("VMs=%d", t), func(b *testing.B) {
			benchRuntime(b, cloud, t, false)
		})
	}
}

// BenchmarkFig8RuntimeLoaded regenerates Figure 8: guests under HeavyLoad;
// sim-ms/op shows the knee once loaded VMs exceed the 8 virtual cores.
func BenchmarkFig8RuntimeLoaded(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	for t := 2; t <= 15; t++ {
		b.Run(fmt.Sprintf("VMs=%d", t), func(b *testing.B) {
			benchRuntime(b, cloud, t, true)
		})
	}
}

// BenchmarkFig9GuestImpact regenerates Figure 9: a full monitored run with
// two VMI-access windows, reporting the worst per-counter perturbation.
func BenchmarkFig9GuestImpact(b *testing.B) {
	var maxZ float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(120, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxPerturbation > maxZ {
			maxZ = res.MaxPerturbation
		}
	}
	b.ReportMetric(maxZ, "max-z")
}

// BenchmarkAblationParallel (A1) compares sequential against parallel VM
// access on wall time; simulated work is equal.
func BenchmarkAblationParallel(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	for _, variant := range []struct {
		name string
		opts []modchecker.CheckerOption
	}{
		{"sequential", nil},
		{"parallel", []modchecker.CheckerOption{modchecker.WithParallel()}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			checker := cloud.NewChecker(variant.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckPool("http.sys"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRelocNormalize (A2) compares the paper's pairwise diff
// scan against per-VM reloc-table normalization.
func BenchmarkAblationRelocNormalize(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	for _, variant := range []struct {
		name string
		opts []modchecker.CheckerOption
	}{
		{"diff-scan", nil},
		{"reloc-table", []modchecker.CheckerOption{modchecker.WithRelocNormalizer()}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			checker := cloud.NewChecker(variant.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checker.CheckPool("http.sys"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCopyStrategy (A3) compares page-wise copying against a
// bulk mapping, on simulated introspection time.
func BenchmarkAblationCopyStrategy(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	for _, variant := range []struct {
		name string
		opts []modchecker.CheckerOption
	}{
		{"page-wise", nil},
		{"bulk-mapped", []modchecker.CheckerOption{modchecker.WithMappedCopy()}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			checker := cloud.NewChecker(variant.opts...)
			hv := cloud.Hypervisor()
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hv.Clock().Reset()
				rep, err := checker.CheckModule("http.sys", "Dom1")
				if err != nil {
					b.Fatal(err)
				}
				sim += rep.Timing.Searcher.Seconds() * 1e3
			}
			b.ReportMetric(sim/float64(b.N), "sim-searcher-ms/op")
		})
	}
}

// BenchmarkBaselineVsModChecker compares the hash-dictionary baseline
// (verify one VM against a prebuilt dictionary) with ModChecker checking
// the same VM against 14 peers — the trade the paper's introduction
// discusses: the dictionary is cheaper per check but needs maintenance on
// every legitimate update (see the update-scenario experiment).
func BenchmarkBaselineVsModChecker(b *testing.B) {
	cloud := mustCloud(b, 15, 42)
	db := baseline.NewDatabase()
	golden := cloud.Guest("Dom1")
	for _, mod := range golden.Modules() {
		if err := db.AddTrustedImage(mod.Name, golden.DiskImage(mod.Name)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("baseline-dictionary", func(b *testing.B) {
		target, err := cloud.Target("Dom1")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Verify("http.sys", target)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OK() {
				b.Fatal("clean module flagged")
			}
		}
	})
	b.Run("modchecker-cross-vm", func(b *testing.B) {
		checker := cloud.NewChecker()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := checker.CheckModule("http.sys", "Dom1")
			if err != nil {
				b.Fatal(err)
			}
			if rep.Verdict != modchecker.VerdictClean {
				b.Fatal("clean module flagged")
			}
		}
	})
}

// BenchmarkSearcherListModules measures the raw loaded-module-list walk.
func BenchmarkSearcherListModules(b *testing.B) {
	cloud := mustCloud(b, 2, 42)
	t, err := cloud.Target("Dom1")
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSearcher(t.Handle, core.CopyPageWise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ListModules(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalizePair measures Algorithm 2 on one .text-sized buffer
// pair.
func BenchmarkNormalizePair(b *testing.B) {
	cloud := mustCloud(b, 2, 42)
	t1, _ := cloud.Target("Dom1")
	t2, _ := cloud.Target("Dom2")
	s1 := core.NewSearcher(t1.Handle, core.CopyPageWise)
	s2 := core.NewSearcher(t2.Handle, core.CopyPageWise)
	i1, buf1, _, err := s1.FetchModule("http.sys")
	if err != nil {
		b.Fatal(err)
	}
	i2, buf2, _, err := s2.FetchModule("http.sys")
	if err != nil {
		b.Fatal(err)
	}
	p1, _, err := core.ParseModule("Dom1", "http.sys", i1.Base, buf1)
	if err != nil {
		b.Fatal(err)
	}
	p2, _, err := core.ParseModule("Dom2", "http.sys", i2.Base, buf2)
	if err != nil {
		b.Fatal(err)
	}
	c1 := p1.Component(".text")
	c2 := p2.Component(".text")
	b.SetBytes(int64(len(c1.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NormalizePair(c1.Data, c2.Data, i1.Base, i2.Base)
	}
}

// BenchmarkCheckModule64 measures the 64-bit checker (ModChecker64
// extension) on a 4-VM pool.
func BenchmarkCheckModule64(b *testing.B) {
	disk, err := amd64.BuildStandardDisk64()
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]amd64.Target64, 4)
	for i := range targets {
		g, err := amd64.NewGuest64(amd64.Config64{
			Name: fmt.Sprintf("x64-%d", i), BootSeed: int64(i + 1), Disk: disk,
		})
		if err != nil {
			b.Fatal(err)
		}
		targets[i] = amd64.Target64{Name: g.Name(), Mem: g.Phys(), CR3: g.CR3()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := amd64.CheckModule64("hal.dll", targets[0], targets[1:])
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != amd64.Clean64 {
			b.Fatal("clean 64-bit module flagged")
		}
	}
}
