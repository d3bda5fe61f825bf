package modchecker

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// counterValue pulls one counter out of a metrics snapshot (0 if absent).
func counterValue(s MetricsSnapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// healthFingerprint renders a report's health map deterministically.
func healthFingerprint(rep *SweepReport) string {
	vms := make([]string, 0, len(rep.Health))
	for vm := range rep.Health {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	var b strings.Builder
	for _, vm := range vms {
		fmt.Fprintf(&b, "%s=%v ", vm, rep.Health[vm])
	}
	return b.String()
}

// runTracedScenario drives the PR's observability acceptance scenario on a
// fresh cloud — 15 VMs, tracing on, a fault plan exercising transient,
// flaky, torn, and destroy injections, parallel pipelined sweeps with
// retries — and returns the Chrome trace export plus a fingerprint of
// everything determinism covers (findings, health, metrics, sim clock).
func runTracedScenario(t *testing.T) (traceJSON []byte, fingerprint string, snap MetricsSnapshot) {
	t.Helper()
	cloud := testCloud(t, 15, 42)
	tr := cloud.EnableTrace(0)
	plan := NewFaultPlan(7)
	plan.FailReads("Dom3", 0, 2)
	plan.FlakyReads("Dom5", 0.02)
	plan.TornWindow("Dom7", 5, 60)
	plan.DestroyAt("Dom9", 80)
	cloud.InstallFaultPlan(plan)

	sc := cloud.NewScanner(WithParallel(), WithRetry(DefaultRetryPolicy()))
	sc.SetModules([]string{"hal.dll", "ndis.sys", "tcpip.sys"})

	var b strings.Builder
	for sweep := 1; sweep <= 2; sweep++ {
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		b.WriteString(sweepFingerprint(rep))
		b.WriteString(healthFingerprint(rep))
		fmt.Fprintf(&b, "timing list=%v fetch=%v digest=%v compare=%v sim=%v\n",
			rep.Timing.List, rep.Timing.Fetch, rep.Timing.Digest, rep.Timing.Compare, rep.Simulated)
	}
	fmt.Fprintf(&b, "clock=%v\n", cloud.Hypervisor().Clock().Now())

	if tr.Dropped() != 0 {
		t.Errorf("trace ring dropped %d events at default capacity", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	return buf.Bytes(), b.String(), cloud.Metrics().Snapshot()
}

// TestTraceExportByteIdentical is the PR's determinism invariant: two runs
// from one seed — parallel pipelined sweeps, racing fault injections, a
// mid-sweep destroy — produce byte-identical Chrome trace exports, identical
// findings/health, and an identical simulated clock.
func TestTraceExportByteIdentical(t *testing.T) {
	json1, fp1, snap1 := runTracedScenario(t)
	json2, fp2, snap2 := runTracedScenario(t)

	if fp1 != fp2 {
		t.Errorf("sweep findings diverge across identically seeded runs:\n--- run 1\n%s--- run 2\n%s", fp1, fp2)
	}
	if !bytes.Equal(json1, json2) {
		// Find the first divergent line for a readable failure.
		l1, l2 := strings.Split(string(json1), "\n"), strings.Split(string(json2), "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("trace exports diverge at line %d:\nrun 1: %s\nrun 2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("trace exports diverge in length: %d vs %d bytes", len(json1), len(json2))
	}

	// The fault counter is part of the deterministic surface too.
	if a, b := counterValue(snap1, "faults/injected"), counterValue(snap2, "faults/injected"); a != b || a == 0 {
		t.Errorf("faults/injected = %d vs %d, want equal and nonzero", a, b)
	}
}

// TestTraceExportContent checks the export actually carries every
// instrumented layer: pipeline stage envelopes and per-task spans, scanner
// sweep spans and health transitions, deferred fault injections, and
// hypervisor lifecycle events, plus the Perfetto metadata naming the lanes.
func TestTraceExportContent(t *testing.T) {
	json1, _, _ := runTracedScenario(t)
	s := string(json1)
	for _, want := range []string{
		`"displayTimeUnit": "ms"`,
		`"modchecker pipeline"`,
		`"cloud events"`,
		`"coordinator"`,
		`"fault plane"`,
		`"stage:list"`,
		`"stage:fetch"`,
		`"stage:digest"`,
		`"stage:compare"`,
		`"fetch Dom1"`,
		`"sweep 1"`,
		`"sweep 2"`,
		`"health Dom9"`,
		`"fault inject"`,
		`"domain destroy"`,
		`"s": "t"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("trace export missing %s", want)
		}
	}
}

// TestSweepTimingAndMetricsPopulated: a traced parallel sweep fills every
// SweepTiming stage and the cross-layer metric families the registry is
// supposed to absorb (vmi/*, hv/*, scanner/*).
func TestSweepTimingAndMetricsPopulated(t *testing.T) {
	cloud := testCloud(t, 4, 137)
	cloud.EnableTrace(0)
	sc := cloud.NewScanner(WithParallel())
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	tm := rep.Timing
	if tm.List <= 0 || tm.Fetch <= 0 || tm.Digest <= 0 || tm.Compare <= 0 {
		t.Errorf("stage timing not populated: %+v", tm)
	}
	if tm.Work.Searcher <= 0 || tm.Work.Parser <= 0 || tm.Work.Checker <= 0 {
		t.Errorf("component work not populated: %+v", tm.Work)
	}
	if rep.Simulated <= 0 {
		t.Errorf("Simulated = %v", rep.Simulated)
	}

	snap := cloud.Metrics().Snapshot()
	for _, name := range []string{
		"scanner/sweeps", "vmi/pages_read", "vmi/pt_walks", "vmi/bytes_read",
		"hv/charges", "hv/clock_ns",
	} {
		if counterValue(snap, name) == 0 {
			t.Errorf("counter %s = 0 after a sweep", name)
		}
	}
	if got := counterValue(snap, "scanner/sweeps"); got != 1 {
		t.Errorf("scanner/sweeps = %d, want 1", got)
	}
	var hist *struct {
		count uint64
		sum   float64
	}
	for _, h := range snap.Histograms {
		if h.Name == "scanner/sweep_sim_seconds" {
			hist = &struct {
				count uint64
				sum   float64
			}{h.Count, h.Sum}
		}
	}
	if hist == nil || hist.count != 1 || hist.sum <= 0 {
		t.Errorf("scanner/sweep_sim_seconds histogram = %+v, want one positive observation", hist)
	}

	// Text and JSON renders of the same snapshot are deterministic.
	var a, c bytes.Buffer
	if err := snap.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := cloud.Metrics().Snapshot().WriteText(&c); err != nil {
		t.Fatal(err)
	}
	if a.String() != c.String() {
		t.Error("two snapshots of a quiesced registry render differently")
	}
}

// TestTraceDisabledPathUnchanged: with tracing off (nil tracer) the scanner
// and pipeline run exactly as before — same verdicts, same simulated clock —
// and the trace accessors degrade gracefully.
func TestTraceDisabledPathUnchanged(t *testing.T) {
	run := func(enable bool) (string, *Cloud) {
		cloud := testCloud(t, 4, 139)
		if enable {
			cloud.EnableTrace(0)
		}
		if err := InfectPreset(cloud, "Dom2", "opcode-patch"); err != nil {
			t.Fatal(err)
		}
		sc := cloud.NewScanner(WithParallel())
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		return sweepFingerprint(rep) + fmt.Sprintf("clock=%v", cloud.Hypervisor().Clock().Now()), cloud
	}
	off, cloudOff := run(false)
	on, _ := run(true)
	if off != on {
		t.Errorf("tracing changed results:\n--- off\n%s\n--- on\n%s", off, on)
	}
	if cloudOff.Tracer() != nil {
		t.Error("Tracer() non-nil without EnableTrace")
	}
	var buf bytes.Buffer
	if err := cloudOff.Tracer().WriteChromeJSON(&buf); err == nil {
		t.Error("nil tracer export did not error")
	}
}

// TestMetricsDocumented: every series a cloud registers — with a scanner,
// a fault plan and a control-plane fault so the lazily registered faults/*
// counters exist — is named in docs/observability.md's series table.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "observability.md"))
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(t, 3, 181)
	plan := NewFaultPlan(67)
	plan.FailReads("Dom3", 0, 1)
	plan.FailOps("Dom2", OpSnapshot, 0, 1)
	cloud.InstallFaultPlan(plan)
	if err := cloud.Domain("Dom2").TakeSnapshot("cp"); err == nil {
		t.Fatal("scheduled snapshot fault did not fire")
	}
	sc := cloud.NewScanner()
	sc.SetModules([]string{"hal.dll"})
	if _, err := sc.Sweep(); err != nil {
		t.Fatal(err)
	}
	snap := cloud.Metrics().Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	for _, want := range []string{"faults/injected", "faults/control_injected", "scanner/sweeps"} {
		if !slices.Contains(names, want) {
			t.Fatalf("scenario did not register %s; registered: %v", want, names)
		}
	}
	for _, name := range names {
		if !bytes.Contains(doc, []byte("`"+name+"`")) {
			t.Errorf("metric %s is registered but missing from docs/observability.md", name)
		}
	}
}
