package modchecker

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"modchecker/internal/guest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/scanner_golden.txt from current output")

// scannerGoldenRun drives the seeded scanner scenario behind
// testdata/scanner_golden.txt and returns every sweep's WriteJSON output
// followed by its WriteText output. The pool has 12 VMs, so creation order
// (Dom1, Dom2, ..., Dom10) differs from name order (Dom1, Dom10, Dom11,
// Dom12, Dom2, ...), and the plan walks the health machine through every
// path that fills a report list:
//
//   - Dom9 carries the TCPIRPHOOK infection: an ALTERED alert every sweep.
//   - Dom12 is destroyed before sweep 1 and re-created under the same name
//     before sweep 3, where its readmission probe reads clean.
//   - Dom3's list walk fails in sweeps 1 and 2 (suspect, then quarantined);
//     it sits out sweep 3 and is readmitted by a clean probe in sweep 4.
//   - Dom5's control plane failed twice, so partition opens its breaker in
//     sweep 1; a clean probe in sweep 3 closes it.
//   - Dom7 fails permanently: two permanent strikes trip its breaker in
//     sweep 2, its probe fails again in sweep 4, and it is probed again in
//     sweep 6.
//   - Sweep 5 runs under a 1 ns per-VM budget: every checked VM is dropped
//     after the first module and the rest are checkpointed; sweep 6 resumes.
func scannerGoldenRun(t *testing.T) []byte {
	t.Helper()
	cloud := testCloud(t, 12, 211)
	if err := InfectPreset(cloud, "Dom9", "tcpirphook"); err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(61)
	plan.FailReads("Dom3", 0, 2)
	plan.FailForever("Dom7", 0)
	plan.FailOpsForever("Dom5", OpSnapshot, 0)
	cloud.InstallFaultPlan(plan)
	for i := 0; i < 2; i++ {
		if err := cloud.Domain("Dom5").TakeSnapshot("cp"); err == nil {
			t.Fatal("scheduled snapshot fault did not fire")
		}
	}
	if err := cloud.Hypervisor().DestroyDomain("Dom12"); err != nil {
		t.Fatal(err)
	}

	sc := cloud.NewScanner()
	sc.SetHealthPolicy(HealthPolicy{QuarantineAfter: 2, ReadmitAfter: 2})
	sc.SetBreakerPolicy(BreakerPolicy{TripAfter: 2})

	var out bytes.Buffer
	for sweep := 1; sweep <= 6; sweep++ {
		switch sweep {
		case 3:
			disk, err := guest.BuildStandardDisk()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cloud.Hypervisor().CreateDomain(guest.Config{
				Name: "Dom12", MemBytes: 64 << 20, BootSeed: 9001, Disk: disk,
			}); err != nil {
				t.Fatal(err)
			}
		case 5:
			sc.SetBudget(BudgetPolicy{VMBudget: time.Nanosecond})
		case 6:
			sc.SetBudget(BudgetPolicy{})
		}
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteText(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestScannerGolden byte-compares the scenario's reports with the committed
// golden, which was generated before the scanner's bookkeeping moved to a
// sorted roster (see testdata/README.md for the exact commands). Any change
// to sweep outcomes, list order, escaping or rendering shows up here.
func TestScannerGolden(t *testing.T) {
	got := scannerGoldenRun(t)
	path := filepath.Join("testdata", "scanner_golden.txt")
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
		t.Fatalf("scanner reports differ from %s (%d vs %d bytes): %s",
			path, len(got), len(want), firstDiffLine(got, want))
	}
}
