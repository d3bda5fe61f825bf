package modchecker

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"modchecker/internal/report"
)

// TestInPlaceFirstPartnerInfectedMatchesCopies: when the reference's first
// partner, the first copy that fills the reference memo, is the infected
// VM, the next copy at another base completes the fill, and every report
// must be byte for byte what a pool whose memory cannot lend frames (an
// installed fault plan that injects nothing) reports by copying every VM:
// JSON and verbose text of every module, simulated time included. Under
// the fault plan no copy is checked in place, so none counts as a
// fallback either.
func TestInPlaceFirstPartnerInfectedMatchesCopies(t *testing.T) {
	run := func(copying bool) (string, int) {
		cloud := testCloud(t, 15, 3)
		for _, preset := range []string{"tcpirphook", "rustock.b"} {
			if err := InfectPreset(cloud, "Dom2", preset); err != nil {
				t.Fatal(err)
			}
		}
		if copying {
			cloud.InstallFaultPlan(NewFaultPlan(1))
		}
		session, err := cloud.NewChecker(WithParallel()).NewPoolSweep()
		if err != nil {
			t.Fatal(err)
		}
		defer session.Close()
		modules, err := session.Modules()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, rep := range session.CheckModules(modules) {
			if err := report.WritePoolJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			if err := report.WritePoolText(&buf, rep, true); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&buf, "simulated %v\n", cloud.Hypervisor().Clock().Now())
		return buf.String(), session.InPlace + session.InPlaceFallbacks
	}
	inPlace, n := run(false)
	copied, m := run(true)
	if n == 0 || m != 0 {
		t.Fatalf("%d copies checked in place or handed back, %d under the fault plan; want some and none", n, m)
	}
	if !strings.Contains(inPlace, "Dom2") || inPlace != copied {
		t.Fatalf("in-place reports differ from copying ones:\n in place:\n%s\n copying:\n%s", inPlace, copied)
	}
}

// TestInPlaceSweepFallsBackOnGuestWrite: a copy checked in place by one
// sweep and written by its guest before the next is checked against its
// live frames. A write that tampers with a covered page makes the copy
// fall back to a copy and be flagged; a write of the bytes already there
// leaves it in place and clean.
func TestInPlaceSweepFallsBackOnGuestWrite(t *testing.T) {
	const module = "tcpip.sys"
	cloud := testCloud(t, 15, 5)
	sweep := func(step string, wantInPlace, wantFallbacks int, wantFlagged []string) {
		t.Helper()
		session, err := cloud.NewChecker(WithParallel()).NewPoolSweep()
		if err != nil {
			t.Fatal(err)
		}
		defer session.Close()
		rep := session.CheckModule(module)
		if session.InPlace != wantInPlace || session.InPlaceFallbacks != wantFallbacks {
			t.Errorf("%s: %d copies in place, %d fallbacks; want %d and %d",
				step, session.InPlace, session.InPlaceFallbacks, wantInPlace, wantFallbacks)
		}
		if !slices.Equal(rep.Flagged, wantFlagged) || len(rep.VMReports) != len(wantFlagged) {
			t.Errorf("%s: flagged %v (%d non-clean), want %v", step, rep.Flagged, len(rep.VMReports), wantFlagged)
		}
	}
	sweep("clean pool", 13, 0, nil)

	// Rewrite a page of the module's code with its own bytes.
	g := cloud.Guest("Dom8")
	va := g.Module(module).Base + 0x1000
	page := make([]byte, 4096)
	if err := g.AddressSpace().Read(va, page); err != nil {
		t.Fatal(err)
	}
	if err := g.AddressSpace().Write(va, page); err != nil {
		t.Fatal(err)
	}
	sweep("after an unchanged write", 13, 0, nil)

	if err := InfectInlineHookLive(cloud, "Dom8", module); err != nil {
		t.Fatal(err)
	}
	sweep("after a tampering write", 12, 1, []string{"Dom8"})
}

// TestInPlaceSweepRacesGuestWriter races a guest that keeps flipping a
// code byte of its module against parallel in-place sweeps (run it under
// -race). Dom2, the first partner, carries a live hook, so Dom3, the
// writer, is the first clean copy: the one that completes the memo's fill,
// or one checked in place after it. Whatever the writer's timing, only
// Dom2 and Dom3 may be flagged, Dom2 always is, and no check errors.
func TestInPlaceSweepRacesGuestWriter(t *testing.T) {
	const module = "tcpip.sys"
	cloud := testCloud(t, 15, 5)
	if err := InfectInlineHookLive(cloud, "Dom2", module); err != nil {
		t.Fatal(err)
	}
	as := cloud.Guest("Dom3").AddressSpace()
	va := cloud.Guest("Dom3").Module(module).Base + 0x1000 + 100
	var orig [1]byte
	if err := as.Read(va, orig[:]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := orig
		for {
			select {
			case <-stop:
				_ = as.Write(va, orig[:])
				return
			default:
			}
			b[0] ^= 0x5A
			if err := as.Write(va, b[:]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	checker := cloud.NewChecker(WithParallel())
	for range 5 {
		session, err := checker.NewPoolSweep()
		if err != nil {
			t.Fatal(err)
		}
		rep := session.CheckModule(module)
		session.Close()
		if len(rep.Errored) != 0 || len(rep.Inconclusive) != 0 {
			t.Fatalf("errored %v, inconclusive %v", rep.Errored, rep.Inconclusive)
		}
		if !slices.Contains(rep.Flagged, "Dom2") || len(rep.Flagged) > 2 || len(rep.Flagged) == 2 && rep.Flagged[1] != "Dom3" {
			t.Fatalf("flagged %v, want Dom2 and perhaps Dom3", rep.Flagged)
		}
	}
}
