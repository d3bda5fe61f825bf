package modchecker

import "testing"

// TestRefMemoReusesCounter pins core/ref_memo_reuses on a cached scanner
// over a 16-clone, 2-template fleet: a sweep adds one per module whose
// check started from the memo an earlier sweep kept. All-hit sweeps digest
// nothing and drop the kept memos, so warm sweeps leave the counter flat,
// and the first sweep after one digests from fresh memos.
func TestRefMemoReusesCounter(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 16, Templates: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const vm = "Dom6"
	if err := cloud.Domain(vm).TakeSnapshot("boot"); err != nil {
		t.Fatal(err)
	}
	modules := []string{"dummy.sys", "hal.dll", "ndis.sys"}
	sc := cloud.NewScanner(WithDigestCache(NewDigestStore(0)))
	sc.SetModules(modules)
	reuses := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "core/ref_memo_reuses") }
	sweep := func(step string, want uint64) {
		t.Helper()
		before := reuses()
		if _, err := sc.Sweep(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := reuses() - before; got != want {
			t.Errorf("%s: %d module checks started from a kept memo, want %d", step, got, want)
		}
	}
	n := uint64(len(modules))

	sweep("cold sweep", 0)
	sweep("warm sweep", 0)
	if err := InfectOpcode(cloud, vm, "hal.dll"); err != nil {
		t.Fatal(err)
	}
	sweep("first sweep with a patched VM", 0)
	sweep("second sweep with a patched VM", n)
	if err := cloud.Domain(vm).Revert("boot"); err != nil {
		t.Fatal(err)
	}
	sweep("sweep after the revert", n)
	sweep("warm sweep after the revert", 0)
}

// TestCompareDerivedCounter pins core/compare_derived on a cached scanner
// over a 16-clone, 2-template fleet with Dom5's hal.dll patched. Every
// clean copy takes the covered key, so a clean module is one cluster and
// runs no comparison. hal.dll has a second key, Dom5's, so its covered
// key is split by base and runs two comparisons, the reference against
// Dom5 and the covered copies at the other base against Dom5, whose every
// component the digest facts answer on a cold sweep: the patched one
// against the other base by refMemo.apart. A warm sweep replays both pairs
// from the store and adds nothing.
func TestCompareDerivedCounter(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 16, Templates: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const patched = "Dom5"
	if err := InfectOpcode(cloud, patched, "hal.dll"); err != nil {
		t.Fatal(err)
	}
	modules := []string{"hal.dll", "ndis.sys"}
	rep, err := cloud.NewChecker().CheckModule("hal.dll", "Dom1", patched)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * uint64(len(rep.Components))
	sc := cloud.NewScanner(WithDigestCache(NewDigestStore(0)))
	sc.SetModules(modules)
	derived := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "core/compare_derived") }
	sweep := func(step string, want uint64) {
		t.Helper()
		before := derived()
		rep, err := sc.Sweep()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(rep.Alerts) != 1 || rep.Alerts[0].VM != patched {
			t.Fatalf("%s: alerts %+v, want only %s's hal.dll", step, rep.Alerts, patched)
		}
		if got := derived() - before; got != want {
			t.Errorf("%s: %d component pairs answered from digest facts, want %d", step, got, want)
		}
	}
	sweep("cold sweep", want)
	sweep("warm sweep", 0)
}

// TestInPlaceCounters pins core/fetch_in_place and
// core/fetch_in_place_fallbacks on a 15-VM pool of independently booted
// guests with one infected VM. Per module, every healthy copy but the
// reference and its first partner is checked in place: it counts as in
// place unless it is infected, and falls back. A direct session reports
// the same counts in PoolSweep.InPlace and InPlaceFallbacks.
func TestInPlaceCounters(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const infected = "Dom5"
	if err := InfectPreset(cloud, infected, "tcpirphook"); err != nil {
		t.Fatal(err)
	}
	session, err := cloud.NewChecker(WithParallel()).NewPoolSweep()
	if err != nil {
		t.Fatal(err)
	}
	modules, err := session.Modules()
	if err != nil {
		t.Fatal(err)
	}
	var inPlace, fallbacks int
	for _, pool := range session.CheckModules(modules) {
		for i := 2; i < pool.Len(); i++ {
			if pool.At(i).Verdict != VerdictClean {
				fallbacks++
			} else {
				inPlace++
			}
		}
	}
	session.Close()
	if fallbacks != 1 {
		t.Fatalf("%d copies are not clean, want only %s's tcpip.sys", fallbacks, infected)
	}
	if session.InPlace != inPlace || session.InPlaceFallbacks != fallbacks {
		t.Errorf("direct session: %d copies in place and %d fallbacks, want %d and %d",
			session.InPlace, session.InPlaceFallbacks, inPlace, fallbacks)
	}
	sc := cloud.NewScanner(WithParallel())
	counter := func(name string) uint64 { return counterValue(cloud.Metrics().Snapshot(), name) }
	if _, err := sc.Sweep(); err != nil {
		t.Fatal(err)
	}
	if got := counter("core/fetch_in_place"); got != uint64(inPlace) {
		t.Errorf("core/fetch_in_place = %d, want %d", got, inPlace)
	}
	if got := counter("core/fetch_in_place_fallbacks"); got != uint64(fallbacks) {
		t.Errorf("core/fetch_in_place_fallbacks = %d, want %d", got, fallbacks)
	}
}

// TestRefMemoWindowHitsCounter pins core/ref_memo_window_hits on a cached
// scanner over a 16-clone, 2-template fleet: a cold sweep adds the digest
// components the reference memo's window check answered, as many as a
// direct session over an identical fleet reports in
// PoolSweep.MemoWindowHits, and a warm all-hit sweep digests nothing and
// adds nothing.
func TestRefMemoWindowHitsCounter(t *testing.T) {
	fleet := func() *Cloud {
		cloud, err := NewCloud(CloudConfig{VMs: 16, Templates: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return cloud
	}
	modules := []string{"dummy.sys", "hal.dll", "ndis.sys"}
	session, err := fleet().NewChecker().NewPoolSweep()
	if err != nil {
		t.Fatal(err)
	}
	session.CheckModules(modules)
	session.Close()
	want := uint64(session.MemoWindowHits)
	if want == 0 {
		t.Fatal("the direct session's window check answered no component")
	}

	cloud := fleet()
	sc := cloud.NewScanner(WithDigestCache(NewDigestStore(0)))
	sc.SetModules(modules)
	hits := func() uint64 { return counterValue(cloud.Metrics().Snapshot(), "core/ref_memo_window_hits") }
	sweep := func(step string, want uint64) {
		t.Helper()
		before := hits()
		if _, err := sc.Sweep(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := hits() - before; got != want {
			t.Errorf("%s: the window check answered %d components, want %d", step, got, want)
		}
	}
	sweep("cold sweep", want)
	sweep("warm sweep", 0)
}
