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
// over a 16-clone, 2-template fleet. Each module has three clusters: the
// reference, the other clones at its base, and the clones at the other
// template's base. The memo covers every component of all three, so a
// cold sweep answers every component of the three cluster pairs from
// digest facts. A warm sweep replays every pair from the store and adds
// nothing.
func TestCompareDerivedCounter(t *testing.T) {
	cloud, err := NewCloud(CloudConfig{VMs: 16, Templates: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	modules := []string{"hal.dll", "ndis.sys"}
	var want uint64
	for _, m := range modules {
		rep, err := cloud.NewChecker().CheckModule(m, "Dom1", "Dom2")
		if err != nil {
			t.Fatal(err)
		}
		want += 3 * uint64(len(rep.Components))
	}
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
		if !rep.Clean() {
			t.Fatalf("%s: clean fleet flagged: %+v", step, rep.Alerts)
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
// place unless it is infected, and falls back, or is the first clean copy
// at the other kind of base than the partner's (the reference's base or
// another), and fronts a cluster of its own. A direct session reports the
// same counts in PoolSweep.InPlace and InPlaceFallbacks.
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
		refBase := pool.At(0).Base
		partner := pool.At(1)
		// Which kinds of base already have a cluster a copy fronts.
		fronted := map[bool]bool{}
		if partner.Verdict == VerdictClean {
			fronted[partner.Base == refBase] = true
		}
		for i := 2; i < pool.Len(); i++ {
			vm := pool.At(i)
			switch exact := vm.Base == refBase; {
			case vm.Verdict != VerdictClean:
				fallbacks++
			case !fronted[exact]:
				fronted[exact] = true
			default:
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
