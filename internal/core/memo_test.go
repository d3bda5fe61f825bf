package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/rootkit"
	"modchecker/internal/vmi"
)

// memoFleet forks n copy-on-write clones from two templates booted from
// disk, each with a "boot" snapshot, so the clones of the second template
// load every module at another base than those of the first. Clones
// alternate templates: Dom1, Dom3, ... share the first one's image.
func memoFleet(t testing.TB, n int, disk map[string][]byte, memBytes uint64) []*hypervisor.Domain {
	t.Helper()
	ds, err := hypervisor.New(4).CloneFleet("Dom", n, 2, disk, memBytes, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := d.TakeSnapshot("boot"); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// fleetTargets opens fresh targets on the domains, wired as the cloud
// facade wires them: reads through the domain, live content identity and
// mapping epoch.
func fleetTargets(ds []*hypervisor.Domain) []Target {
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	targets := make([]Target, len(ds))
	for i, d := range ds {
		targets[i] = Target{
			Name:   d.Name,
			Handle: vmi.Open(d.Name, d.PhysReader(), d.Guest().CR3(), profile, vmi.WithInvalidation(d.MappingEpoch)),
			Identity: func() (uint64, bool) {
				if d.Destroyed() {
					return 0, false
				}
				return d.Guest().Phys().ContentID()
			},
			Epoch: d.MappingEpoch,
		}
	}
	return targets
}

// dirty writes one guest-physical byte back unchanged: the guest's bytes
// stay the same, but its memory has dirtied a frame, so it has no content
// token until it is reverted.
func dirty(t testing.TB, d *hypervisor.Domain) {
	t.Helper()
	b := make([]byte, 1)
	phys := d.Guest().Phys()
	if err := phys.ReadPhys(8<<20, b); err != nil {
		t.Fatal(err)
	}
	if err := phys.WritePhys(8<<20, b); err != nil {
		t.Fatal(err)
	}
}

// checkOnce opens a session over targets, checks module through the
// engine and closes the session. It returns the outcome and how many of
// the session's module checks started from a kept memo.
func checkOnce(t testing.TB, c *Checker, targets []Target, module string) (*outcome, int) {
	t.Helper()
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	o := ps.eng.check(module)
	return o, ps.MemoReuses
}

// keptTok returns the stamp of module's kept memo; ok is false when the
// Checker keeps none.
func keptTok(c *Checker, module string) (tok cas.Token, ok bool) {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if m := c.memos[module]; m != nil {
		return m.tok, true
	}
	return cas.Token{}, false
}

// TestRefMemoKeptAcrossSweeps drives one Checker, with a digest store,
// through sweeps of a six-VM fleet with mutations in between. The
// reference is Dom1. Dom2, Dom4 and Dom6 load the module at another base,
// so each of them runs Algorithm 2 at the reference's relocation sites:
// whichever digests first fills the memo, and the window check answers
// every relocated component of the others. Dom3 and Dom5 share the
// reference's base and never touch the windows.
//
// Each step pins whether the run started from the kept memo, its exact
// window-check hits, and the kept memo's stamp afterwards: a memo is only
// reused under the very token it was made under, and every re-stamped run
// counts exactly the hits of a fresh memo.
func TestRefMemoKeptAcrossSweeps(t *testing.T) {
	const module = "alpha.sys"
	ds := memoFleet(t, 6, testDisk(t), 16<<20)
	c := NewChecker(Config{DigestCache: cas.NewStore(0)})
	targets := fleetTargets(ds)
	relocated := 0
	ref := c.fetchAndParse(targets[0].Handle, targets[0].Name, module, nil)
	for _, comp := range ref.parsed.Components {
		if comp.Normalize {
			relocated++
		}
	}
	c.releaseFetched(ref)
	rel := int64(relocated)

	stamp := func(i int) cas.Token { return sourceToken(targetPool(targets), i) }
	step := func(name string, pool []Target, wantReused bool, wantHits int64) {
		t.Helper()
		o, reuses := checkOnce(t, c, pool, module)
		if got := reuses == 1; got != wantReused || reuses > 1 {
			t.Errorf("%s: %d module checks started from a kept memo, want reused=%v", name, reuses, wantReused)
		}
		if o.memoHits != wantHits {
			t.Errorf("%s: the window check answered %d components, want %d", name, o.memoHits, wantHits)
		}
		for i, cid := range o.clusterOf {
			if cid < 0 {
				t.Errorf("%s: %s has no healthy copy: %v", name, pool[i].Name, o.errs[i])
			}
		}
	}
	wantKept := func(name string, want cas.Token) {
		t.Helper()
		got, ok := keptTok(c, module)
		if !want.OK {
			if ok {
				t.Errorf("%s: a memo stamped %+v is kept, want none", name, got)
			}
			return
		}
		if !ok || got != want {
			t.Errorf("%s: kept memo stamped %+v (kept %v), want %+v", name, got, ok, want)
		}
	}

	step("cold", targets, false, 2*rel)
	first := stamp(0)
	wantKept("cold", first)

	// A dirtied follower misses the store; its digest is the run's first,
	// and the kept memo's window check answers it.
	dirty(t, ds[3])
	step("dirty follower", targets, true, rel)
	wantKept("dirty follower", first)

	// A dirtied reference has no token: the run falls back to a fresh memo,
	// releases the kept one and keeps nothing.
	dirty(t, ds[0])
	step("dirty reference", targets, false, 2*rel)
	wantKept("dirty reference", cas.Token{})

	// The reverted reference carries its old content under a new mapping
	// epoch: a new stamp, so nothing made under the old one is reused.
	if err := ds[0].Revert("boot"); err != nil {
		t.Fatal(err)
	}
	reverted := stamp(0)
	if reverted == first || !reverted.OK {
		t.Fatalf("reverted reference token %+v, first %+v", reverted, first)
	}
	step("reverted reference", targets, false, 2*rel)
	wantKept("reverted reference", reverted)
	step("dirty follower again", targets, true, rel)
	if err := ds[3].Revert("boot"); err != nil {
		t.Fatal(err)
	}
	step("reverted follower", targets, true, rel)

	// An all-hit sweep digests nothing and drops the kept memo; its
	// bitmaps go back to windowPools. Empty the pools first, and count
	// every Get they cannot answer.
	var misses atomic.Int64
	unhook := func() {
		for k := range windowPools {
			windowPools[k].New = nil
		}
	}
	t.Cleanup(unhook)
	for k := range windowPools {
		for windowPools[k].Get() != nil {
		}
		windowPools[k].New = func() any { misses.Add(1); return nil }
	}
	step("all hits", targets, false, 0)
	wantKept("all hits", cas.Token{})
	if !raceEnabled {
		// The race detector's sync.Pool drops a quarter of all Puts.
		ref := c.fetchAndParse(targets[0].Handle, targets[0].Name, module, nil)
		var got []*[]byte
		for _, comp := range ref.parsed.Components {
			if comp.Normalize {
				got = append(got, getWindows(len(comp.Data)))
			}
		}
		if n := misses.Load(); n != 0 {
			t.Errorf("%d of %d window bitmaps were not in the pool after the kept memo was dropped", n, relocated)
		}
		for _, p := range got {
			putWindows(p)
		}
		c.releaseFetched(ref)
	}
	unhook()

	// Another VM as the reference: Dom2 loads the module at the other
	// base, so Dom3 fills a fresh memo and Dom5 hits it.
	step("Dom2 as reference", targets[1:], false, rel)
	wantKept("Dom2 as reference", stamp(1))

	// Dom1 back as the reference: the memo stamped with Dom2's token is
	// released, and the one digest, a dirtied Dom6, fills a fresh memo.
	dirty(t, ds[5])
	step("Dom1 as reference again", targets, false, 0)
	wantKept("Dom1 as reference again", reverted)
}

// memoRun is what one engine run exposes to its caller: every VM's digest
// key and cluster, the representative comparisons, the stage charges and
// every charge in order.
type memoRun struct {
	keys      []string
	clusterOf []int
	errs      []string
	mm        map[clusterPair][]string
	stages    StageTiming
	timing    PhaseTiming
	elapsed   time.Duration
	charges   []time.Duration
}

// TestRefMemoMatchesFreshMemo is a differential test of the kept memo: a
// churn sequence on one Checker with a digest store — followers patched
// and reverted, and the reference's hal.dll patched and then reverted too
// — must yield exactly what the same sequence yields when every module run
// starts from a fresh memo: digest keys, clusters, mismatch lists, stages,
// timing and every charge.
func TestRefMemoMatchesFreshMemo(t *testing.T) {
	disk, err := guest.BuildStandardDisk()
	if err != nil {
		t.Fatal(err)
	}
	ds := memoFleet(t, 8, disk, 64<<20)
	var modules []string
	for _, m := range ds[0].Guest().Modules() {
		modules = append(modules, m.Name)
	}

	type side struct {
		c       *Checker
		charges []time.Duration
		reuses  int
	}
	newSide := func() *side {
		s := &side{}
		s.c = NewChecker(Config{DigestCache: cas.NewStore(0), Charge: func(d time.Duration) time.Duration {
			s.charges = append(s.charges, d)
			return d
		}})
		return s
	}
	kept, fresh := newSide(), newSide()
	sweep := func(s *side, dropFirst bool) []memoRun {
		ps, err := s.c.NewPoolSweep(fleetTargets(ds))
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		var runs []memoRun
		for _, m := range modules {
			if dropFirst {
				s.c.putMemo(m, nil)
			}
			s.charges = nil
			o := ps.eng.check(m)
			r := memoRun{clusterOf: o.clusterOf, mm: o.mm, stages: o.rep.Stages, timing: o.rep.Timing,
				elapsed: o.rep.Elapsed, charges: s.charges}
			for i, cid := range o.clusterOf {
				key := "-"
				if cid >= 0 {
					key = fmt.Sprintf("%x", o.clusters[cid].key)
				}
				r.keys = append(r.keys, key)
				r.errs = append(r.errs, fmt.Sprint(o.errs[i]))
			}
			runs = append(runs, r)
		}
		s.reuses += ps.MemoReuses
		return runs
	}

	patch := func(d *hypervisor.Domain) {
		t.Helper()
		err := rootkit.InfectDiskAndReload(d.Guest(), "hal.dll", func(img []byte) ([]byte, error) {
			out, _, err := rootkit.OpcodeReplace(img)
			return out, err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	revert := func(d *hypervisor.Domain) {
		t.Helper()
		if err := d.Revert("boot"); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name   string
		mutate func()
	}{
		{"cold", func() {}},
		{"warm", func() {}},
		{"patch Dom3, Dom6", func() { patch(ds[2]); patch(ds[5]) }},
		{"revert Dom3, Dom6; patch Dom4, Dom7", func() { revert(ds[2]); revert(ds[5]); patch(ds[3]); patch(ds[6]) }},
		{"patch the reference", func() { patch(ds[0]) }},
		{"still patched", func() {}},
		{"revert the reference", func() { revert(ds[0]) }},
		{"revert Dom4, Dom7; patch Dom5", func() { revert(ds[3]); revert(ds[6]); patch(ds[4]) }},
		{"patch Dom8", func() { patch(ds[7]) }},
	}
	for _, st := range steps {
		st.mutate()
		got, want := sweep(kept, false), sweep(fresh, true)
		for k, m := range modules {
			if !reflect.DeepEqual(got[k], want[k]) {
				t.Errorf("%s: %s: the run from the kept memo differs from the run from a fresh memo:\n got %+v\nwant %+v",
					st.name, m, got[k], want[k])
			}
		}
	}
	if kept.reuses == 0 {
		t.Error("no module run started from a kept memo")
	}
	if fresh.reuses != 0 {
		t.Errorf("%d module runs of the fresh side started from a kept memo", fresh.reuses)
	}
}

// TestRefMemoConcurrentSessions runs two sweep sessions on one Checker
// from two goroutines, each checking the same module over the same fleet
// again and again: a kept memo is only ever used by the run that took it.
// Every run must produce the digest keys of a lone run, and after the
// race the memo kept last still answers the next run.
func TestRefMemoConcurrentSessions(t *testing.T) {
	const module = "alpha.sys"
	ds := memoFleet(t, 6, testDisk(t), 16<<20)
	keysOf := func(o *outcome) []string {
		keys := make([]string, len(o.clusterOf))
		for i, cid := range o.clusterOf {
			keys[i] = o.clusters[cid].key
		}
		return keys
	}
	want, _ := checkOnce(t, NewChecker(Config{}), fleetTargets(ds), module)

	c := NewChecker(Config{Parallel: true})
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for range 2 {
		targets := fleetTargets(ds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				ps, err := c.NewPoolSweep(targets)
				if err != nil {
					errs <- err.Error()
					return
				}
				o := ps.eng.check(module)
				ps.Close()
				if !reflect.DeepEqual(keysOf(o), keysOf(want)) {
					errs <- fmt.Sprintf("keys %x, want %x", keysOf(o), keysOf(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if _, reuses := checkOnce(t, c, fleetTargets(ds), module); reuses != 1 {
		t.Errorf("the run after the concurrent sessions started from a kept memo %d times, want once", reuses)
	}
}
