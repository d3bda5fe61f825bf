package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/mm"
	"modchecker/internal/trace"
	"modchecker/internal/vmi"
)

// copyCounter is a guest's memory that counts the reads a module copy
// makes: anything longer than a page-table entry.
type copyCounter struct {
	mm.FrameViewer
	copies atomic.Int64
}

func (m *copyCounter) ReadPhys(pa uint32, b []byte) error {
	if len(b) > 4 {
		m.copies.Add(1)
	}
	return m.FrameViewer.ReadPhys(pa, b)
}

// TestCleanCopyDrawsNoFetchBuffer: in an unfaulted sweep, the reference
// and its first partner are copied, and every later clean copy is checked
// in place. Only a copy that fronts a cluster no copy has fronted yet, the
// first one at the other kind of base than the first partner's, is read
// into a buffer; no other clean copy reads a byte into one, and none is
// parsed. One pool loads the module at a different base on every VM; the
// other is two templates' clones, so the copies at the reference's base
// form a cluster of their own.
func TestCleanCopyDrawsNoFetchBuffer(t *testing.T) {
	const module = "beta.sys"
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	guests, _ := testPool(t, 6)
	booted := make([]Target, len(guests))
	bootedMems := make([]*copyCounter, len(guests))
	for i, g := range guests {
		bootedMems[i] = &copyCounter{FrameViewer: g.Phys()}
		booted[i] = Target{Name: g.Name(), Handle: vmi.Open(g.Name(), bootedMems[i], g.CR3(), profile)}
	}
	ds := memoFleet(t, 6, testDisk(t), 16<<20)
	clones := make([]Target, len(ds))
	cloneMems := make([]*copyCounter, len(ds))
	for i, d := range ds {
		cloneMems[i] = &copyCounter{FrameViewer: d.PhysReader()}
		clones[i] = Target{Name: d.Name, Handle: vmi.Open(d.Name, cloneMems[i], d.Guest().CR3(), profile)}
	}
	for _, pool := range []struct {
		name    string
		targets []Target
		mems    []*copyCounter
		fronted bool // a copy at the reference's base fronts a cluster
	}{{"booted", booted, bootedMems, false}, {"clones", clones, cloneMems, true}} {
		for _, parallel := range []bool{false, true} {
			c := NewChecker(Config{Parallel: parallel})
			ps, err := c.NewPoolSweep(pool.targets)
			if err != nil {
				t.Fatal(err)
			}
			bases := make([]uint32, len(pool.targets))
			for g := range bases {
				info, err := ps.lookup(g, module)
				if err != nil {
					t.Fatal(err)
				}
				bases[g] = info.Base
			}
			for _, m := range pool.mems {
				m.copies.Store(0)
			}
			if rep := ps.CheckModule(module); len(rep.VMReports) != 0 {
				t.Fatalf("%s: clean pool reported %d non-clean VMs", pool.name, len(rep.VMReports))
			}
			ps.Close()
			// The reference and its first partner, then the first copy at
			// the other kind of base than the partner's, if any.
			copied := map[int]bool{0: true, 1: true}
			for g := 2; g < len(bases); g++ {
				if (bases[g] == bases[0]) != (bases[1] == bases[0]) {
					copied[g] = true
					break
				}
			}
			if got := len(copied) == 3; got != pool.fronted {
				t.Fatalf("%s: bases %x: a copy fronts a cluster: %v, want %v", pool.name, bases, got, pool.fronted)
			}
			for g, m := range pool.mems {
				if n := m.copies.Load(); (n > 0) != copied[g] {
					t.Errorf("%s, parallel=%v: %s made %d copying reads, want them only from the reference, its first partner and a cluster's first copy",
						pool.name, parallel, pool.targets[g].Name, n)
				}
			}
			if want := len(bases) - len(copied); ps.InPlace != want || ps.InPlaceFallbacks != 0 {
				t.Errorf("%s, parallel=%v: %d copies checked in place, %d fallbacks; want %d and 0", pool.name, parallel, ps.InPlace, ps.InPlaceFallbacks, want)
			}
		}
	}
}

// destroyOnCopy is a domain's memory that, once armed, destroys the domain
// on the first read a module copy makes: anything longer than a page-table
// entry. A copy checked in place reads its frames through ViewPhys, so for
// such a copy that read is the re-read that fronts a cluster.
type destroyOnCopy struct {
	mm.FrameViewer
	armed   atomic.Bool
	once    sync.Once
	destroy func()
}

func (m *destroyOnCopy) ReadPhys(pa uint32, b []byte) error {
	if len(b) > 4 && m.armed.Load() {
		m.once.Do(m.destroy)
	}
	return m.FrameViewer.ReadPhys(pa, b)
}

// TestFrontFailsTheFetch destroys a domain between its copy's in-place
// check and the re-read that would make it the first copy of the clusters
// at the reference's base. The re-read is part of the copy's fetch: the VM
// errors with the destroyed domain's error and is never digested, and the
// next copy at the reference's base fronts the cluster instead.
func TestFrontFailsTheFetch(t *testing.T) {
	const module = "beta.sys"
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	for _, parallel := range []bool{false, true} {
		hv := hypervisor.New(4)
		// Two templates' clones, alternating: the first is the reference,
		// the second (at another base) its first partner, the third the
		// first copy at the reference's base and the fifth the next.
		ds, err := hv.CloneFleet("Dom", 6, 2, testDisk(t), 16<<20, 11)
		if err != nil {
			t.Fatal(err)
		}
		gone := ds[2]
		trap := &destroyOnCopy{FrameViewer: gone.PhysReader(), destroy: func() {
			if err := hv.DestroyDomain(gone.Name); err != nil {
				t.Error(err)
			}
		}}
		targets := make([]Target, len(ds))
		for i, d := range ds {
			var mem mm.FrameViewer = d.PhysReader()
			if d == gone {
				mem = trap
			}
			targets[i] = Target{Name: d.Name, Handle: vmi.Open(d.Name, mem, d.Guest().CR3(), profile)}
		}
		tr := trace.New(0)
		ps, err := NewChecker(Config{Parallel: parallel, Tracer: tr}).NewPoolSweep(targets)
		if err != nil {
			t.Fatal(err)
		}
		// The session's module-table snapshot is taken; from here on the
		// only copying read of the domain is the re-read.
		trap.armed.Store(true)
		rep := ps.CheckModule(module)
		ps.Close()
		if !gone.Destroyed() {
			t.Fatalf("parallel=%v: %s was never re-read", parallel, gone.Name)
		}
		if !slices.Equal(rep.Errored, []string{gone.Name}) || len(rep.Flagged) != 0 {
			t.Fatalf("parallel=%v: errored %v, flagged %v; want only %s errored", parallel, rep.Errored, rep.Flagged, gone.Name)
		}
		if vm := rep.VMReports[0]; !errors.Is(vm.Err, hypervisor.ErrDomainGone) {
			t.Fatalf("parallel=%v: %s's error is %v, want the destroyed domain's", parallel, gone.Name, vm.Err)
		}
		var digested []string
		for _, ev := range tr.Events() {
			if ev.Cat == "digest" {
				digested = append(digested, strings.TrimPrefix(ev.Name, "digest "))
			}
		}
		slices.Sort(digested)
		if want := []string{ds[1].Name, ds[3].Name, ds[4].Name, ds[5].Name}; !slices.Equal(digested, want) {
			t.Fatalf("parallel=%v: digest stage lists %v, want %v", parallel, digested, want)
		}
		// The fourth and sixth join the partner's cluster in place; the
		// fifth fronts the cluster at the reference's base.
		if ps.InPlace != 2 || ps.InPlaceFallbacks != 0 {
			t.Errorf("parallel=%v: %d copies in place, %d fallbacks; want 2 and 0", parallel, ps.InPlace, ps.InPlaceFallbacks)
		}
	}
}

// TestInPlaceFallbacksCountDifferingCopies: a copy the in-place check
// cannot apply to is copied without counting as a fallback. Here the first
// partner sits at the reference's base, so the memo has no windows, and
// the copies at the other base are copied; the later copies at the
// reference's base are checked in place.
func TestInPlaceFallbacksCountDifferingCopies(t *testing.T) {
	const module = "beta.sys"
	ds := memoFleet(t, 8, testDisk(t), 16<<20)
	// Templates alternate: the even clones share the reference's base.
	order := []int{0, 2, 4, 6, 1, 3, 5, 7}
	all := fleetTargets(ds)
	targets := make([]Target, len(order))
	for i, k := range order {
		targets[i] = all[k]
	}
	ps, err := NewChecker(Config{}).NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	rep := ps.CheckModule(module)
	ps.Close()
	if len(rep.VMReports) != 0 {
		t.Fatalf("clean pool reported %d non-clean VMs", len(rep.VMReports))
	}
	if rep.At(0).Base != rep.At(1).Base || rep.At(0).Base == rep.At(4).Base {
		t.Fatalf("bases %x, %x, %x: want the partner at the reference's base and Dom1 elsewhere",
			rep.At(0).Base, rep.At(1).Base, rep.At(4).Base)
	}
	if ps.InPlace != 2 || ps.InPlaceFallbacks != 0 {
		t.Errorf("%d copies in place, %d fallbacks; want 2 and 0", ps.InPlace, ps.InPlaceFallbacks)
	}
}
