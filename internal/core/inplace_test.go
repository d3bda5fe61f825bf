package core

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/mm"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
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
// and the head of the pool are copied, and every later clean copy is
// checked in place. Every clean copy takes the covered key, and a module
// of one key is one cluster, so no other copy reads a byte into a buffer,
// and none is parsed. One pool loads the module at a different base on
// every VM and one is clones of two templates, so the first partner is at
// another base than the reference's and is the whole head; in a pool of
// one template's clones no head digest has windows, and the head is
// maxHead copies.
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
	fleet := func(ds []*hypervisor.Domain) ([]Target, []*copyCounter) {
		targets := make([]Target, len(ds))
		mems := make([]*copyCounter, len(ds))
		for i, d := range ds {
			mems[i] = &copyCounter{FrameViewer: d.PhysReader()}
			targets[i] = Target{Name: d.Name, Handle: vmi.Open(d.Name, mems[i], d.Guest().CR3(), profile)}
		}
		return targets, mems
	}
	clones, cloneMems := fleet(memoFleet(t, 6, testDisk(t), 16<<20))
	single, err := hypervisor.New(4).CloneFleet("Dom", 6, 1, testDisk(t), 16<<20, 11)
	if err != nil {
		t.Fatal(err)
	}
	singles, singleMems := fleet(single)
	for _, pool := range []struct {
		name    string
		targets []Target
		mems    []*copyCounter
		head    int
	}{{"booted", booted, bootedMems, 1}, {"clones", clones, cloneMems, 1}, {"one template", singles, singleMems, maxHead}} {
		for _, parallel := range []bool{false, true} {
			c := NewChecker(Config{Parallel: parallel})
			ps, err := c.NewPoolSweep(pool.targets)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range pool.mems {
				m.copies.Store(0)
			}
			rep := ps.CheckModule(module)
			ps.Close()
			if len(rep.VMReports) != 0 || len(rep.out.clusters) != 1 {
				t.Fatalf("%s: clean pool: %d non-clean VMs in %d clusters, want none in one", pool.name, len(rep.VMReports), len(rep.out.clusters))
			}
			for g, m := range pool.mems {
				if n := m.copies.Load(); (n > 0) != (g <= pool.head) {
					t.Errorf("%s, parallel=%v: %s made %d copying reads, want them only from the reference and the %d head copies",
						pool.name, parallel, pool.targets[g].Name, n, pool.head)
				}
			}
			if want := len(pool.targets) - 1 - pool.head; ps.InPlace != want || ps.InPlaceFallbacks != 0 {
				t.Errorf("%s, parallel=%v: %d copies checked in place, %d fallbacks; want %d and 0", pool.name, parallel, ps.InPlace, ps.InPlaceFallbacks, want)
			}
		}
	}
}

// TestInPlaceFallbacksCountDifferingCopies: a copy the in-place check
// cannot apply to is copied without counting as a fallback. The head
// digests fill the memo, each entry from the first of them whose sides
// came out equal on it, until one is covered under windows or maxHead have
// run, and the memo covers every clean copy after them. A digest at the
// reference's base fills nothing, so when the head is all such copies the
// memo has no windows: the copies at the other base are copied, and take
// their digest key, a second key, whose cluster is compared with the
// reference's base by base. A first partner whose .rdata is renamed, or
// whose .text carries a forged address (an extra window) and a flipped
// byte, leaves that component's entry to the next copy at its base, the
// third head digest. A reference whose .rdata is renamed gives that
// component no entry at all: the copies at the other base are copied, not
// checked, and those at the reference's base are compared byte for byte in
// place, and fall back where their section table differs.
func TestInPlaceFallbacksCountDifferingCopies(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	img, err := pe.Parse(disk[module])
	if err != nil {
		t.Fatal(err)
	}
	text := img.Section(".text").Header.VirtualAddress
	renameRdata := func(t *testing.T, d, _ *hypervisor.Domain) {
		rva := sectionHeaderRVA(t, disk[module], ".rdata")
		if err := rootkit.PatchLiveBytes(d.Guest(), module, rva, []byte(".rdat2\x00\x00")); err != nil {
			t.Fatal(err)
		}
	}
	// forge sets the 4 bytes at .text+84, at no relocation site (see
	// TestStandInDivergence), to the reference's relocated to d's base, and
	// flips the byte at .text+300.
	forge := func(t *testing.T, d, ref *hypervisor.Domain) {
		le := binary.LittleEndian
		g, r := d.Guest(), ref.Guest()
		field, code := make([]byte, 4), make([]byte, 1)
		if err := r.AddressSpace().Read(r.Module(module).Base+text+84, field); err != nil {
			t.Fatal(err)
		}
		if err := g.AddressSpace().Read(g.Module(module).Base+text+300, code); err != nil {
			t.Fatal(err)
		}
		forged := le.Uint32(field) + g.Module(module).Base - r.Module(module).Base
		if err := rootkit.PatchLiveBytes(g, module, text+84, le.AppendUint32(nil, forged)); err != nil {
			t.Fatal(err)
		}
		if err := rootkit.PatchLiveBytes(g, module, text+300, []byte{^code[0]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range []struct {
		name      string
		order     []int // clones by index; templates alternate, so even ones share the reference's base
		patched   int   // position in order of the patched copy; -1: none
		patch     func(t *testing.T, d, ref *hypervisor.Domain)
		inPlace   int
		fallbacks int
		clusters  int
	}{
		// Dom3, Dom5 and Dom7 are the head and digest raw; Dom2, Dom4,
		// Dom6 and Dom8 are copied and key their digest.
		{"reference's base first", []int{0, 2, 4, 6, 1, 3, 5, 7}, -1, nil, 0, 0, 2},
		// Dom2, Dom3 and Dom4 are the head; Dom4 completes the fill. The
		// covered key is at two bases beside Dom2's cluster.
		{"first partner without .rdata", []int{0, 1, 2, 3, 4, 5, 6, 7}, 1, renameRdata, 4, 0, 3},
		{"first partner forged", []int{0, 1, 2, 3, 4, 5, 6, 7}, 1, forge, 4, 0, 3},
		// Dom2, Dom3 and Dom4 are the head and none is covered; Dom5 and
		// Dom7 are checked in place and fall back. The copies share
		// clusters by base, apart from the reference.
		{"reference without .rdata", []int{0, 1, 2, 3, 4, 5, 6, 7}, 0, renameRdata, 0, 2, 3},
	} {
		ds := memoFleet(t, 8, disk, 16<<20)
		all := fleetTargets(ds)
		targets := make([]Target, len(sc.order))
		for i, k := range sc.order {
			targets[i] = all[k]
		}
		var flagged []string
		if sc.patched >= 0 {
			d := ds[sc.order[sc.patched]]
			sc.patch(t, d, ds[sc.order[0]])
			flagged = []string{d.Name}
		}
		ps, err := NewChecker(Config{}).NewPoolSweep(targets)
		if err != nil {
			t.Fatal(err)
		}
		rep := ps.CheckModule(module)
		ps.Close()
		if !slices.Equal(rep.Flagged, flagged) || len(rep.VMReports) != len(flagged) {
			t.Fatalf("%s: flagged %v of %d non-clean VMs, want %v", sc.name, rep.Flagged, len(rep.VMReports), flagged)
		}
		if len(rep.out.clusters) != sc.clusters {
			t.Errorf("%s: %d clusters, want %d", sc.name, len(rep.out.clusters), sc.clusters)
		}
		if ps.InPlace != sc.inPlace || ps.InPlaceFallbacks != sc.fallbacks {
			t.Errorf("%s: %d copies in place, %d fallbacks; want %d and %d", sc.name, ps.InPlace, ps.InPlaceFallbacks, sc.inPlace, sc.fallbacks)
		}
	}
}
