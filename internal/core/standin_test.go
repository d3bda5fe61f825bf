package core

import (
	"encoding/binary"
	"testing"

	"modchecker/internal/cas"
	"modchecker/internal/hypervisor"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
)

// TestRelocationShapedTamperMatchesOracle is a differential test of the
// engine's clusters on tampering that Algorithm 2 reads as relocation:
// fields that look relocated against one partner and not against another.
// A copy the reference does not cover can match the reference pairwise and
// not a covered copy at another base, or the reverse, so a cluster of the
// covered key at several bases cannot stand for itself in one comparison.
// Every shape runs on a 9-clone fleet of three templates (Dom1, Dom4 and
// Dom7 share the reference's base; Dom2, Dom5 and Dom8 another; Dom3, Dom6
// and Dom9 a third), and the engine must report exactly what the
// FullPairwise oracle reports: verdicts, successes, pairs and tallies.
//
//   - forged field: 4 bytes of .text that no relocation site covers, set
//     to the reference's field plus the bases' difference;
//   - forged against the first partner: the same field set to Dom2's plus
//     the difference from Dom2's base;
//   - unrelocated site: one relocation site left holding the address it has
//     at the reference's base;
//   - forged first partner: the forged field on Dom2, whose digest fills
//     the memo and is covered by its own windows;
//   - forged on two bases: the forged field on Dom2 and Dom3, whose windows
//     cover each other.
//
// Each shape runs once from a fresh Checker, and once on a Checker with a
// digest store whose first sweep saw the fleet clean, so that every
// untouched copy is a store hit covered under the windows of that sweep.
func TestRelocationShapedTamperMatchesOracle(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	img, err := pe.Parse(disk[module])
	if err != nil {
		t.Fatal(err)
	}
	text := img.Section(".text").Header.VirtualAddress
	sites, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	const forged = 84 // .text offset of the forged field
	var site uint32   // the first .text relocation site
	for _, s := range sites {
		if s+4 > text+forged && s < text+forged+4 {
			t.Fatalf("a relocation site at %#x overlaps the forged field", s)
		}
		if site == 0 && s >= text {
			site = s
		}
	}
	le := binary.LittleEndian
	// field returns a patched VM's new field from the reference's, at the
	// reference's, the first partner's and the VM's own base.
	type field func(ref, refBase, partnerBase, base uint32) uint32
	forge := func(ref, refBase, _, base uint32) uint32 { return ref + base - refBase }
	shapes := []struct {
		name  string
		vms   []int
		rva   uint32
		field field
	}{
		{"forged field", []int{5}, text + forged, forge},
		{"forged against the first partner", []int{5}, text + forged,
			func(ref, _, partnerBase, base uint32) uint32 { return ref + base - partnerBase }},
		{"unrelocated site", []int{5}, site, func(ref, _, _, _ uint32) uint32 { return ref }},
		{"forged first partner", []int{1}, text + forged, forge},
		{"forged on two bases", []int{1, 2}, text + forged, forge},
	}
	fleet := func() []*hypervisor.Domain {
		ds, err := hypervisor.New(4).CloneFleet("Dom", 9, 3, disk, 16<<20, 11)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	for _, shape := range shapes {
		patch := func(ds []*hypervisor.Domain) {
			t.Helper()
			ref, partner := ds[0].Guest(), ds[1].Guest()
			refBase, partnerBase := ref.Module(module).Base, partner.Module(module).Base
			if refBase == partnerBase || ds[2].Guest().Module(module).Base == partnerBase {
				t.Fatalf("bases %#x, %#x, %#x: want three", refBase, partnerBase, ds[2].Guest().Module(module).Base)
			}
			b := make([]byte, 4)
			if err := ref.AddressSpace().Read(refBase+shape.rva, b); err != nil {
				t.Fatal(err)
			}
			for _, i := range shape.vms {
				vm := ds[i].Guest()
				f := shape.field(le.Uint32(b), refBase, partnerBase, vm.Module(module).Base)
				if err := rootkit.PatchLiveBytes(vm, module, shape.rva, le.AppendUint32(nil, f)); err != nil {
					t.Fatal(err)
				}
			}
		}
		oracle := fleet()
		patch(oracle)
		want, err := NewChecker(Config{FullPairwise: true}).CheckPool(module, fleetTargets(oracle))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.VMReports) == 0 {
			t.Fatalf("%s: the oracle finds every VM clean", shape.name)
		}
		for _, store := range []bool{false, true} {
			ds := fleet()
			cfg := Config{}
			if store {
				cfg.DigestCache = cas.NewStore(0)
			}
			c := NewChecker(cfg)
			sweep := func() *PoolReport {
				ps, err := c.NewPoolSweep(fleetTargets(ds))
				if err != nil {
					t.Fatal(err)
				}
				defer ps.Close()
				return ps.CheckModule(module)
			}
			if store {
				if rep := sweep(); len(rep.out.clusters) != 1 {
					t.Fatalf("%s: the clean fleet has %d clusters, want one", shape.name, len(rep.out.clusters))
				}
			}
			patch(ds)
			if got, want := poolSig(sweep()), poolSig(want); got != want {
				t.Errorf("%s, store=%v: engine diverges from full pairwise:\n--- engine\n%s--- pairwise\n%s",
					shape.name, store, got, want)
			}
		}
	}
}
