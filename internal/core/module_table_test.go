package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"modchecker/internal/cas"
	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/rootkit"
	"modchecker/internal/vmi"
)

// tableFleet forks n copy-on-write clones from two templates booted from
// disk on one hypervisor, each with a "boot" snapshot; clones alternate
// templates, so Dom1 and Dom3 share an image and Dom2 another.
func tableFleet(t testing.TB, n int, disk map[string][]byte, memBytes uint64) (*hypervisor.Hypervisor, []*hypervisor.Domain) {
	t.Helper()
	hv := hypervisor.New(4)
	ds, err := hv.CloneFleet("Dom", n, 2, disk, memBytes, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := d.TakeSnapshot("boot"); err != nil {
			t.Fatal(err)
		}
	}
	return hv, ds
}

// walkFresh walks d's module list through a handle of its own: what a
// session that kept no table reads.
func walkFresh(t testing.TB, d *hypervisor.Domain) []ModuleInfo {
	t.Helper()
	h := vmi.Open(d.Name, d.PhysReader(), d.Guest().CR3(), vmi.XPSP2Profile(guest.PsLoadedModuleListVA))
	mods, err := NewSearcher(h, CopyPageWise).ListModules()
	if err != nil {
		t.Fatal(err)
	}
	return mods
}

// openSweep opens a session over fresh targets on ds, as a scanner sweep
// does.
func openSweep(t testing.TB, c *Checker, ds []*hypervisor.Domain) *PoolSweep {
	t.Helper()
	ps, err := c.NewPoolSweep(fleetTargets(ds))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// sweepView renders what a session saw and concluded, without time: each
// group's module table or walk error, the discovered modules, and every
// VM's verdict, base, disputed components and error for each module.
func sweepView(ps *PoolSweep, modules []string) string {
	var b strings.Builder
	for g := range ps.tables {
		fmt.Fprintf(&b, "group %d: %+v %v\n", g, ps.tables[g], ps.listErr[g])
	}
	names, err := ps.Modules()
	fmt.Fprintf(&b, "modules %v %v\n", names, err)
	for _, m := range modules {
		rep := ps.CheckModule(m)
		for i := 0; i < rep.Len(); i++ {
			r := rep.At(i)
			fmt.Fprintf(&b, "%s %s %v base=%#x %v %v\n", m, r.TargetVM, r.Verdict, r.Base, r.MismatchedComponents(), r.Err)
		}
	}
	return b.String()
}

// unlink removes module from d's PsLoadedModuleList the way a DKOM rootkit
// does: its neighbours are linked to each other, and its entry stays in
// memory.
func unlink(t testing.TB, d *hypervisor.Domain, module string) {
	t.Helper()
	g := d.Guest()
	as := g.AddressSpace()
	raw := make([]byte, nt.LdrDataTableEntrySize)
	if err := as.Read(g.Module(module).LdrEntryVA, raw); err != nil {
		t.Fatal(err)
	}
	e, err := nt.DecodeLdrDataTableEntry(raw)
	if err != nil {
		t.Fatal(err)
	}
	prev, next := e.InLoadOrderLinks.Blink, e.InLoadOrderLinks.Flink
	if err := as.Write(prev, encodeU32(next)); err != nil { // prev.Flink
		t.Fatal(err)
	}
	if err := as.Write(next+4, encodeU32(prev)); err != nil { // next.Blink
		t.Fatal(err)
	}
}

// readU32 reads the guest word at va.
func readU32(t testing.TB, d *hypervisor.Domain, va uint32) uint32 {
	t.Helper()
	b := make([]byte, 4)
	if err := d.Guest().AddressSpace().Read(va, b); err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(b)
}

// writeU32 writes the guest word at va.
func writeU32(t testing.TB, d *hypervisor.Domain, va, v uint32) {
	t.Helper()
	if err := d.Guest().AddressSpace().Write(va, encodeU32(v)); err != nil {
		t.Fatal(err)
	}
}

// TestModuleTableMatchesWalk is the kept tables' differential: one Checker
// keeps module tables across sessions, the other drops them before every
// session and so walks every list. Over clean, patched, unlinked,
// reverted, destroyed and re-created domains, with and without a digest
// store and with identity dedup, both see the same tables and reach the
// same verdicts, disputed components and errors for every module.
func TestModuleTableMatchesWalk(t *testing.T) {
	disk := testDisk(t)
	modules := []string{"alpha.sys", "beta.sys"}
	for _, leg := range []struct {
		name string
		cfg  func() Config
	}{
		{"plain", func() Config { return Config{} }},
		{"store", func() Config { return Config{DigestCache: cas.NewStore(0)} }},
		{"dedup", func() Config { return Config{DedupIdentical: true, ShardSize: 3} }},
		{"dedup-store", func() Config { return Config{DedupIdentical: true, ShardSize: 3, DigestCache: cas.NewStore(0)} }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			hv, ds := tableFleet(t, 6, disk, 16<<20)
			kept, walked := NewChecker(leg.cfg()), NewChecker(leg.cfg())
			patch := func(d *hypervisor.Domain) {
				err := rootkit.InfectDiskAndReload(d.Guest(), "alpha.sys", func(img []byte) ([]byte, error) {
					out, _, err := rootkit.OpcodeReplace(img)
					return out, err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			revert := func(d *hypervisor.Domain) {
				if err := d.Revert("boot"); err != nil {
					t.Fatal(err)
				}
			}
			reuses := 0
			for _, step := range []struct {
				name   string
				mutate func()
			}{
				{"cold", func() {}},
				{"warm", func() {}},
				{"Dom2 patched", func() { patch(ds[1]) }},
				{"warm, patched", func() {}},
				{"beta.sys unlinked on Dom4", func() { unlink(t, ds[3], "beta.sys") }},
				{"the reference patched", func() { patch(ds[0]) }},
				{"all reverted", func() {
					for _, d := range ds[:4] {
						revert(d)
					}
				}},
				{"warm, reverted", func() {}},
				{"Dom6 destroyed", func() {
					if err := hv.DestroyDomain(ds[5].Name); err != nil {
						t.Fatal(err)
					}
				}},
				{"Dom6 re-created", func() {
					d, err := hv.ForkDomain(ds[1].Name, ds[5].Name, 7)
					if err != nil {
						t.Fatal(err)
					}
					ds[5] = d
				}},
				{"warm, re-created", func() {}},
			} {
				step.mutate()
				ps := openSweep(t, kept, ds)
				got := sweepView(ps, modules)
				reuses += ps.TableReuses
				ps.Close()
				walked.tables.Store(nil)
				ps = openSweep(t, walked, ds)
				want := sweepView(ps, modules)
				if ps.TableReuses != 0 {
					t.Fatalf("%s: a session after the kept tables were dropped reused %d", step.name, ps.TableReuses)
				}
				ps.Close()
				if got != want {
					t.Errorf("%s: kept tables\n%s\nwalked tables\n%s", step.name, got, want)
				}
			}
			if reuses == 0 {
				t.Error("no session reused a kept table")
			}
		})
	}
}

// TestModuleTableStaleWalks: once a VM's module table is kept, every change
// that can move what its walk reads moves its content token, and the next
// session walks that VM again and uses what the walk read, while the
// other VMs keep reusing theirs: a write to an LDR entry, to a name
// buffer, to the list head or to a page-table frame, a DKOM unlink, and a
// snapshot revert (same bytes, but the mapping epoch moves).
func TestModuleTableStaleWalks(t *testing.T) {
	disk := testDisk(t)
	// entryField is the VA of a field of alpha.sys's LDR entry.
	entryField := func(d *hypervisor.Domain, off uint32) uint32 {
		return d.Guest().Module("alpha.sys").LdrEntryVA + off
	}
	// remap is prepared before the sweeps: a sealed copy of the page
	// holding alpha.sys's EntryPoint field, with the field changed, which
	// the change then maps in place of the original by writing one PTE.
	var remapVA, remapPFN uint32
	cases := []struct {
		name    string
		prepare func(*testing.T, *hypervisor.Domain)
		change  func(*testing.T, *hypervisor.Domain)
		same    bool // the walk reads what the kept table holds
	}{
		{name: "LDR entry", change: func(t *testing.T, d *hypervisor.Domain) {
			va := entryField(d, nt.OffEntryPoint)
			writeU32(t, d, va, readU32(t, d, va)+0x10)
		}},
		{name: "name buffer", change: func(t *testing.T, d *hypervisor.Domain) {
			buf := readU32(t, d, entryField(d, nt.OffBaseDllName+4))
			if err := d.Guest().AddressSpace().Write(buf, nt.EncodeUTF16("A")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "list head", change: func(t *testing.T, d *hypervisor.Domain) {
			first := readU32(t, d, guest.PsLoadedModuleListVA)
			writeU32(t, d, guest.PsLoadedModuleListVA, readU32(t, d, first))
		}},
		{name: "page-table frame",
			prepare: func(t *testing.T, d *hypervisor.Domain) {
				as := d.Guest().AddressSpace()
				field := entryField(d, nt.OffEntryPoint)
				remapVA = field &^ (mm.PageSize - 1)
				page := make([]byte, mm.PageSize)
				if err := as.Read(remapVA, page); err != nil {
					t.Fatal(err)
				}
				copy(page[field-remapVA:], encodeU32(readU32(t, d, field)+0x10))
				var err error
				if remapPFN, err = as.Phys().AllocFrame(); err != nil {
					t.Fatal(err)
				}
				if err := as.Phys().WritePhys(remapPFN<<mm.PageShift, page); err != nil {
					t.Fatal(err)
				}
				as.Phys().Seal()
			},
			change: func(t *testing.T, d *hypervisor.Domain) {
				if err := d.Guest().AddressSpace().Map(remapVA, remapPFN, mm.PteWritable); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "DKOM unlink", change: func(t *testing.T, d *hypervisor.Domain) { unlink(t, d, "alpha.sys") }},
		{name: "snapshot revert", same: true, change: func(t *testing.T, d *hypervisor.Domain) {
			if err := d.Revert("boot"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ds := tableFleet(t, 4, disk, 16<<20)
			if tc.prepare != nil {
				tc.prepare(t, ds[0])
			}
			c := NewChecker(Config{})
			cold := openSweep(t, c, ds)
			kept := cold.tables[0]
			cold.Close()
			warm := openSweep(t, c, ds)
			if warm.TableReuses != len(ds) || !reflect.DeepEqual(warm.tables[0], kept) {
				t.Fatalf("warm session reused %d tables, want %d", warm.TableReuses, len(ds))
			}
			warm.Close()

			tc.change(t, ds[0])
			want := walkFresh(t, ds[0])
			if reflect.DeepEqual(want, kept) != tc.same {
				t.Fatalf("fixture: the change left the walk equal to the kept table: %v", !tc.same)
			}
			ps := openSweep(t, c, ds)
			defer ps.Close()
			if ps.TableReuses != len(ds)-1 {
				t.Errorf("session after the change reused %d tables, want %d", ps.TableReuses, len(ds)-1)
			}
			if !reflect.DeepEqual(ps.tables[0], want) {
				t.Errorf("Dom1's table after the change\n%+v\nwant the walk's\n%+v", ps.tables[0], want)
			}
			// A module the guest hides is not checked there.
			rep := ps.CheckModule("alpha.sys")
			if r := rep.Report(ds[0].Name); tc.name == "DKOM unlink" && !errors.Is(r.Err, ErrModuleNotFound) {
				t.Errorf("unlinked alpha.sys on Dom1: verdict %v, err %v; want ErrModuleNotFound", r.Verdict, r.Err)
			}
		})
	}
}

// TestModuleTableFailedWalkNotKept: a walk that fails keeps no table under
// its leader's token, even when the token holds, so the next session walks
// that VM again. Dom2 is the only VM with its template's image, so no
// other walk can keep a table under its token.
func TestModuleTableFailedWalkNotKept(t *testing.T) {
	_, ds := tableFleet(t, 3, testDisk(t), 16<<20)
	c := NewChecker(Config{})
	targets := fleetTargets(ds)
	targets[1].Handle = vmi.Open(ds[1].Name, failingReader{}, ds[1].Guest().CR3(), vmi.XPSP2Profile(guest.PsLoadedModuleListVA))
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	if ps.listErr[1] == nil {
		t.Fatal("fixture: Dom2's walk did not fail")
	}
	ps.Close()
	ps = openSweep(t, c, ds)
	defer ps.Close()
	if ps.TableReuses != len(ds)-1 || ps.handles[1] == nil {
		t.Errorf("after Dom2's failed walk: %d tables reused (want %d), Dom2 walked %v",
			ps.TableReuses, len(ds)-1, ps.handles[1] != nil)
	}
}

// failingReader fails every physical read.
type failingReader struct{}

func (failingReader) ReadPhys(uint32, []byte) error { return errors.New("read failed") }

// writeOnFirstRead runs write before its first read, then reads through.
type writeOnFirstRead struct {
	mm.PhysReader
	once  sync.Once
	write func()
}

func (r *writeOnFirstRead) ReadPhys(pa uint32, b []byte) error {
	r.once.Do(r.write)
	return r.PhysReader.ReadPhys(pa, b)
}

// TestModuleTableTokenMovedDuringWalkNotKept: a table is kept only under a
// token that held across its walk. Dom1 renames alpha.sys while its list
// is walked, so its walk reads the new name under the token sampled before
// it; kept under that token, the table would be handed to Dom3, which
// shares Dom1's image and token and still carries the old name. The next
// session must give Dom3 its own walk's table.
func TestModuleTableTokenMovedDuringWalkNotKept(t *testing.T) {
	_, ds := tableFleet(t, 4, testDisk(t), 16<<20)
	if sourceToken(targetPool(fleetTargets(ds)), 0) != sourceToken(targetPool(fleetTargets(ds)), 2) {
		t.Fatal("fixture: Dom1 and Dom3 do not share a token")
	}
	want := walkFresh(t, ds[2])
	c := NewChecker(Config{})
	targets := fleetTargets(ds)
	d := ds[0]
	// The write runs on the walking goroutine, so it must not call
	// t.Fatal: the name buffer's address is read here.
	buf := readU32(t, d, d.Guest().Module("alpha.sys").LdrEntryVA+nt.OffBaseDllName+4)
	rename := &writeOnFirstRead{PhysReader: d.PhysReader(), write: func() {
		if err := d.Guest().AddressSpace().Write(buf, nt.EncodeUTF16("A")); err != nil {
			t.Error(err)
		}
	}}
	targets[0].Handle = vmi.Open(d.Name, rename, d.Guest().CR3(), vmi.XPSP2Profile(guest.PsLoadedModuleListVA))
	ps, err := c.NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	if ps.tables[0][0].Name == want[0].Name {
		t.Fatalf("fixture: Dom1's walk did not see the rename: %+v", ps.tables[0])
	}
	ps.Close()
	ps = openSweep(t, c, ds)
	defer ps.Close()
	if !reflect.DeepEqual(ps.tables[2], want) {
		t.Errorf("Dom3's table\n%+v\nwant its own walk's\n%+v", ps.tables[2], want)
	}
}

// TestModuleTableConcurrentSessions opens sessions from several goroutines
// on one Checker, each checking every module through tables kept by the
// others; under -race it shows that kept tables are only ever read, and
// every session reaches the same verdicts as a walk.
func TestModuleTableConcurrentSessions(t *testing.T) {
	_, ds := tableFleet(t, 4, testDisk(t), 16<<20)
	modules := []string{"alpha.sys", "beta.sys"}
	c := NewChecker(Config{Parallel: true, DigestCache: cas.NewStore(0)})
	ps := openSweep(t, c, ds)
	want := sweepView(ps, modules)
	ps.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				ps, err := c.NewPoolSweep(fleetTargets(ds))
				if err != nil {
					t.Error(err)
					return
				}
				if got := sweepView(ps, modules); got != want {
					t.Errorf("concurrent session\n%s\nwant\n%s", got, want)
				}
				ps.Close()
			}
		}()
	}
	wg.Wait()
}
