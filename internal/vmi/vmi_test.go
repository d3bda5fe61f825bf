package vmi

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/mm"
	"modchecker/internal/nt"
)

func testGuest(t testing.TB) *guest.Guest {
	t.Helper()
	img, err := guest.BuildImage(guest.ModuleSpec{
		Name: "alpha.sys", TextSize: 16 << 10, DataSize: 4 << 10, RdataSize: 1 << 10,
		PreferredBase: 0x10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guest.New(guest.Config{
		Name: "vm1", MemBytes: 16 << 20, BootSeed: 1,
		Disk: map[string][]byte{"alpha.sys": img},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func open(t testing.TB, g *guest.Guest, opts ...Option) *Handle {
	t.Helper()
	return Open(g.Name(), g.Phys(), g.CR3(), XPSP2Profile(guest.PsLoadedModuleListVA), opts...)
}

func TestSymbolVA(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	va, err := h.SymbolVA("PsLoadedModuleList")
	if err != nil || va != guest.PsLoadedModuleListVA {
		t.Errorf("SymbolVA = %#x, %v", va, err)
	}
	if _, err := h.SymbolVA("KdDebuggerDataBlock"); !errors.Is(err, ErrSymbol) {
		t.Errorf("unknown symbol: %v", err)
	}
}

func TestVMName(t *testing.T) {
	h := open(t, testGuest(t))
	if h.VMName() != "vm1" {
		t.Errorf("VMName = %q", h.VMName())
	}
}

func TestTranslateMatchesGuest(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	want, err := g.AddressSpace().Translate(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Translate(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Translate = %#x, want %#x", got, want)
	}
}

func TestReadVAMatchesGuestMemory(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	want := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	if err := h.ReadVA(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("introspected bytes differ from guest view")
	}
}

func TestReadVAUnmapped(t *testing.T) {
	h := open(t, testGuest(t))
	if err := h.ReadVA(0xDEAD0000, make([]byte, 4)); err == nil {
		t.Error("read of unmapped VA succeeded")
	}
}

func TestReadU32(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	v, err := h.ReadU32(mod.Base)
	if err != nil {
		t.Fatal(err)
	}
	// "MZ" + e_cblp(0x90).
	if v&0xFFFF != 0x5A4D {
		t.Errorf("ReadU32(base) = %#x, want MZ magic in low half", v)
	}
}

func TestReadLdrEntryAndUnicode(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	// LDR entries are read with ReadVA and decoded by value, as
	// Module-Searcher's list walk does.
	b := make([]byte, nt.LdrDataTableEntrySize)
	if err := h.ReadVA(guest.PsLoadedModuleListVA, b[:nt.ListEntrySize]); err != nil {
		t.Fatal(err)
	}
	head, err := nt.DecodeListEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadVA(head.Flink, b); err != nil {
		t.Fatal(err)
	}
	entry, err := nt.DecodeLdrDataTableEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if entry.DllBase != g.Module("alpha.sys").Base {
		t.Errorf("DllBase = %#x", entry.DllBase)
	}
	// Read the name through the UNICODE_STRING header.
	nameVA := head.Flink + nt.OffBaseDllName
	name, err := h.ReadUnicodeString(nameVA)
	if err != nil {
		t.Fatal(err)
	}
	if name != "alpha.sys" {
		t.Errorf("name = %q", name)
	}
}

func TestReadUnicodeStringEmpty(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	// The list head itself decodes as a UNICODE_STRING with garbage; craft
	// an empty one in scratch memory instead: write zero-length string
	// header into guest memory via the guest side.
	const va = 0x80700000
	if _, err := g.AddressSpace().AllocAndMap(va, mm.PageSize, mm.PteWritable); err != nil {
		t.Fatal(err)
	}
	us := nt.UnicodeString{Length: 0, MaximumLength: 0, Buffer: 0}
	if err := g.AddressSpace().Write(va, nt.EncodeUnicodeString(us)); err != nil {
		t.Fatal(err)
	}
	s, err := h.ReadUnicodeString(va)
	if err != nil || s != "" {
		t.Errorf("got %q, %v", s, err)
	}
}

func TestStatsCount(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	buf := make([]byte, 3*mm.PageSize)
	if err := h.ReadVA(mod.Base, buf); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.PagesRead != 3 || s.PTWalks != 3 {
		t.Errorf("stats = %+v, want 3 pages / 3 walks", s)
	}
	if s.BytesRead != uint64(len(buf)) {
		t.Errorf("BytesRead = %d", s.BytesRead)
	}
}

func TestChargeHook(t *testing.T) {
	g := testGuest(t)
	var mu sync.Mutex
	var total time.Duration
	h := open(t, g, WithCharge(func(d time.Duration) {
		mu.Lock()
		total += d
		mu.Unlock()
	}))
	mod := g.Module("alpha.sys")
	if err := h.ReadVA(mod.Base, make([]byte, 2*mm.PageSize)); err != nil {
		t.Fatal(err)
	}
	want := 2*CostPageRead + 2*CostPTWalk
	if total != want {
		t.Errorf("charged %v, want %v", total, want)
	}
}

func TestMapRangeMatchesReadVA(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	a := make([]byte, mod.SizeOfImage)
	if err := h.ReadVA(mod.Base, a); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, mod.SizeOfImage)
	if err := h.MapRange(mod.Base, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("MapRange content differs from ReadVA")
	}
	if h.Stats().MapSetups != 1 {
		t.Errorf("MapSetups = %d", h.Stats().MapSetups)
	}
}

func TestMapRangeCheaperThanPageWise(t *testing.T) {
	g := testGuest(t)
	mod := g.Module("alpha.sys")
	cost := func(f func(h *Handle)) time.Duration {
		var total time.Duration
		h := open(t, g, WithCharge(func(d time.Duration) { total += d }))
		f(h)
		return total
	}
	pw := cost(func(h *Handle) { h.ReadVA(mod.Base, make([]byte, mod.SizeOfImage)) })
	mp := cost(func(h *Handle) { h.MapRange(mod.Base, make([]byte, mod.SizeOfImage)) })
	if mp >= pw {
		t.Errorf("mapped copy (%v) not cheaper than page-wise (%v)", mp, pw)
	}
}

func TestReadVAUnalignedStart(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	want := make([]byte, 100)
	g.AddressSpace().Read(mod.Base+mm.PageSize-50, want)
	got := make([]byte, 100)
	if err := h.ReadVA(mod.Base+mm.PageSize-50, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("unaligned cross-page read mismatch")
	}
}

// TestIntrospectionIsOutOfBand verifies the property Figure 9 rests on:
// introspecting a guest does not disturb any guest-visible state.
func TestIntrospectionIsOutOfBand(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	g.Tick(100)
	before := g.Sample()
	mod := g.Module("alpha.sys")
	for i := 0; i < 50; i++ {
		if err := h.ReadVA(mod.Base, make([]byte, mod.SizeOfImage)); err != nil {
			t.Fatal(err)
		}
	}
	after := g.Sample()
	// Page-fault and uptime counters change only via Tick; VMI reads must
	// leave uptime identical and memory content identical.
	if after.TimeMS != before.TimeMS {
		t.Error("introspection advanced guest time")
	}
	buf1 := make([]byte, mod.SizeOfImage)
	g.AddressSpace().Read(mod.Base, buf1)
	buf2 := make([]byte, mod.SizeOfImage)
	h.ReadVA(mod.Base, buf2)
	if !bytes.Equal(buf1, buf2) {
		t.Error("repeated introspection changed memory")
	}
}

func TestConcurrentReads(t *testing.T) {
	g := testGuest(t)
	mod := g.Module("alpha.sys")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := open(t, g)
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 50; j++ {
				off := uint32(rng.Intn(int(mod.SizeOfImage) - 64))
				if err := h.ReadVA(mod.Base+off, make([]byte, 64)); err != nil {
					t.Errorf("concurrent read: %v", err)
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
}

func TestReadVAConsistentStableRange(t *testing.T) {
	g := testGuest(t)
	h := open(t, g)
	mod := g.Module("alpha.sys")
	want := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	passes, err := h.ReadVAConsistent(mod.Base, got, 4)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 2 {
		t.Errorf("stable range took %d passes, want 2", passes)
	}
	if !bytes.Equal(got, want) {
		t.Error("verified copy differs from guest view")
	}
	// The verify pass pays for its reads: twice the pages of a plain copy.
	if h.Stats().PagesRead != 2*uint64((mod.SizeOfImage+mm.PageSize-1)/mm.PageSize) {
		t.Errorf("PagesRead = %d, want double the page count", h.Stats().PagesRead)
	}
}

// TestReadVAConsistentRecoversTornWindow: with a fault plan tearing bulk
// reads for a bounded window, the verify loop keeps re-reading until two
// passes agree and returns the clean bytes.
func TestReadVAConsistentRecoversTornWindow(t *testing.T) {
	g := testGuest(t)
	mod := g.Module("alpha.sys")
	plan := faults.NewPlan(3)
	h := Open(g.Name(), plan.Reader(g.Name(), g.Phys()), g.CR3(), XPSP2Profile(guest.PsLoadedModuleListVA))
	want := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, mod.SizeOfImage)
	// Probe one clean pass to learn how many plan reads (walks + page
	// copies) a full copy of the module costs, then tear exactly the next
	// pass: the verify loop's first pass is corrupted, later ones clean.
	if err := h.ReadVA(mod.Base, got); err != nil {
		t.Fatal(err)
	}
	perPass := plan.Reads(g.Name())
	plan.TornWindow(g.Name(), perPass, 2*perPass)
	passes, err := h.ReadVAConsistent(mod.Base, got, 5)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 3 {
		t.Errorf("torn first pass verified in %d passes, want >= 3", passes)
	}
	if !bytes.Equal(got, want) {
		t.Error("recovered copy still corrupt")
	}
}

// TestReadVAConsistentExhaustsAsTornRead: a window torn for longer than the
// pass budget surfaces as ErrTornRead, classified transient.
func TestReadVAConsistentExhaustsAsTornRead(t *testing.T) {
	g := testGuest(t)
	mod := g.Module("alpha.sys")
	plan := faults.NewPlan(3)
	plan.TornWindow(g.Name(), 0, 1<<40)
	h := Open(g.Name(), plan.Reader(g.Name(), g.Phys()), g.CR3(), XPSP2Profile(guest.PsLoadedModuleListVA))
	_, err := h.ReadVAConsistent(mod.Base, make([]byte, mod.SizeOfImage), 3)
	if !errors.Is(err, ErrTornRead) {
		t.Fatalf("err = %v, want ErrTornRead", err)
	}
	if !faults.IsTransient(err) {
		t.Error("torn read not classified transient")
	}
}

// TestWrongProfileFailsCleanly models operator error: introspecting with a
// profile whose PsLoadedModuleList address is wrong must produce errors or
// garbage-free failures, never a panic.
func TestWrongProfileFailsCleanly(t *testing.T) {
	g := testGuest(t)
	wrong := Profile{OSName: "WinXPSP3x86", Symbols: map[string]uint32{
		"PsLoadedModuleList": 0x80400000, // unmapped in this guest
	}}
	h := Open(g.Name(), g.Phys(), g.CR3(), wrong)
	va, err := h.SymbolVA("PsLoadedModuleList")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ReadVA(va, make([]byte, 8)); err == nil {
		t.Error("read through wrong profile succeeded")
	}
}

// TestWrongCR3FailsCleanly models introspecting with a stale CR3 (the vCPU
// moved to another process): translations fail, no panic.
func TestWrongCR3FailsCleanly(t *testing.T) {
	g := testGuest(t)
	h := Open(g.Name(), g.Phys(), 0x3000, XPSP2Profile(guest.PsLoadedModuleListVA))
	if err := h.ReadVA(guest.PsLoadedModuleListVA, make([]byte, 8)); err == nil {
		t.Error("read through bogus CR3 succeeded")
	}
}
