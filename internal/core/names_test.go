package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/mm"
	"modchecker/internal/nt"
)

// ldrName is one LDR entry's names as raw UTF-16LE bytes, so a test can
// plant names no loader would write (odd lengths, lone surrogates).
type ldrName struct{ base, full []byte }

// plantList replaces g's PsLoadedModuleList with one entry per name,
// written into freshly mapped guest memory at listVA. Each entry claims a
// one-page image at a distinct made-up base; nothing copies those.
func plantList(t testing.TB, g *guest.Guest, names []ldrName) {
	t.Helper()
	const listVA = 0x80700000
	rec := func(n ldrName) uint32 {
		return uint32(nt.LdrDataTableEntrySize+len(n.base)+len(n.full)+7) &^ 7
	}
	var size uint32
	for _, n := range names {
		size += rec(n)
	}
	size = (size + mm.PageSize - 1) &^ (mm.PageSize - 1)
	as := g.AddressSpace()
	if _, err := as.AllocAndMap(listVA, size, mm.PteWritable); err != nil {
		t.Fatal(err)
	}
	head := uint32(guest.PsLoadedModuleListVA)
	va, prev := uint32(listVA), head
	for i, n := range names {
		next := head
		if i+1 < len(names) {
			next = va + rec(n)
		}
		baseVA := va + nt.LdrDataTableEntrySize
		fullVA := baseVA + uint32(len(n.base))
		e := nt.LdrDataTableEntry{
			InLoadOrderLinks: nt.ListEntry{Flink: next, Blink: prev},
			DllBase:          0xA0000000 + uint32(i)*mm.PageSize,
			SizeOfImage:      mm.PageSize,
			BaseDllName:      nt.UnicodeString{Length: uint16(len(n.base)), MaximumLength: uint16(len(n.base)), Buffer: baseVA},
			FullDllName:      nt.UnicodeString{Length: uint16(len(n.full)), MaximumLength: uint16(len(n.full)), Buffer: fullVA},
		}
		for _, w := range []struct {
			va uint32
			b  []byte
		}{{va, e.Encode()}, {baseVA, n.base}, {fullVA, n.full}} {
			if err := as.Write(w.va, w.b); err != nil {
				t.Fatal(err)
			}
		}
		prev, va = va, next
	}
	if err := as.Write(head, nt.EncodeListEntry(nt.ListEntry{Flink: listVA, Blink: prev})); err != nil {
		t.Fatal(err)
	}
}

// utf16Names returns one ldrName per base name, with a full name under
// \SystemRoot.
func utf16Names(bases ...string) []ldrName {
	out := make([]ldrName, len(bases))
	for i, b := range bases {
		out[i] = ldrName{nt.EncodeUTF16(b), nt.EncodeUTF16(`\SystemRoot\` + b)}
	}
	return out
}

// size returns the number of names t holds.
func (t *nameTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// checkNames fails unless mods carry exactly the names nt.DecodeUTF16 makes
// of want, in order.
func checkNames(t *testing.T, mods []ModuleInfo, want []ldrName) {
	t.Helper()
	if err := sameNames(mods, want); err != nil {
		t.Fatal(err)
	}
}

// sameNames is checkNames' test, safe to call off the test goroutine.
func sameNames(mods []ModuleInfo, want []ldrName) error {
	if len(mods) != len(want) {
		return fmt.Errorf("listed %d modules, want %d", len(mods), len(want))
	}
	for i, w := range want {
		base, _ := nt.DecodeUTF16(w.base)
		full, _ := nt.DecodeUTF16(w.full)
		if mods[i].Name != base || mods[i].FullName != full {
			return fmt.Errorf("entry %d: names %q, %q, want %q, %q", i, mods[i].Name, mods[i].FullName, base, full)
		}
	}
	return nil
}

// TestListModulesPastNameTableCap walks a guest that lists more distinct
// names than a name table holds: every walk still lists every name, and
// the table stops at its cap.
func TestListModulesPastNameTableCap(t *testing.T) {
	guests, targets := testPool(t, 1)
	bases := make([]string, maxInternedNames/2+50)
	for i := range bases {
		bases[i] = fmt.Sprintf("h%04d.sys", i)
	}
	names := utf16Names(bases...)
	plantList(t, guests[0], names)
	c := NewChecker(Config{})
	for walk := 0; walk < 2; walk++ {
		mods, err := c.newSearcher(targets[0].Handle).ListModules()
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, mods, names)
		if n := c.names.size(); n != maxInternedNames {
			t.Fatalf("walk %d: table holds %d names, want its cap %d", walk, n, maxInternedNames)
		}
	}
}

// TestListModulesLongNames reads names longer than the walk buffer, one
// short enough to intern and one past the table's name-length bound: every
// walk decodes both correctly, and only the first is interned.
func TestListModulesLongNames(t *testing.T) {
	guests, targets := testPool(t, 1)
	long := strings.Repeat("éx", walkBufSize/2) + ".sys"
	huge := strings.Repeat("éx", maxInternedNameBytes/2) + ".sys"
	names := utf16Names("short.sys", long, huge)
	if n := len(names[1].base); n <= walkBufSize || len(names[1].full) > maxInternedNameBytes {
		t.Fatalf("long name is %d bytes, want past the %d-byte walk buffer and internable", n, walkBufSize)
	}
	if n := len(names[2].base); n <= maxInternedNameBytes {
		t.Fatalf("huge name is %d bytes, not past the %d-byte bound", n, maxInternedNameBytes)
	}
	plantList(t, guests[0], names)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	for walk := 0; walk < 2; walk++ {
		mods, err := s.ListModules()
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, mods, names)
	}
	if n := s.names.size(); n != 4 {
		t.Errorf("table holds %d names, want the 4 of the short and long entries", n)
	}
}

// TestListModulesLoneSurrogate lists a name holding an unpaired surrogate:
// it reads exactly as nt.DecodeUTF16 decodes it, interned or not.
func TestListModulesLoneSurrogate(t *testing.T) {
	guests, targets := testPool(t, 1)
	names := utf16Names("a.sys", "b.sys")
	names[1].base = append([]byte{0x00, 0xD8}, names[1].base...) // U+D800 alone
	names[1].full = append(names[1].full, 0x00, 0xDC)            // U+DC00 alone
	plantList(t, guests[0], names)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	for walk := 0; walk < 2; walk++ {
		mods, err := s.ListModules()
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, mods, names)
		if !strings.HasPrefix(mods[1].Name, "\uFFFD") {
			t.Fatalf("walk %d: lone surrogate read as %q", walk, mods[1].Name)
		}
	}
}

// TestListModulesOddLengthName lists a name of odd byte length: the walk
// fails with nt.DecodeUTF16's error, on the first walk and once the
// entry's other names are interned.
func TestListModulesOddLengthName(t *testing.T) {
	guests, targets := testPool(t, 1)
	names := utf16Names("a.sys", "b.sys")
	names[1].full = names[1].full[:len(names[1].full)-1]
	plantList(t, guests[0], names)
	_, decodeErr := nt.DecodeUTF16(names[1].full)
	if decodeErr == nil {
		t.Fatal("odd-length name decodes")
	}
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	for walk := 0; walk < 2; walk++ {
		_, err := s.ListModules()
		if err == nil {
			t.Fatalf("walk %d listed an odd-length name", walk)
		}
		entry := uint32(0x80700000) + uint32(nt.LdrDataTableEntrySize+len(names[0].base)+len(names[0].full)+7)&^7
		want := fmt.Sprintf("core: reading FullDllName of entry %#x: %v", entry, decodeErr)
		if err.Error() != want {
			t.Fatalf("walk %d: err %q, want %q", walk, err, want)
		}
	}
}

// TestSweepListWalksShareNameTable runs parallel list walks through one
// checker's name table (run it under -race). Each guest lists names of its
// own, so one walk's inserts race another's lookups; every walk must list
// its guest's names exactly.
func TestSweepListWalksShareNameTable(t *testing.T) {
	guests, targets := testPool(t, 4)
	lists := make([][]ldrName, len(guests))
	for i, g := range guests {
		bases := make([]string, 100)
		for k := range bases {
			bases[k] = fmt.Sprintf("g%d-%03d.sys", i, k%50) // each name twice
		}
		lists[i] = utf16Names(bases...)
		plantList(t, g, lists[i])
	}
	c := NewChecker(Config{})
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, len(targets))
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for walk := 0; walk < 5; walk++ {
				mods, err := c.newSearcher(targets[i].Handle).ListModules()
				if err == nil {
					err = sameNames(mods, lists[i])
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s walk %d: %w", targets[i].Name, walk, err)
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if n, want := c.names.size(), len(guests)*2*50; n != want {
		t.Errorf("table holds %d names, want %d", n, want)
	}
}

// FuzzNameTableDecode checks that a name table decodes any bytes exactly as
// nt.DecodeUTF16 does, error text included, both when it decodes them and
// when it returns them from the table.
func FuzzNameTableDecode(f *testing.F) {
	f.Add([]byte("a\x00.\x00s\x00y\x00s\x00"))
	f.Add([]byte{0x41})
	f.Add([]byte{0x00, 0xD8, 0x41, 0x00})
	f.Add([]byte{0x3D, 0xD8, 0x00, 0xDE})
	f.Add(make([]byte, maxInternedNameBytes+2))
	var tbl nameTable
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := nt.DecodeUTF16(b)
		for pass := 0; pass < 2; pass++ {
			got, err := tbl.decode(b)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("pass %d: decode(%x) = %q, %v; nt.DecodeUTF16 = %q, %v", pass, b, got, err, want, wantErr)
			}
		}
	})
}
