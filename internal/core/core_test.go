package core

import (
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/vmi"
)

// testDisk builds a compact golden disk shared by core tests: one marker
// module and one plain module, both with relocations and imports.
func testDisk(t testing.TB) map[string][]byte {
	t.Helper()
	disk := map[string][]byte{}
	for _, spec := range []guest.ModuleSpec{
		{Name: "alpha.sys", TextSize: 16 << 10, DataSize: 4 << 10, RdataSize: 2 << 10,
			PreferredBase: 0x10000, Marker: true,
			Imports: []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"ZwClose"}}}},
		{Name: "beta.sys", TextSize: 24 << 10, DataSize: 8 << 10, RdataSize: 2 << 10,
			PreferredBase: 0x10000,
			Imports:       []pe.Import{{DLL: "ntoskrnl.exe", Functions: []string{"IoCreateDevice"}}}},
	} {
		img, err := guest.BuildImage(spec)
		if err != nil {
			t.Fatal(err)
		}
		disk[spec.Name] = img
	}
	return disk
}

// pool boots n identical guests and opens a VMI target on each.
func testPool(t testing.TB, n int) ([]*guest.Guest, []Target) {
	t.Helper()
	return testPoolFrom(t, n, testDisk(t))
}

// testPoolFrom is testPool booting from the given disk.
func testPoolFrom(t testing.TB, n int, disk map[string][]byte) ([]*guest.Guest, []Target) {
	t.Helper()
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	guests := make([]*guest.Guest, n)
	targets := make([]Target, n)
	for i := 0; i < n; i++ {
		g, err := guest.New(guest.Config{
			Name:     "vm" + string(rune('1'+i)),
			MemBytes: 16 << 20,
			BootSeed: int64(i+1) * 7919,
			Disk:     disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		guests[i] = g
		targets[i] = Target{
			Name:   g.Name(),
			Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile),
		}
	}
	return guests, targets
}
