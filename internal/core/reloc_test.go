package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"modchecker/internal/cas"
	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/pe"
	"modchecker/internal/rootkit"
)

// TestApplyRelocNormalizationWrappingSites: a hostile .reloc block can name
// a site near 2^32, whose field end wraps past the component's bound in
// 32-bit arithmetic. Such a site lies outside every component and is
// skipped; the sites inside it are still rewritten.
func TestApplyRelocNormalizationWrappingSites(t *testing.T) {
	const va, base = 0x1000, 0xF8CC0000
	data := make([]byte, 256)
	binary.LittleEndian.PutUint32(data[0x10:], base+0x1234)
	comp := &Component{Name: ".text", Data: data, Normalize: true, VirtualAddress: va}
	want := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(want[0x10:], 0x1234)
	for _, site := range []uint32{0xFFFFFFFC, 0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF} {
		t.Run(fmt.Sprintf("%#x", site), func(t *testing.T) {
			got := ApplyRelocNormalization(comp, []uint32{va + 0x10, site}, base)
			if !bytes.Equal(got, want) {
				t.Errorf("rewrote %x, want %x", got[:0x20], want[:0x20])
			}
		})
	}
}

// moduleImage reads module's loaded image from g.
func moduleImage(t *testing.T, g *guest.Guest, module string) []byte {
	t.Helper()
	mod := g.Module(module)
	raw := make([]byte, mod.SizeOfImage)
	if err := g.AddressSpace().Read(mod.Base, raw); err != nil {
		t.Fatal(err)
	}
	return raw
}

// firstRelocBlock returns the image offset and size of the first block of
// module's .reloc table on g. The tests edit that block: it must cover the
// page at RVA 0x1000 and end in an ABSOLUTE padding entry.
func firstRelocBlock(t *testing.T, g *guest.Guest, module string) (lo, size uint32) {
	t.Helper()
	raw := moduleImage(t, g, module)
	dir, _ := relocDir(raw)
	le := binary.LittleEndian
	lo, size = uint32(dir), le.Uint32(raw[dir+4:])
	if page, last := le.Uint32(raw[lo:]), le.Uint16(raw[lo+size-2:]); page != 0x1000 || last != pe.RelBasedAbsolute {
		t.Fatalf("%s's first .reloc block: page %#x, last entry %#x", module, page, last)
	}
	return lo, size
}

// relocPool is an 8-clone fleet of two templates (so the module loads at
// two bases) carrying the reloc source's test cases on alpha.sys:
//
//   - Dom2, the reference's first partner: an opcode patch — 4 code bytes
//     flipped, so the next clean copy completes the memo's fill;
//   - Dom5: a .reloc-extended patch (Bania) — 4 code bytes overwritten with
//     a plausible address, and the first .reloc block's padding entry made
//     a site at them;
//   - Dom8: a dropped site — the first .reloc block's first site made a
//     padding entry, every code byte left as loaded.
//
// The other five are clean: a clean majority. With writable set, every
// VM's .reloc section header is marked writable, so the table is section
// data no component holds and no copy is compared on.
func relocPool(t *testing.T, writable bool) ([]*hypervisor.Domain, []Target) {
	t.Helper()
	const module, patchRVA = "alpha.sys", 0x1100
	ds := memoFleet(t, 8, testDisk(t), 16<<20)
	le := binary.LittleEndian
	for _, d := range ds {
		g := d.Guest()
		mod := g.Module(module)
		patch := func(rva uint32, b []byte) error { return rootkit.PatchLiveBytes(g, module, rva, b) }
		if writable {
			hdr, chars := relocSectionHeader(t, g, module)
			if err := patch(hdr+36, le.AppendUint32(nil, chars|pe.ScnMemWrite)); err != nil {
				t.Fatal(err)
			}
		}
		switch d.Name {
		case "Dom2":
			code := make([]byte, 4)
			if err := g.AddressSpace().Read(mod.Base+patchRVA, code); err != nil {
				t.Fatal(err)
			}
			if err := patch(patchRVA, le.AppendUint32(nil, ^le.Uint32(code))); err != nil {
				t.Fatal(err)
			}
		case "Dom5":
			lo, size := firstRelocBlock(t, g, module)
			if err := patch(patchRVA, le.AppendUint32(nil, mod.Base+0x3000)); err != nil {
				t.Fatal(err)
			}
			if err := patch(lo+size-2, le.AppendUint16(nil, pe.RelBasedHighLow<<12|patchRVA&0xFFF)); err != nil {
				t.Fatal(err)
			}
		case "Dom8":
			lo, _ := firstRelocBlock(t, g, module)
			if err := patch(lo+8, []byte{0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds, fleetTargets(ds)
}

// relocSectionHeader returns the image offset of module's .reloc section
// header on g, and the section's characteristics.
func relocSectionHeader(t *testing.T, g *guest.Guest, module string) (hdr, chars uint32) {
	t.Helper()
	raw := moduleImage(t, g, module)
	le := binary.LittleEndian
	file := le.Uint32(raw[0x3C:]) + 4
	secs := file + pe.FileHeaderSize + pe.OptionalHeader32Size
	for k := range uint32(le.Uint16(raw[file+2:])) {
		if hdr := secs + k*pe.SectionHeaderSize; string(raw[hdr:hdr+6]) == ".reloc" {
			return hdr, le.Uint32(raw[hdr+36:])
		}
	}
	t.Fatalf("%s has no .reloc section", module)
	return 0, 0
}

// relocOracle checks module on every target on its own, as the reloc-table
// normalizer's definition reads: each copy's normalized components
// rewritten at its own .reloc sites by ApplyRelocNormalization, and two
// copies matching where their MD5s are equal. It returns each VM's
// component digests by name.
func relocOracle(t *testing.T, targets []Target, module string) []map[string][md5.Size]byte {
	t.Helper()
	out := make([]map[string][md5.Size]byte, len(targets))
	for i, tg := range targets {
		info, buf, _, err := NewSearcher(tg.Handle, CopyPageWise).FetchModule(module)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(tg.Name, module, info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := NormalizeWithRelocs(m.Raw)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = map[string][md5.Size]byte{}
		for k := range m.Components {
			comp := &m.Components[k]
			data := comp.Data
			if comp.Normalize {
				data = ApplyRelocNormalization(comp, sites, info.Base)
			}
			out[i][comp.Name] = md5.Sum(data)
		}
	}
	return out
}

// oracleMismatches returns the component names on which two oracle copies
// disagree, sorted.
func oracleMismatches(a, b map[string][md5.Size]byte) []string {
	var mm []string
	for name, sum := range a {
		if other, ok := b[name]; !ok || other != sum {
			mm = append(mm, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			mm = append(mm, name)
		}
	}
	slices.Sort(mm)
	return mm
}

// TestRelocSourceMatchesOracle is the reloc-table normalizer's
// differential: on relocPool, the engine's clusters group exactly the VMs
// whose oracle digests are equal, at either base, the reference included;
// and every VM's verdict, agreement counts and per-peer mismatched
// components are the oracle's, for flat, sharded, parallel and
// FullPairwise runs. The clustered runs also show that the
// source runs through the reference memo, the in-place check and the
// compare facts.
func TestRelocSourceMatchesOracle(t *testing.T) {
	for _, writable := range []bool{false, true} {
		_, targets := relocPool(t, writable)
		for _, cfg := range []struct {
			name string
			cfg  Config
		}{
			{"flat", Config{}},
			{"sharded", Config{ShardSize: 3}},
			{"parallel", Config{Parallel: true}},
			{"pairwise", Config{FullPairwise: true}},
		} {
			t.Run(fmt.Sprintf("%s/writable-reloc=%v", cfg.name, writable), func(t *testing.T) {
				checkRelocOracle(t, targets, cfg.cfg, writable)
			})
		}
	}
}

// checkRelocOracle is TestRelocSourceMatchesOracle on one pool and Config.
// On a pool whose .reloc table is no component's, Dom5's table edit shows
// nowhere, and no copy is checked in place: the check would not compare
// the bytes each copy's sites are read from.
func checkRelocOracle(t *testing.T, targets []Target, cfg Config, writable bool) {
	const module = "alpha.sys"
	want := relocOracle(t, targets, module)
	n := len(targets)
	cfg.Normalizer = NormalizeRelocTable
	ps, err := NewChecker(cfg).NewPoolSweep(targets)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	rep := ps.CheckModule(module)
	for i := range n {
		for j := range n {
			same := rep.out.clusterOf[i] == rep.out.clusterOf[j]
			wantSame := len(oracleMismatches(want[i], want[j])) == 0
			if !cfg.FullPairwise && same != wantSame {
				t.Errorf("%s and %s: same cluster %v, want %v", targets[i].Name, targets[j].Name, same, wantSame)
			}
		}
		successes := 0
		for k, p := range rep.Pairs(targets[i].Name) {
			j := k
			if k >= i {
				j++
			}
			mm := oracleMismatches(want[i], want[j])
			if len(mm) == 0 {
				successes++
			}
			if p.PeerVM != targets[j].Name || p.Match != (len(mm) == 0) || !slices.Equal(p.MismatchedComponents, mm) {
				t.Errorf("%s vs %s: match %v %v, oracle %v", targets[i].Name, p.PeerVM, p.Match, p.MismatchedComponents, mm)
			}
		}
		r := rep.At(i)
		if r.Successes != successes || r.Comparisons != n-1 || r.Verdict != vote(successes, n-1) {
			t.Errorf("%s: %v %d/%d, oracle %v %d/%d", targets[i].Name, r.Verdict, r.Successes, r.Comparisons,
				vote(successes, n-1), successes, n-1)
		}
	}
	if wantFlagged := []string{"Dom2", "Dom5", "Dom8"}; !slices.Equal(rep.Flagged, wantFlagged) {
		t.Errorf("flagged %v, want %v", rep.Flagged, wantFlagged)
	}
	if !cfg.FullPairwise && (ps.MemoWindowHits == 0 || (ps.InPlace == 0) != writable || ps.CompareDerived == 0) {
		t.Errorf("%d window-check hits, %d copies in place, %d derived compares", ps.MemoWindowHits, ps.InPlace, ps.CompareDerived)
	}
}

// TestRelocSourceStaleDirectory: a copy whose .reloc directory differs
// from the reference's never borrows the reference's windows. Dom8 of
// relocPool drops one site and keeps every code byte, so the memo's
// window check would pass on its code; neither the window-check hits nor
// the in-place count may include it. Every other copy but the first
// partner, Dom2, which fills the memo, is clean and counted: under own
// sites a copy at the reference's base is compared under the windows too,
// and every normalized component of it is a hit.
func TestRelocSourceStaleDirectory(t *testing.T) {
	const module = "alpha.sys"
	ds, targets := relocPool(t, false)
	for _, d := range []*hypervisor.Domain{ds[1], ds[4]} {
		if err := d.Revert("boot"); err != nil {
			t.Fatal(err)
		}
	}
	info, buf, _, err := NewSearcher(targets[0].Handle, CopyPageWise).FetchModule(module)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := ParseModule(targets[0].Name, module, info.Base, buf)
	if err != nil {
		t.Fatal(err)
	}
	normalized := 0
	for k := range m.Components {
		if m.Components[k].Normalize {
			normalized++
		}
	}
	for _, step := range []struct {
		name    string
		flagged []string
		counted int // copies counted in place and by their window-check hits
	}{{"stale", []string{"Dom8"}, 5}, {"clean", nil, 6}} {
		if step.name == "clean" {
			if err := ds[7].Revert("boot"); err != nil {
				t.Fatal(err)
			}
		}
		ps, err := NewChecker(Config{Normalizer: NormalizeRelocTable}).NewPoolSweep(targets)
		if err != nil {
			t.Fatal(err)
		}
		rep := ps.CheckModule(module)
		ps.Close()
		if !slices.Equal(rep.Flagged, step.flagged) {
			t.Fatalf("%s: flagged %v, want %v", step.name, rep.Flagged, step.flagged)
		}
		if ps.MemoWindowHits != step.counted*normalized || ps.InPlace != step.counted {
			t.Errorf("%s: %d window-check hits, %d copies in place; want %d and %d",
				step.name, ps.MemoWindowHits, ps.InPlace, step.counted*normalized, step.counted)
		}
	}
}

// TestStoreKeepsSiteSourcesApart: a digest store filled by a diff-scan
// checker never answers a reloc-table checker that shares it. The
// reloc-table checker's first sweep gets no hit and charges exactly what a
// checker without a store charges; its second sweep is answered by its own
// records, and the diff-scan checker's second sweep by its own.
func TestStoreKeepsSiteSourcesApart(t *testing.T) {
	const module = "alpha.sys"
	targets := fleetTargets(memoFleet(t, 8, testDisk(t), 16<<20))
	store := cas.NewStore(0)
	check := func(cfg Config) (*PoolReport, uint64) {
		t.Helper()
		ps, err := NewChecker(cfg).NewPoolSweep(targets)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		before := store.Stats().Hits
		return ps.CheckModule(module), store.Stats().Hits - before
	}
	diff, reloc := Config{DigestCache: store}, Config{Normalizer: NormalizeRelocTable, DigestCache: store}
	if _, hits := check(diff); hits != 0 {
		t.Fatalf("diff scan, cold: %d store hits", hits)
	}
	rep, hits := check(reloc)
	want, _ := check(Config{Normalizer: NormalizeRelocTable})
	if hits != 0 || rep.Stages != want.Stages || rep.Timing != want.Timing {
		t.Errorf("reloc table after the diff scan: %d store hits, stages %+v, want none and %+v", hits, rep.Stages, want.Stages)
	}
	for _, step := range []struct {
		name string
		cfg  Config
	}{{"reloc table, warm", reloc}, {"diff scan, warm", diff}} {
		if _, hits := check(step.cfg); hits != uint64(len(targets)) {
			t.Errorf("%s: %d store hits, want one per VM", step.name, hits)
		}
	}
}
