package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"modchecker/internal/codegen"
	"modchecker/internal/pe"
)

// normalizePairBytewise is Algorithm 2 as the pseudocode states it: the scan
// visits one byte at a time. It is the reference the word-at-a-time scan in
// normalizePairInPlace must reproduce exactly — same rewrites, same sites —
// checked by TestNormalizePairMatchesBytewise and FuzzNormalizePair.
func normalizePairBytewise(n1, n2 []byte, base1, base2 uint32) (sites []uint32) {
	// Algorithm 2 lines 1-9: find the first differing byte of the bases.
	le := binary.LittleEndian
	var b1, b2 [4]byte
	le.PutUint32(b1[:], base1)
	le.PutUint32(b2[:], base2)
	offset := -1
	for i := 0; i < 4; i++ {
		if b1[i] != b2[i] {
			offset = i
			break
		}
	}
	if offset < 0 {
		// Identical bases: relocated addresses are identical too; any byte
		// difference is a genuine modification. Nothing to rewrite.
		return nil
	}

	limit := len(n1)
	if len(n2) < limit {
		limit = len(n2)
	}
	for j := 0; j < limit; {
		if n1[j] == n2[j] {
			j++
			continue
		}
		start := j - offset
		if start >= 0 && start+4 <= limit {
			a1 := le.Uint32(n1[start:])
			a2 := le.Uint32(n2[start:])
			rva1 := a1 - base1
			rva2 := a2 - base2
			if rva1 == rva2 {
				le.PutUint32(n1[start:], rva1)
				le.PutUint32(n2[start:], rva2)
				sites = append(sites, uint32(start))
				j = start + 4
				continue
			}
		}
		// Not a consistent relocation: a genuine content difference.
		// Leave the byte and keep scanning.
		j++
	}
	return sites
}

// checkAgainstBytewise fails t unless NormalizePair and the byte-at-a-time
// reference agree on both normalized buffers and the site list.
func checkAgainstBytewise(t *testing.T, d1, d2 []byte, base1, base2 uint32) {
	t.Helper()
	n1, n2, sites := NormalizePair(d1, d2, base1, base2)
	w1 := append([]byte(nil), d1...)
	w2 := append([]byte(nil), d2...)
	want := normalizePairBytewise(w1, w2, base1, base2)
	if !bytes.Equal(n1, w1) || !bytes.Equal(n2, w2) {
		t.Fatalf("bases %#x/%#x, lengths %d/%d: normalized bytes differ from the byte-at-a-time scan",
			base1, base2, len(d1), len(d2))
	}
	if !slices.Equal(sites, want) {
		t.Fatalf("bases %#x/%#x: sites %v, byte-at-a-time scan %v", base1, base2, sites, want)
	}
}

// normalizeSeed is one input pair for the word-scan differential.
type normalizeSeed struct {
	name   string
	d1, d2 []byte
	b1, b2 uint32
}

// normalizeSeeds returns the edge cases of the word-at-a-time scan: word
// boundaries, short tails, every base offset, rewrite windows reaching back
// behind the cursor, and a relocation-dense generated code section.
func normalizeSeeds(t testing.TB) []normalizeSeed {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000 // first differing byte: 2
	le := binary.LittleEndian
	// pair lays addresses at the given offsets into two n-byte sections.
	pair := func(n int, b1, b2 uint32, offs ...int) ([]byte, []byte) {
		d1, d2 := make([]byte, n), make([]byte, n)
		for i := range d1 {
			d1[i] = byte(i*7 + 1)
			d2[i] = d1[i]
		}
		for k, off := range offs {
			rva := uint32(0x1234 + 0x100*k)
			le.PutUint32(d1[off:], b1+rva)
			le.PutUint32(d2[off:], b2+rva)
		}
		return d1, d2
	}
	var seeds []normalizeSeed
	add := func(name string, d1, d2 []byte, b1, b2 uint32) {
		seeds = append(seeds, normalizeSeed{name, d1, d2, b1, b2})
	}

	// The address field's differing bytes straddle the 8-byte boundary.
	d1, d2 := pair(24, base1, base2, 6)
	add("straddles word boundary", d1, d2, base1, base2)
	d1, d2 = pair(24, 0xF8CC2000, 0xF8CC9000, 7) // differs at byte 1: 8
	add("straddles word boundary at offset 1", d1, d2, 0xF8CC2000, 0xF8CC9000)
	// Tails of 1-7 bytes past the last whole word, an address ending the section.
	for tail := 1; tail <= 7; tail++ {
		n := 16 + tail
		d1, d2 = pair(n, base1, base2, 2, n-4)
		add("tail", d1, d2, base1, base2)
	}
	// Bases whose first differing byte is 1, 2 and 3 (and 0, unaligned).
	for _, b := range [][2]uint32{
		{0xF8CC2001, 0xF8CC2002},
		{0xF8CC2000, 0xF8CC9000},
		{0xF8CC2000, 0xF8D02000},
		{0xF8CC2000, 0xF9CC2000},
	} {
		d1, d2 = pair(40, b[0], b[1], 0, 4, 13, 27, 36)
		add("base offset", d1, d2, b[0], b[1])
	}
	// A genuine difference right after a rewritten field: its window starts
	// at 2, inside the field the cursor has just passed.
	d1, d2 = pair(32, base1, base2, 0)
	d1[4] ^= 0x5A
	add("window behind cursor", d1, d2, base1, base2)
	// Two genuine differences a few bytes apart whose windows overlap.
	d1, d2 = pair(32, base1, base2, 16)
	d1[9] ^= 1
	d2[11] ^= 2
	add("overlapping windows", d1, d2, base1, base2)

	// A generated code section relocated to two bases, one abs32 operand
	// every few dozen bytes, with one byte tampered next to a site.
	const pref, codeRVA = 0x10000, 0x1000
	prog, err := codegen.New(11).Generate(codegen.GenerateParams{
		Size: 4096, CodeVA: pref + codeRVA, DataVA: pref + 0x8000, DataSize: 0x1000, MinCave: 4, MaxCave: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	relocate := func(base uint32) []byte {
		out := append([]byte(nil), prog.Code...)
		for _, off := range prog.RelocOffsets {
			le.PutUint32(out[off:], le.Uint32(out[off:])-pref+base)
		}
		return out
	}
	add("codegen section", relocate(base1), relocate(base2), base1, base2)
	d1 = relocate(base1)
	d1[prog.RelocOffsets[len(prog.RelocOffsets)/2]+4] ^= 0x90
	add("codegen section, byte after a site tampered", d1, relocate(base2), base1, base2)
	return seeds
}

// TestNormalizePairMatchesBytewise checks the word-at-a-time scan against
// the byte-at-a-time reference on the edge-case seeds and on random pairs
// at every base offset, clean and tampered, equal and unequal lengths.
func TestNormalizePairMatchesBytewise(t *testing.T) {
	for _, s := range normalizeSeeds(t) {
		t.Run(s.name, func(t *testing.T) { checkAgainstBytewise(t, s.d1, s.d2, s.b1, s.b2) })
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		base1 := rng.Uint32()
		base2 := base1 ^ uint32(1+rng.Intn(0xFF))<<(8*rng.Intn(4))
		d1, d2, _ := buildPair(int64(i), 128+rng.Intn(256), 1+rng.Intn(8), base1, base2)
		for k := rng.Intn(4); k > 0; k-- {
			d1[rng.Intn(len(d1))] ^= byte(1 + rng.Intn(255))
		}
		if i%5 == 0 {
			d2 = d2[:rng.Intn(len(d2))]
		}
		checkAgainstBytewise(t, d1, d2, base1, base2)
	}
}

// buildPair lays one synthetic section out at two bases: identical RVAs,
// relocated absolute addresses, optional tampering applied to copy 1.
func buildPair(seed int64, size int, nAddrs int, base1, base2 uint32) (d1, d2 []byte, sites []uint32) {
	rng := rand.New(rand.NewSource(seed))
	content := make([]byte, size)
	rng.Read(content)
	// Plant non-overlapping 4-byte address fields.
	used := map[int]bool{}
	for len(sites) < nAddrs {
		off := rng.Intn(size - 4)
		ok := true
		for d := -3; d <= 3; d++ {
			if used[off+d] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for d := 0; d < 4; d++ {
			used[off+d] = true
		}
		sites = append(sites, uint32(off))
	}
	d1 = append([]byte(nil), content...)
	d2 = append([]byte(nil), content...)
	le := binary.LittleEndian
	for _, off := range sites {
		rva := uint32(rng.Intn(1 << 20))
		le.PutUint32(d1[off:], base1+rva)
		le.PutUint32(d2[off:], base2+rva)
	}
	return d1, d2, sites
}

func TestNormalizePairRecoversIdentity(t *testing.T) {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000 // the paper's Figure 4 bases
	d1, d2, sites := buildPair(1, 4096, 40, base1, base2)
	n1, n2, found := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Fatal("normalized copies differ for untampered section")
	}
	if len(found) != len(sites) {
		t.Errorf("recovered %d sites, planted %d", len(found), len(sites))
	}
	// Every rewritten field must now hold the RVA.
	le := binary.LittleEndian
	for _, off := range found {
		v := le.Uint32(n1[off:])
		if v >= 0x00100000 {
			t.Errorf("site %#x holds %#x, not an RVA", off, v)
		}
	}
}

func TestNormalizePairDoesNotMutateInputs(t *testing.T) {
	d1, d2, _ := buildPair(2, 1024, 10, 0xF8CC2000, 0xF8D0C000)
	c1 := append([]byte(nil), d1...)
	c2 := append([]byte(nil), d2...)
	NormalizePair(d1, d2, 0xF8CC2000, 0xF8D0C000)
	if !bytes.Equal(d1, c1) || !bytes.Equal(d2, c2) {
		t.Error("inputs mutated")
	}
}

func TestNormalizePairIdenticalBases(t *testing.T) {
	d1, d2, _ := buildPair(3, 1024, 10, 0xF8CC2000, 0xF8CC2000)
	n1, n2, sites := NormalizePair(d1, d2, 0xF8CC2000, 0xF8CC2000)
	if sites != nil {
		t.Errorf("sites rewritten with identical bases: %v", sites)
	}
	if !bytes.Equal(n1, d1) || !bytes.Equal(n2, d2) {
		t.Error("data changed with identical bases")
	}
}

func TestNormalizePairPreservesTampering(t *testing.T) {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000
	d1, d2, _ := buildPair(4, 4096, 30, base1, base2)
	// Tamper a non-address byte in copy 1 (the E1 scenario).
	off := 100
	for {
		// Find a spot where the copies agree (not an address field).
		if d1[off] == d2[off] && d1[off+1] == d2[off+1] && d1[off+2] == d2[off+2] {
			break
		}
		off++
	}
	d1[off] ^= 0x5A
	n1, n2, _ := NormalizePair(d1, d2, base1, base2)
	if bytes.Equal(n1, n2) {
		t.Fatal("tampering normalized away — detection would fail")
	}
	diffs := 0
	for i := range n1 {
		if n1[i] != n2[i] {
			diffs++
		}
	}
	if diffs > 8 {
		t.Errorf("tampering of 1 byte produced %d residual diffs", diffs)
	}
}

// TestNormalizePairOffsetBases exercises the paper's offset logic: bases
// whose first differing byte is at each possible index.
func TestNormalizePairOffsetBases(t *testing.T) {
	cases := []struct {
		name         string
		base1, base2 uint32
	}{
		{"differ at byte0", 0xF8CC2001, 0xF8CC2002}, // unaligned; contrived
		{"differ at byte1", 0xF8CC2000, 0xF8CC9000},
		{"differ at byte2", 0xF8CC2000, 0xF8D02000},
		{"differ at byte3", 0xF8CC2000, 0xF9CC2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d1, d2, _ := buildPair(5, 2048, 20, c.base1, c.base2)
			n1, n2, _ := NormalizePair(d1, d2, c.base1, c.base2)
			if !bytes.Equal(n1, n2) {
				t.Error("normalization failed")
			}
		})
	}
}

func TestNormalizePairAddressAtSectionEdges(t *testing.T) {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000
	le := binary.LittleEndian
	d1 := make([]byte, 64)
	d2 := make([]byte, 64)
	// Address at offset 0 and at the very end.
	le.PutUint32(d1[0:], base1+0x500)
	le.PutUint32(d2[0:], base2+0x500)
	le.PutUint32(d1[60:], base1+0x600)
	le.PutUint32(d2[60:], base2+0x600)
	n1, n2, sites := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Error("edge addresses not normalized")
	}
	if len(sites) != 2 || sites[0] != 0 || sites[1] != 60 {
		t.Errorf("sites = %v", sites)
	}
}

func TestNormalizePairDifferentLengths(t *testing.T) {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000
	d1, d2, _ := buildPair(6, 1024, 10, base1, base2)
	short := d2[:512]
	// Must not panic; comparison proceeds over the common prefix.
	n1, n2, _ := NormalizePair(d1, short, base1, base2)
	if len(n1) != 1024 || len(n2) != 512 {
		t.Errorf("lengths changed: %d, %d", len(n1), len(n2))
	}
}

// TestAlgorithm2PaperLine22Quirk documents the paper's pseudocode defect:
// line 22 advances the scan index as j <- j - offset + 1 - 4, i.e.
// *backwards* past the address just processed, which would loop forever.
// The working advance is j <- (j - offset) + 4 (0-based), which this
// implementation uses. This test pins the corrected behavior: scanning
// terminates and consecutive addresses are each processed exactly once.
func TestAlgorithm2PaperLine22Quirk(t *testing.T) {
	const base1, base2 = 0xF8CC2000, 0xF8D0C000
	le := binary.LittleEndian
	// Two adjacent address fields, back to back: the buggy advance would
	// re-scan the first field's bytes.
	d1 := make([]byte, 16)
	d2 := make([]byte, 16)
	le.PutUint32(d1[0:], base1+0x100)
	le.PutUint32(d2[0:], base2+0x100)
	le.PutUint32(d1[4:], base1+0x200)
	le.PutUint32(d2[4:], base2+0x200)
	n1, n2, sites := NormalizePair(d1, d2, base1, base2)
	if !bytes.Equal(n1, n2) {
		t.Error("adjacent addresses not normalized")
	}
	if len(sites) != 2 || sites[0] != 0 || sites[1] != 4 {
		t.Errorf("sites = %v, want [0 4]", sites)
	}
}

// TestNormalizePairQuick property-tests the full invariant over random
// sections and page-aligned bases: normalize(untampered pair) is equal;
// flipping any non-address byte keeps them unequal.
func TestNormalizePairQuick(t *testing.T) {
	f := func(seed int64, a, b uint16) bool {
		base1 := 0xF8000000 + uint32(a)*0x1000
		base2 := 0xF8000000 + uint32(b)*0x1000
		d1, d2, _ := buildPair(seed, 1024, 12, base1, base2)
		n1, n2, _ := NormalizePair(d1, d2, base1, base2)
		return bytes.Equal(n1, n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestNormalizeAgainstRealLoader cross-validates the diff scan against the
// actual guest loader: both VMs' .text sections, fetched via introspection,
// normalize to equality.
func TestNormalizeAgainstRealLoader(t *testing.T) {
	_, targets := testPool(t, 2)
	var parsed [2]*ParsedModule
	var bases [2]uint32
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = m
		bases[i] = info.Base
	}
	t1 := parsed[0].Component(".text")
	t2 := parsed[1].Component(".text")
	if bytes.Equal(t1.Data, t2.Data) {
		t.Fatal("raw .text identical across bases — relocation not happening?")
	}
	n1, n2, sites := NormalizePair(t1.Data, t2.Data, bases[0], bases[1])
	if !bytes.Equal(n1, n2) {
		t.Fatal("real loader output did not normalize to equality")
	}
	if len(sites) == 0 {
		t.Error("no sites recovered")
	}
}

// TestDiffScanMatchesRelocTable cross-validates the two normalizers: the
// sites the diff scan recovers must be exactly the .reloc-table sites that
// fall within .text (for two VMs with different bases).
func TestDiffScanMatchesRelocTable(t *testing.T) {
	guests, targets := testPool(t, 2)
	var parsed [2]*ParsedModule
	var bases [2]uint32
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		parsed[i] = m
		bases[i] = info.Base
	}
	t1 := parsed[0].Component(".text")
	t2 := parsed[1].Component(".text")
	_, _, scanSites := NormalizePair(t1.Data, t2.Data, bases[0], bases[1])

	img, err := pe.Parse(guests[0].DiskImage("alpha.sys"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for _, rva := range all {
		if rva >= t1.VirtualAddress && rva+4 <= t1.VirtualAddress+uint32(len(t1.Data)) {
			want = append(want, rva-t1.VirtualAddress)
		}
	}
	if len(scanSites) != len(want) {
		t.Fatalf("diff scan found %d sites, reloc table has %d in .text", len(scanSites), len(want))
	}
	for i := range want {
		if scanSites[i] != want[i] {
			t.Fatalf("site %d: scan %#x, table %#x", i, scanSites[i], want[i])
		}
	}
}

func TestNormalizeWithRelocsEquivalent(t *testing.T) {
	_, targets := testPool(t, 2)
	var comps [2][]byte
	for i := 0; i < 2; i++ {
		s := NewSearcher(targets[i].Handle, CopyPageWise)
		info, buf, _, err := s.FetchModule("alpha.sys")
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := ParseModule(targets[i].Name, "alpha.sys", info.Base, buf)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := NormalizeWithRelocs(m.Raw)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = ApplyRelocNormalization(m.Component(".text"), sites, info.Base)
	}
	if !bytes.Equal(comps[0], comps[1]) {
		t.Error("reloc-table normalization did not converge across VMs")
	}
}

func TestNormalizeWithRelocsNoDirectory(t *testing.T) {
	// An image with no .reloc yields no sites and no error.
	b := pe.NewBuilder(0x10000)
	b.AddSection(".text", make([]byte, 0x200), pe.ScnCntCode|pe.ScnMemExecute|pe.ScnMemRead)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem, err := img.Layout()
	if err != nil {
		t.Fatal(err)
	}
	sites, err := NormalizeWithRelocs(mem)
	if err != nil || sites != nil {
		t.Errorf("got %v, %v", sites, err)
	}
}
