package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"slices"
	"testing"

	"modchecker/internal/pe"
)

// FuzzParseModule hardens Module-Parser against arbitrary guest memory: a
// compromised guest controls every byte the searcher copies out, so the
// parser must never panic. Every module it parses also runs the reloc-table
// site source (checkRelocSource), whose .reloc table the guest controls
// too.
func FuzzParseModule(f *testing.F) {
	_, targets := testPool(f, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	info, buf, _, err := s.FetchModule("alpha.sys")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[:4096], uint32(0xF8CC2000))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte("MZ"), uint32(1))
	f.Add(append([]byte(nil), buf...), info.Base)
	// Hostile first .reloc blocks: a site that wraps past 2^32 in 32-bit
	// bounds arithmetic, and a site named twice.
	le := binary.LittleEndian
	lo, _ := relocDir(buf)
	wrap := append([]byte(nil), buf...)
	le.PutUint32(wrap[lo:], 0xFFFFF000)
	le.PutUint16(wrap[lo+8:], pe.RelBasedHighLow<<12|0xFFE)
	f.Add(wrap, info.Base)
	twice := append([]byte(nil), buf...)
	le.PutUint16(twice[lo+10:], le.Uint16(twice[lo+8:]))
	f.Add(twice, info.Base)
	f.Fuzz(func(t *testing.T, data []byte, base uint32) {
		m, _, err := ParseModule("fuzz", "x.sys", base, data)
		if err != nil {
			return
		}
		// A successfully parsed module must have internally consistent
		// components.
		for _, c := range m.Components {
			if len(c.Data) == 0 && c.Kind != KindSectionData {
				t.Fatalf("empty header component %s", c.Name)
			}
		}
		checkRelocSource(t, m)
	})
}

// checkRelocSource runs the reloc-table site source on ref, a parsed
// module, as the reference of a copy rebased by 0x10000 once at each of
// ref's own sites, as a loader would: the copy's digest, from a miss and
// then from the sealed memo, must equal relocKey's, and must never
// rewrite out of bounds. A site listed twice is rewritten twice by the
// normalizer, so such a copy differs from the reference.
func checkRelocSource(t *testing.T, ref *ParsedModule) {
	t.Helper()
	src := siteSource{own: true}
	sites, err := src.read(ref)
	if err != nil {
		return
	}
	const delta = 0x10000
	le := binary.LittleEndian
	raw := append([]byte(nil), ref.Raw...)
	for k, s := range sites {
		if (k == 0 || s != sites[k-1]) && uint64(s)+4 <= uint64(len(raw)) {
			le.PutUint32(raw[s:], le.Uint32(raw[s:])+delta)
		}
	}
	cp, _, err := ParseModule("fuzz", "x.sys", ref.Base+delta, raw)
	if err != nil {
		return
	}
	cpSites, err := src.read(cp)
	if err != nil {
		return
	}
	rf := &fetched{info: &ModuleInfo{Base: ref.Base}, parsed: ref, sites: sites}
	cf := &fetched{info: &ModuleInfo{Base: cp.Base}, parsed: cp, sites: cpSites}
	want := relocKey(cf, rf)
	memo := newRefMemo(len(ref.Components))
	memo.src = src
	defer memo.release()
	c := NewChecker(Config{Normalizer: NormalizeRelocTable})
	for _, run := range []string{"miss", "memo"} {
		if key, _ := c.digestAgainst(rf, cf, memo); key != want {
			t.Fatalf("%s: digestAgainst key differs from ApplyRelocNormalization+MD5", run)
		}
		memo.seal()
	}
	// Against a reference that lacks the section data, every normalized
	// component of the copy is hashed alone, at its own sites.
	headers := slices.DeleteFunc(slices.Clone(ref.Components), func(c Component) bool { return c.Normalize })
	bare := &fetched{info: rf.info, parsed: &ParsedModule{Components: headers}, sites: sites}
	bareMemo := newRefMemo(len(headers))
	bareMemo.src = src
	defer bareMemo.release()
	if key, _ := c.digestAgainst(bare, cf, bareMemo); key != relocKey(cf, bare) {
		t.Fatal("unpeered: digestAgainst key differs from ApplyRelocNormalization+MD5")
	}
}

// relocKey is the digest key of copy f against reference ref by the
// reloc-table oracle: each side's normalized components rewritten at its
// own sites by ApplyRelocNormalization and hashed, folded as digestAgainst
// folds them.
func relocKey(f, ref *fetched) string {
	sum := func(x *fetched, comp *Component) [md5.Size]byte {
		if comp.Normalize {
			return md5.Sum(ApplyRelocNormalization(comp, x.sites, x.info.Base))
		}
		return md5.Sum(comp.Data)
	}
	w := newKeyWriter()
	for i := range f.parsed.Components {
		comp := &f.parsed.Components[i]
		w.part(comp.Name, len(comp.Data), sum(f, comp))
		if rk := ref.parsed.peer(comp, i); comp.Normalize && rk >= 0 {
			rc := &ref.parsed.Components[rk]
			w.part("", len(rc.Data), sum(ref, rc))
		}
	}
	return w.key()
}

// FuzzNormalizePair is a differential fuzzer of Algorithm 2: the word-at-
// a-time scan must rewrite exactly the bytes, and report exactly the sites,
// of the byte-at-a-time reference loop, and never rewrite out of bounds.
func FuzzNormalizePair(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 2, 9, 9, 5, 6, 7, 8}, uint32(0xF8CC2000), uint32(0xF8D0C000))
	f.Add([]byte{}, []byte{}, uint32(0), uint32(0))
	f.Add([]byte{1}, []byte{2}, uint32(1), uint32(2))
	for _, s := range normalizeSeeds(f) {
		f.Add(s.d1, s.d2, s.b1, s.b2)
	}
	f.Fuzz(func(t *testing.T, d1, d2 []byte, b1, b2 uint32) {
		n1, n2, sites := NormalizePair(d1, d2, b1, b2)
		if len(n1) != len(d1) || len(n2) != len(d2) {
			t.Fatal("lengths changed")
		}
		limit := len(n1)
		if len(n2) < limit {
			limit = len(n2)
		}
		for _, s := range sites {
			if int(s)+4 > limit {
				t.Fatalf("site %#x beyond comparable range %#x", s, limit)
			}
		}
		checkAgainstBytewise(t, d1, d2, b1, b2)
	})
}

// digestFetch wraps one relocated section loaded at base as a fetch, for
// driving digestAgainst without a guest.
func digestFetch(data []byte, base uint32) *fetched {
	return &fetched{
		info:   &ModuleInfo{Base: base},
		parsed: &ParsedModule{Components: []Component{{Name: ".text", Data: data, Normalize: true}}},
	}
}

// rebase returns a copy of data, loaded at base, relocated to newBase at
// the given sites.
func rebase(data []byte, sites []uint32, base, newBase uint32) []byte {
	out := append([]byte(nil), data...)
	le := binary.LittleEndian
	for _, s := range sites {
		le.PutUint32(out[s:], le.Uint32(out[s:])-base+newBase)
	}
	return out
}

// FuzzDigestMemo is a differential fuzzer of the reference memo. It fills
// an entry through the production miss path from (partner, reference),
// seals the memo, and requires two things of (copy, reference):
//
//   - a window-check hit implies that the byte-at-a-time Algorithm 2
//     leaves both sides byte-equal to the entry's normalized reference
//     side;
//   - digestAgainst's key equals NormalizePair followed by two MD5s.
//
// The digest facts digestAgainst records must answer the compare stage
// exactly: for the reference paired with the partner and with the copy,
// and for the partner paired with the copy whenever they answer it,
// compareFact equals compareComponent; and when the window check or the
// equal-base shortcut covers both the partner and the copy, Algorithm 2
// normalizes the two to equal sides at their own bases.
//
// Three parties: partner2, y, is digested against the sealed memo as a
// third copy. For the copy x covered on the component and any y, when y is
// covered too, compareComponent matches y with x and with the reference;
// so when those two comparisons differ, y is not covered. (Matching the
// reference is not enough: y may match it pairwise and not x, which is
// why a key is split by base.) x's stand-in (refMemo.standIn) must carry
// x's bytes, and where refMemo.apart proves y apart from it,
// compareComponent must not match y with x.
//
// It then runs the memo a second time, as a Checker does with a kept
// memo: reopened for filling, with partner2 as its filling digest, then
// sealed again for the copy. Every sum of that run, and the entry it
// leaves, must equal what a fresh memo computes for the same digests.
func FuzzDigestMemo(f *testing.F) {
	// Every seed also runs the in-place check in pages of 8 bytes, with
	// the component at module offset 3: a site's field straddles a page.
	add := func(partner, cp, ref []byte, bp, bc, br uint32, partner2 []byte, bp2 uint32) {
		f.Add(partner, cp, ref, bp, bc, br, partner2, bp2, uint16(8), uint16(3))
	}
	for _, s := range normalizeSeeds(f) {
		// A clean copy at a third base, rebased from the partner; the
		// second run's partner is the copy itself.
		_, _, sites := NormalizePair(s.d1, s.d2, s.b1, s.b2)
		b3 := s.b2 + 0x00040000
		cp := rebase(s.d1, sites, s.b1, b3)
		add(s.d1, cp, s.d2, s.b1, b3, s.b2, cp, b3)
	}
	le := binary.LittleEndian
	const b1, b2, b3 = 0xF8CC0000, 0xF8D00000, 0xF8D40000 // first differing byte: 2
	partner, ref := make([]byte, 32), make([]byte, 32)
	for i := range partner {
		partner[i] = byte(i*5 + 3)
		ref[i] = partner[i]
	}
	le.PutUint32(partner[8:], b1+0x1234)
	le.PutUint32(ref[8:], b2+0x1234)
	le.PutUint32(partner[20:], b1+0x5678)
	le.PutUint32(ref[20:], b2+0x5678)
	clean := rebase(partner, []uint32{8, 20}, b1, b3)
	add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), clean, uint32(b3))
	// Same-base pairs: the copy, then the partner, loaded at the reference's base.
	add(partner, ref, ref, uint32(b1), uint32(b2), uint32(b2), ref, uint32(b2))
	tampered := append([]byte(nil), ref...)
	tampered[3] ^= 0x40
	add(partner, tampered, ref, uint32(b1), uint32(b2), uint32(b2), partner, uint32(b1))
	add(ref, clean, ref, uint32(b2), uint32(b3), uint32(b2), partner, uint32(b1))
	// A tamper inside a window, above the offset: the RVAs disagree.
	tampered = append([]byte(nil), clean...)
	tampered[8+3] ^= 0x01
	add(partner, tampered, ref, uint32(b1), uint32(b3), uint32(b2), tampered, uint32(b3))
	// A shorter and a longer copy.
	add(partner, clean[:30], ref, uint32(b1), uint32(b3), uint32(b2), clean[:30], uint32(b3))
	add(partner, append(clean, 0xEE), ref, uint32(b1), uint32(b3), uint32(b2), clean, uint32(b3))
	// Overlapping windows: after the site at 8 is rewritten, the field at
	// 10 (its high half plus the next two bytes) also decodes to equal
	// RVAs, so Algorithm 2 records sites 8 and 10.
	op, or := append([]byte(nil), partner...), append([]byte(nil), ref...)
	le.PutUint16(op[12:], 0x0FFC)
	le.PutUint16(or[12:], 0x1000)
	if _, _, s := NormalizePair(op, or, b1, b2); !slices.Equal(s, []uint32{8, 10, 20}) {
		f.Fatalf("overlapping-window seed records sites %v", s)
	}
	add(op, op, or, uint32(b1), uint32(b1), uint32(b2), op, uint32(b1))
	// Second runs that fill the slot the first run left empty: after a
	// same-base partner, and after overlapping windows.
	add(ref, clean, ref, uint32(b2), uint32(b3), uint32(b2), clean, uint32(b3))
	add(op, clean, ref, uint32(b1), uint32(b3), uint32(b2), partner, uint32(b1))
	// A second partner whose base first differs from the reference's in
	// another byte than the first partner's does; one shorter than the
	// reference, which leaves the slot's entry unmatched; one loaded at the
	// reference's base.
	const b4 = 0xF9D00000 // first differing byte: 3
	add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), rebase(partner, []uint32{8, 20}, b1, b4), uint32(b4))
	add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), clean[:26], uint32(b3))
	add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), ref, uint32(b2))
	// Partner and copy covered at one base of their own, and at bases that
	// differ from each other only in their top byte.
	add(partner, partner, ref, uint32(b1), uint32(b1), uint32(b2), partner, uint32(b1))
	const b5 = 0xF9CC0000 // b1 with another top byte
	add(partner, rebase(partner, []uint32{8, 20}, b1, b5), ref, uint32(b1), uint32(b5), uint32(b2), clean, uint32(b3))
	add(ref, rebase(ref, []uint32{8, 20}, b2, b4), ref, uint32(b2), uint32(b4), uint32(b2), clean, uint32(b3))

	// Page sizes that split fields three ways and one byte at a time, and
	// one page that holds the whole component.
	for _, split := range [][2]uint16{{1, 0}, {5, 2}, {6, 9}, {4095, 4093}} {
		f.Add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), clean, uint32(b3), split[0], split[1])
		f.Add(partner, tampered, ref, uint32(b1), uint32(b3), uint32(b2), tampered, uint32(b3), split[0], split[1])
	}

	// Three-party seeds: a copy y that matches the reference pairwise but
	// not the covered copy x. In the first, y's field at 28, at no site of
	// the reference's, holds the reference's plus the bases' difference;
	// in the second, y keeps the reference's unrelocated field at its
	// second site. Then the line-22 and the overlapping-window sections as
	// y beside a covered x.
	const bx, by = 0xF8D40000, 0xF9D40000
	r := make([]byte, 64)
	for i := range r {
		r[i] = byte(i*11 + 5)
	}
	le.PutUint32(r[8:], b2+0x2468)
	y := rebase(r, []uint32{8}, b2, by)
	le.PutUint32(y[28:], le.Uint32(r[28:])+by-b2)
	f.Add(rebase(r, []uint32{8}, b2, b1), rebase(r, []uint32{8}, b2, bx), r, uint32(b1), uint32(bx), uint32(b2), y, uint32(by), uint16(8), uint16(3))
	r2 := append([]byte(nil), r...)
	le.PutUint32(r2[28:], b2+0x3579)
	f.Add(rebase(r2, []uint32{8, 28}, b2, b1), rebase(r2, []uint32{8, 28}, b2, bx), r2, uint32(b1), uint32(bx), uint32(b2),
		rebase(r2, []uint32{8}, b2, by), uint32(by), uint16(8), uint16(3))
	for _, s := range normalizeSeeds(f) {
		_, _, sites := NormalizePair(s.d1, s.d2, s.b1, s.b2)
		b3 := s.b2 + 0x00040000
		add(s.d1, rebase(s.d1, sites, s.b1, b3), s.d2, s.b1, b3, s.b2, s.d1, s.b1)
	}
	add(partner, clean, ref, uint32(b1), uint32(b3), uint32(b2), op, uint32(b1))
	// A third party whose differing bytes at 8 and 9 only Algorithm 2's
	// rewrite at 6 equalizes against x, after the rewrite of the site at 4
	// made bytes 6 and 7 equal: apart must not prove the pair apart.
	const sx, sy, sp = 0x30000000, 0x30020000, 0x30040000
	r3 := make([]byte, 32)
	for i := range r3 {
		r3[i] = byte(i*7 + 3)
	}
	le.PutUint32(r3[4:], b2+0x1234)
	y3 := rebase(r3, []uint32{4}, b2, sy)
	le.PutUint16(y3[8:], le.Uint16(r3[8:])+(sy-sx)>>16)
	f.Add(rebase(r3, []uint32{4}, b2, sp), rebase(r3, []uint32{4}, b2, sx), r3, uint32(sp), uint32(sx), uint32(b2), y3, uint32(sy), uint16(8), uint16(0))

	c := NewChecker(Config{})
	f.Fuzz(func(t *testing.T, partner, cp, ref []byte, bp, bc, br uint32, partner2 []byte, bp2 uint32, page, at uint16) {
		refF := digestFetch(ref, br)
		m := newRefMemo(1)
		defer m.release()
		pf := digestFetch(partner, bp)
		if key, _ := c.digestAgainst(refF, pf, m); key != digestByPair(refF, pf) {
			t.Fatal("partner: digestAgainst key differs from NormalizePair+MD5")
		}
		m.seal()

		if bc != br && m.covers(0, cp, ref, bc, br) {
			_, side, _ := NormalizePair(partner, ref, bp, br)
			n1 := append([]byte(nil), cp...)
			n2 := append([]byte(nil), ref...)
			normalizePairBytewise(n1, n2, bc, br)
			if !bytes.Equal(n1, side) || !bytes.Equal(n2, side) {
				t.Fatal("window check hit, but Algorithm 2 does not normalize the pair to the entry's reference side")
			}
		}
		cf := digestFetch(cp, bc)
		cpKey, _ := c.digestAgainst(refF, cf, m)
		if cpKey != digestByPair(refF, cf) {
			t.Fatal("copy: digestAgainst key differs from NormalizePair+MD5")
		}
		checkInPlace(t, m, cp, ref, bc, br, cf.covered, int(page), int(at))

		for _, d := range []struct {
			name string
			f    *fetched
		}{{"partner", pf}, {"copy", cf}} {
			eq, ok := compareFact(refF, d.f, 0, 0)
			if want := c.compareComponent(refF, d.f, 0, 0); !ok || eq != want {
				t.Fatalf("%s: the digest facts answer %v (ok %v) for the pair with the reference, compareComponent %v", d.name, eq, ok, want)
			}
		}
		eq, ok := compareFact(pf, cf, 0, 0)
		if pf.refCovered&cf.refCovered&1 != 0 {
			n1, n2, _ := NormalizePair(partner, cp, bp, bc)
			if !bytes.Equal(n1, n2) {
				t.Fatal("partner and copy both covered, but Algorithm 2 does not normalize them to equal sides")
			}
			if !ok {
				t.Fatal("partner and copy both covered, but the digest facts do not answer their pair")
			}
		}
		if want := c.compareComponent(pf, cf, 0, 0); ok && eq != want {
			t.Fatalf("the digest facts answer %v for the partner and the copy, compareComponent %v", eq, want)
		}

		// The third party, digested against the sealed memo.
		yf := digestFetch(partner2, bp2)
		c.digestAgainst(refF, yf, m)
		if cf.refCovered&yf.refCovered&1 != 0 && (!c.compareComponent(cf, yf, 0, 0) || !c.compareComponent(refF, yf, 0, 0)) {
			t.Fatal("the copy and the third party are both covered, but they do not match each other and the reference")
		}
		// The covered copy's stand-in carries its bytes, and where apart
		// proves the third party apart from it, Algorithm 2 agrees.
		if cf.refCovered&1 != 0 && m.sides[0].starts != nil {
			moved := make([]byte, len(ref))
			m.standIn(refF, bc).side(0).copyTo(moved)
			if !bytes.Equal(moved, cp) {
				t.Fatal("the covered copy's stand-in differs from the copy")
			}
			if yf.refCovered&1 == 0 && m.apart(0, yf.side(0), refF.side(0), bc) && c.compareComponent(cf, yf, 0, 0) {
				t.Fatal("apart proves the third party apart from the covered copy, but they match")
			}
		}

		// The second run, against a fresh memo fed the same digests.
		m.reopen()
		fresh := newRefMemo(1)
		defer fresh.release()
		for _, d := range []struct {
			name string
			data []byte
			base uint32
		}{{"second partner", partner2, bp2}, {"copy", cp, bc}} {
			cs, rs := side{data: d.data, base: d.base}, side{data: ref, base: br}
			sum, refSum, covered := m.digestPair(0, cs, rs)
			wantSum, wantRef, wantCovered := fresh.digestPair(0, cs, rs)
			if sum != wantSum || refSum != wantRef || covered != wantCovered {
				t.Fatalf("second run: %s: the reopened memo's sums or coverage differ from a fresh memo's", d.name)
			}
			m.seal()
			fresh.seal()
			if a, b := m.sides[0].starts, fresh.sides[0].starts; (a == nil) != (b == nil) || a != nil && !bytes.Equal(*a, *b) {
				t.Fatalf("second run: %s: the reopened memo's entry differs from a fresh memo's", d.name)
			}
		}
	})
}

// scan feeds b, a whole copy, to the check as a walk would, in pages of
// page bytes. It reports covered.
func (c *pageCheck) scan(b []byte, page int) bool {
	for off := 0; off < len(b); off += page {
		n := min(page, len(b)-off)
		if c.Wants(off, n) && !c.Visit(off, b[off:off+n]) {
			return false
		}
	}
	return c.covered()
}

// checkInPlace runs the in-place check of cp against ref under the sealed
// memo m, as a Searcher would with the component at module offset at
// behind as many header bytes, in pages of page bytes (at least one)
// starting at module offset 0. The check must cover the copy exactly when
// the window check covers it (byte equality at the reference's base), and
// so exactly when digestAgainst found the copy covered (covered), which
// puts it in the reference's cluster either way.
func checkInPlace(t *testing.T, m *refMemo, cp, ref []byte, bc, br uint32, covered bool, page, at int) {
	t.Helper()
	page = max(page, 1)
	image := func(data []byte) []byte { return append(make([]byte, at), data...) }
	refImg := image(ref)
	ip := &inPlace{
		ref: &fetched{info: &ModuleInfo{Base: br}, parsed: &ParsedModule{
			Raw:        refImg,
			Components: []Component{{Name: ".text", Data: refImg[at:], Normalize: true}},
		}},
		memo:     m,
		windowed: m.sides[0].starts != nil,
		cost:     perKB(2*len(ref), scanCostPerKB) + perKB(2*len(ref), hashCostPerKB),
		hits:     1,
	}
	if at > 0 {
		ip.spans = append(ip.spans, span{lo: 0, hi: at, k: -1})
	}
	if len(ref) > 0 {
		ip.spans = append(ip.spans, span{lo: at, hi: at + len(ref), k: 0})
	}
	chk := ip.check()
	got := chk.start(&ModuleInfo{Base: bc, SizeOfImage: uint32(at + len(cp))}) && chk.scan(image(cp), page)
	want := len(cp) == len(ref) && bytes.Equal(cp, ref)
	if bc != br {
		want = m.covers(0, cp, ref, bc, br)
	}
	if got != want {
		t.Fatalf("in pages of %d at offset %d: the in-place check covers %v, the window check on the copy %v", page, at, got, want)
	}
	if got != covered {
		t.Fatalf("in pages of %d at offset %d: the in-place check covers %v, digestAgainst %v", page, at, got, covered)
	}
}
