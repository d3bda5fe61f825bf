package core

import (
	"crypto/md5"
	"encoding/binary"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/pe"
	"modchecker/internal/vmi"
)

// digestByPair recomputes a copy's cluster key the straightforward way:
// NormalizePair on fresh copies, then MD5 of both normalized sides of every
// relocated component. digestAgainst must produce exactly this key however
// much hashing its memo and equal-side shortcuts skip.
func digestByPair(ref, f *fetched) string {
	h := md5.New()
	var lenBuf [8]byte
	writePart := func(name string, n int, sum [md5.Size]byte) {
		h.Write([]byte(name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
		h.Write(sum[:])
	}
	for _, comp := range f.parsed.Components {
		refComp := ref.parsed.Component(comp.Name)
		if comp.Normalize && refComp != nil {
			n1, n2, _ := NormalizePair(comp.Data, refComp.Data, f.info.Base, ref.info.Base)
			writePart(comp.Name, len(n1), md5.Sum(n1))
			writePart("", len(n2), md5.Sum(n2))
			continue
		}
		writePart(comp.Name, len(comp.Data), md5.Sum(comp.Data))
	}
	return string(h.Sum(nil))
}

// firstDiffByte is Algorithm 2's offset for a base pair: the index of the
// first differing byte in memory order, or -1.
func firstDiffByte(a, b uint32) int {
	for i := 0; i < 4; i++ {
		if byte(a>>(8*i)) != byte(b>>(8*i)) {
			return i
		}
	}
	return -1
}

// TestDigestKeysExactUnderMemo pins the engine's digest keys to the
// straightforward recomputation on a pool built to exercise every branch
// of the reference memo and the equal-side shortcut:
//
//   - a clean majority, whose normalized reference sides are all equal, so
//     all but the first reuse the memoized MD5;
//   - a copy with one byte tampered directly after a relocation site (the
//     byte Algorithm 2's rewrite window reaches past a site), which must
//     get its own key and an ALTERED verdict;
//   - a clean copy whose base first differs from the reference's in a
//     different byte than the other copies' bases do;
//   - a copy whose .text section is shorter, which leaves the tail of the
//     reference side unrewritten, so its reference side misses the memo.
//
// It runs the engine in parallel and sequential mode: in parallel mode the
// digest workers race to fill the memo.
func TestDigestKeysExactUnderMemo(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	boot := func(k int) (*guest.Guest, Target) {
		g, err := guest.New(guest.Config{
			Name: "vm" + string(rune('a'+k%26)) + string(rune('a'+k/26)), MemBytes: 16 << 20,
			BootSeed: int64(k+1) * 7919, Disk: disk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g, Target{Name: g.Name(), Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile)}
	}

	// Boot candidates until there are six copies whose base first differs
	// from the reference's in the common byte, plus one that differs first
	// in another byte.
	refG, refT := boot(0)
	refBase := refG.Module(module).Base
	var common, odd []int
	guests := map[int]*guest.Guest{0: refG}
	targets := map[int]Target{0: refT}
	for k := 1; len(common) < 6 || len(odd) < 1; k++ {
		if k > 200 {
			t.Fatal("no boot seed yields the wanted base offsets")
		}
		g, tg := boot(k)
		switch firstDiffByte(refBase, g.Module(module).Base) {
		case 1:
			if len(common) < 6 {
				common = append(common, k)
				guests[k], targets[k] = g, tg
			}
		case 2, 3:
			if len(odd) < 1 {
				odd = append(odd, k)
				guests[k], targets[k] = g, tg
			}
		}
	}
	// Pool order: the reference, four clean copies, the tampered copy, the
	// shorter copy, then the odd-base copy — a clean majority of six.
	order := append(append([]int{0}, common...), odd...)
	pool := make([]Target, len(order))
	for i, k := range order {
		pool[i] = targets[k]
	}
	tg, sg := guests[common[4]], guests[common[5]]
	tampered, shorter := tg.Name(), sg.Name()

	// Tamper the byte right after a .text relocation site on one copy.
	img, err := pe.Parse(disk[module])
	if err != nil {
		t.Fatal(err)
	}
	text := img.Section(".text")
	sites, err := img.RelocSites()
	if err != nil {
		t.Fatal(err)
	}
	var site uint32
	for _, rva := range sites {
		if rva > text.Header.VirtualAddress+64 && rva+8 < text.Header.VirtualAddress+text.Header.VirtualSize {
			site = rva
			break
		}
	}
	if site == 0 {
		t.Fatal("no .text relocation site")
	}
	as := tg.AddressSpace()
	b := make([]byte, 1)
	va := tg.Module(module).Base + site + 4
	if err := as.Read(va, b); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x5A
	if err := as.Write(va, b); err != nil {
		t.Fatal(err)
	}

	// Shrink .text's VirtualSize in one copy's in-memory section table, so
	// that it ends halfway through the section's last relocation site.
	last := site
	for _, rva := range sites {
		if rva+4 <= text.Header.VirtualAddress+text.Header.VirtualSize {
			last = max(last, rva)
		}
	}
	lfanew := binary.LittleEndian.Uint32(disk[module][0x3C:])
	secTable := lfanew + 4 + pe.FileHeaderSize + pe.OptionalHeader32Size
	var hdrVA uint32
	for i := range img.Sections {
		if img.Sections[i].Header.NameString() == ".text" {
			hdrVA = sg.Module(module).Base + secTable + uint32(i)*pe.SectionHeaderSize
		}
	}
	vs := make([]byte, 4)
	binary.LittleEndian.PutUint32(vs, last-text.Header.VirtualAddress+2)
	if err := sg.AddressSpace().Write(hdrVA+8, vs); err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []bool{true, false} {
		c := NewChecker(Config{Parallel: parallel})
		o, ok := c.poolEngine(pool).run(module)
		if !ok {
			t.Fatal("engine run failed")
		}
		ref := c.fetchAndParse(pool[0].Handle, pool[0].Name, module)
		keys := map[string]string{}
		for i := 1; i < len(pool); i++ {
			f := c.fetchAndParse(pool[i].Handle, pool[i].Name, module)
			if f.err != nil {
				t.Fatal(f.err)
			}
			want := digestByPair(ref, f)
			if got := o.clusters[o.clusterOf[i]].key; got != want {
				t.Errorf("parallel=%v: %s: engine key %x, NormalizePair+MD5 key %x", parallel, pool[i].Name, got, want)
			}
			keys[pool[i].Name] = want
			c.releaseFetched(f)
		}
		c.releaseFetched(ref)

		clean := keys[pool[1].Name]
		for name, key := range keys {
			distinct := name == tampered || name == shorter
			if (key != clean) != distinct {
				t.Errorf("parallel=%v: %s: key distinct from the clean copies = %v, want %v", parallel, name, key != clean, distinct)
			}
		}

		rep, err := c.CheckPool(module, pool)
		if err != nil {
			t.Fatal(err)
		}
		flagged := map[string]bool{}
		for _, name := range rep.Flagged {
			flagged[name] = true
		}
		if len(rep.Flagged) != 2 || !flagged[tampered] || !flagged[shorter] {
			t.Errorf("parallel=%v: flagged %v, want exactly %s and %s ALTERED", parallel, rep.Flagged, tampered, shorter)
		}
	}
}
