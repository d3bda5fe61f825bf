package core

import (
	"crypto/md5"
	"encoding/binary"
	"slices"
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
// of the reference memo and the equal-side shortcut. The clone at the
// reference's base is covered by the reference like the clean copies, and
// takes their key, the run's covered key, instead of its raw one. The pool
// holds
//
//   - a clean majority, whose pairs with the reference Algorithm 2 rewrites
//     at the same sites, so all but the first are answered by the memo's
//     window check — counted, so a memo that never hits fails;
//   - a copy with one byte tampered directly after a relocation site (the
//     byte Algorithm 2's rewrite window reaches past a site), which must
//     get its own key and an ALTERED verdict;
//   - a clean copy whose base first differs from the reference's in a
//     different byte than the other copies' bases do;
//   - a copy whose .text section is shorter, which leaves the tail of the
//     reference side unrewritten, so its reference side misses the memo;
//   - a clone loaded at the reference's own base, for which Algorithm 2
//     rewrites nothing and both sides stay raw.
//
// It runs the engine in parallel and sequential mode, and once more
// sequentially with the tampered copy first, so that the copy the memo is
// filled from is the tampered one.
func TestDigestKeysExactUnderMemo(t *testing.T) {
	const module = "alpha.sys"
	disk := testDisk(t)
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	bootAs := func(name string, seed int64) (*guest.Guest, Target) {
		g, err := guest.New(guest.Config{Name: name, MemBytes: 16 << 20, BootSeed: seed, Disk: disk})
		if err != nil {
			t.Fatal(err)
		}
		return g, Target{Name: g.Name(), Handle: vmi.Open(g.Name(), g.Phys(), g.CR3(), profile)}
	}
	boot := func(k int) (*guest.Guest, Target) {
		return bootAs("vm"+string(rune('a'+k%26))+string(rune('a'+k/26)), int64(k+1)*7919)
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
	// shorter copy, the odd-base copy, then the same-base clone — a clean
	// majority of seven.
	order := append(append([]int{0}, common...), odd...)
	pool := make([]Target, len(order))
	for i, k := range order {
		pool[i] = targets[k]
	}
	sameG, sameT := bootAs("vmsame", 7919)
	if sameG.Module(module).Base != refBase {
		t.Fatalf("clone loaded %s at %#x, reference at %#x", module, sameG.Module(module).Base, refBase)
	}
	pool = append(pool, sameT)
	tg, sg := guests[common[4]], guests[common[5]]
	tampered, shorter, sameBase := tg.Name(), sg.Name(), sameG.Name()
	tamperedFirst := append([]Target{pool[0], pool[5]}, slices.Delete(slices.Clone(pool), 5, 6)[1:]...)

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

	runs := []struct {
		name        string
		parallel    bool
		pool        []Target
		pinHitCount bool
	}{
		{"parallel", true, pool, true},
		{"sequential", false, pool, true},
		{"sequential, tampered copy first", false, tamperedFirst, false},
	}
	for _, run := range runs {
		c := NewChecker(Config{Parallel: run.parallel})
		o, ok := c.poolEngine(run.pool).run(module)
		if !ok {
			t.Fatal("engine run failed")
		}
		ref := c.fetchAndParse(run.pool[0].Handle, run.pool[0].Name, module, nil)
		if run.pinHitCount {
			// The first clean copy fills the memo. The window check then
			// answers every relocated component of the other three clean
			// copies and of the odd-base copy, and every one but .text of
			// the tampered and the shorter copy.
			relocated := 0
			for _, comp := range ref.parsed.Components {
				if comp.Normalize {
					relocated++
				}
			}
			if want := int64(6*relocated - 2); o.memoHits != want {
				t.Errorf("%s: the memo's window check answered %d components, want %d", run.name, o.memoHits, want)
			}
		}
		keys := map[string]string{}
		for i := 1; i < len(run.pool); i++ {
			f := c.fetchAndParse(run.pool[i].Handle, run.pool[i].Name, module, nil)
			if f.err != nil {
				t.Fatal(f.err)
			}
			name := run.pool[i].Name
			want := digestByPair(ref, f)
			keys[name] = want
			if name == sameBase {
				want = keys[targets[common[0]].Name] // covered: the clean copies' key
			}
			if got := o.clusters[o.clusterOf[i]].key; got != want {
				t.Errorf("%s: %s: engine key %x, NormalizePair+MD5 key %x", run.name, name, got, want)
			}
			c.releaseFetched(f)
		}
		c.releaseFetched(ref)

		clean := keys[targets[common[0]].Name]
		for name, key := range keys {
			distinct := name == tampered || name == shorter || name == sameBase
			if (key != clean) != distinct {
				t.Errorf("%s: %s: key distinct from the clean copies = %v, want %v", run.name, name, key != clean, distinct)
			}
		}

		rep, err := c.CheckPool(module, run.pool)
		if err != nil {
			t.Fatal(err)
		}
		flagged := map[string]bool{}
		for _, name := range rep.Flagged {
			flagged[name] = true
		}
		if len(rep.Flagged) != 2 || !flagged[tampered] || !flagged[shorter] {
			t.Errorf("%s: flagged %v, want exactly %s and %s ALTERED", run.name, rep.Flagged, tampered, shorter)
		}
	}
}

// BenchmarkDigestAgainst measures the digest layer alone on the standard
// catalog: one op digests every module of one copy against the reference,
// with the run's memo already filled from another copy.
//
//   - hit: a clean copy at its own base, answered by the window check;
//   - miss: the same copy against a memo holding no entries, so every
//     component runs Algorithm 2 on scratch copies and MD5;
//   - same-base: a clone loaded at the reference's base, whose raw sides
//     need no rewrite.
func BenchmarkDigestAgainst(b *testing.B) {
	disk, err := guest.BuildStandardDisk()
	if err != nil {
		b.Fatal(err)
	}
	profile := vmi.XPSP2Profile(guest.PsLoadedModuleListVA)
	boot := func(name string, seed int64) Target {
		g, err := guest.New(guest.Config{Name: name, MemBytes: 64 << 20, BootSeed: seed, Disk: disk})
		if err != nil {
			b.Fatal(err)
		}
		return Target{Name: name, Handle: vmi.Open(name, g.Phys(), g.CR3(), profile)}
	}
	ref, partner, cp, clone := boot("ref", 1), boot("partner", 2), boot("copy", 3), boot("clone", 1)
	var modules []string
	for _, spec := range guest.StandardCatalog() {
		modules = append(modules, spec.Name)
	}
	c := NewChecker(Config{})
	fetchAll := func(tg Target) []*fetched {
		fs := make([]*fetched, len(modules))
		for i, m := range modules {
			if fs[i] = c.fetchAndParse(tg.Handle, tg.Name, m, nil); fs[i].err != nil {
				b.Fatal(fs[i].err)
			}
		}
		return fs
	}
	refs, partners, copies, clones := fetchAll(ref), fetchAll(partner), fetchAll(cp), fetchAll(clone)
	defer func() {
		for _, fs := range [][]*fetched{refs, partners, copies, clones} {
			for _, f := range fs {
				c.releaseFetched(f)
			}
		}
	}()
	if copies[0].info.Base == refs[0].info.Base || clones[0].info.Base != refs[0].info.Base {
		b.Fatal("boot seeds do not give the wanted bases")
	}

	for _, bc := range []struct {
		name string
		fill bool
		of   []*fetched
	}{
		{"hit", true, copies},
		{"miss", false, copies},
		{"same-base", true, clones},
	} {
		b.Run(bc.name, func(b *testing.B) {
			memos := make([]*refMemo, len(modules))
			for i := range memos {
				memos[i] = newRefMemo(len(refs[i].parsed.Components))
				if bc.fill {
					c.digestAgainst(refs[i], partners[i], memos[i])
				}
				memos[i].seal()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range modules {
					c.digestAgainst(refs[i], bc.of[i], memos[i])
				}
			}
			b.StopTimer()
			var hits int64
			for _, m := range memos {
				hits += m.hits.Load()
				m.release()
			}
			if (bc.name == "hit") != (hits > 0) {
				b.Fatalf("%d window-check hits", hits)
			}
		})
	}
}
