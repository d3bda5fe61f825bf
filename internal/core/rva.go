package core

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"modchecker/internal/pe"
)

// scratchPool recycles normalization buffers: Algorithm 2 runs in place on
// copies of both sides of a section, up to a few hundred KiB each, once per
// compared cluster pair and once per digest the reference memo cannot
// answer. Without reuse every sweep would allocate those copies afresh.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getScratch returns a pooled buffer of length n.
//
//modown:pool scratch get
func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer to the pool.
//
//modown:pool scratch put
func putScratch(p *[]byte) {
	poisonBuf((*p)[:cap(*p)])
	scratchPool.Put(p)
}

// NormalizePair implements the paper's Algorithm 2: given the same section's
// data copied from two VMs and the two modules' load bases, locate embedded
// absolute addresses by byte difference and rewrite them as RVAs in both
// copies, making untampered sections byte-identical (Figure 4 C/D).
//
// The address-location heuristic is the paper's: compare the two base
// addresses byte by byte (in memory order); the index of the first
// differing byte is the "offset". When the section scan hits a differing
// byte at j, the 4-byte little-endian address field is assumed to start
// `offset` bytes earlier. Because module bases are page aligned (equal low
// bytes) and both loaders add the same RVA, the first differing byte of two
// relocated addresses falls at exactly the same index as the first
// differing byte of the bases, so the heuristic is exact for genuine
// relocation sites. A differing 4-byte window whose two values do NOT
// decode to the same RVA is left untouched — that is a real content
// difference and must surface in the hashes.
//
// Note on fidelity: the paper's pseudocode advances the scan with
// "j <- j - offset + 1 - 4" (line 22), which would move backwards and never
// terminate; the evidently intended advance — past the 4-byte field just
// processed — is what this implementation (and any working one) does. See
// TestAlgorithm2PaperLine22Quirk.
//
// The returned slices are fresh copies; inputs are never mutated. sites
// holds the section-relative offsets of every rewritten address field.
func NormalizePair(data1, data2 []byte, base1, base2 uint32) (n1, n2 []byte, sites []uint32) {
	n1 = append([]byte(nil), data1...)
	n2 = append([]byte(nil), data2...)
	marks := make([]byte, (min(len(n1), len(n2))+7)/8)
	normalizePairInPlace(n1, n2, base1, base2, marks)
	count := 0
	for _, b := range marks {
		count += bits.OnesCount8(b)
	}
	if count == 0 {
		return n1, n2, nil
	}
	sites = make([]uint32, 0, count)
	for i, b := range marks {
		for ; b != 0; b &= b - 1 {
			sites = append(sites, uint32(8*i+bits.TrailingZeros8(b)))
		}
	}
	return n1, n2, sites
}

// normalizePairInPlace is Algorithm 2 operating directly on the two
// buffers (which it mutates). NormalizePair wraps it with copies; the
// checker's hot path runs it on pooled scratch buffers instead. When marks
// is non-nil, each rewritten field's offset i sets bit i%8 of marks[i/8]
// (marks must cover the shorter buffer): NormalizePair turns the bits into
// its site list, the digest's reference memo keeps them, and the compare
// stage passes nil. It reports whether no two rewritten fields overlap:
// a field may start up to three bytes behind the end of the previous one.
//
// Runs of equal bytes are skipped a word at a time: the XOR of two 8-byte
// words is zero when they match, and otherwise its trailing zero bits count
// the equal bytes before the first difference (little-endian loads keep
// memory order). Every differing byte is therefore visited exactly as the
// byte-at-a-time loop of the pseudocode visits it, so the rewrites and
// sites are the same.
func normalizePairInPlace(n1, n2 []byte, base1, base2 uint32, marks []byte) (disjoint bool) {
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
		return true
	}

	disjoint = true
	next := 0 // the first byte past the last rewritten field
	limit := min(len(n1), len(n2))
	n1, n2 = n1[:limit], n2[:limit]
	for j := 0; j < limit; {
		if j+8 <= limit {
			x := le.Uint64(n1[j:]) ^ le.Uint64(n2[j:])
			if x == 0 {
				j += 8
				continue
			}
			j += bits.TrailingZeros64(x) >> 3
		} else if n1[j] == n2[j] {
			j++
			continue
		}
		// n1[j] != n2[j].
		start := j - offset
		if start >= 0 && start+4 <= limit {
			a1 := le.Uint32(n1[start:])
			a2 := le.Uint32(n2[start:])
			rva1 := a1 - base1
			rva2 := a2 - base2
			if rva1 == rva2 {
				le.PutUint32(n1[start:], rva1)
				le.PutUint32(n2[start:], rva2)
				if marks != nil {
					marks[start>>3] |= 1 << (start & 7)
				}
				disjoint = disjoint && start >= next
				j, next = start+4, start+4
				continue
			}
		}
		// Not a consistent relocation: a genuine content difference.
		// Leave the byte and keep scanning.
		j++
	}
	return disjoint
}

// NormalizeWithRelocs is the ablation alternative (A2) to the diff scan: it
// recovers relocation sites from the module's own in-memory .reloc table
// (data directory 5) and rewrites each 32-bit field back to an RVA by
// subtracting the load base. Unlike NormalizePair it needs no second VM and
// normalizes each copy once, but it trusts metadata inside the (possibly
// hostile) module — the robustness trade-off DESIGN.md discusses.
//
// It returns the section-RVA-sorted fixup sites; apply them to a component
// with ApplyRelocNormalization.
func NormalizeWithRelocs(raw []byte) ([]uint32, error) {
	lo, hi := relocDir(raw)
	if lo == hi {
		return nil, nil
	}
	if hi > len(raw) {
		return nil, pe.ErrFormat
	}
	return pe.ParseRelocTable(raw[lo:hi])
}

// relocDir returns the bytes [lo, hi) of the image's .reloc data
// directory, empty when it has none. raw must hold the optional header.
func relocDir(raw []byte) (lo, hi int) {
	le := binary.LittleEndian
	// DataDirectory starts 96 bytes into the optional header.
	dir := le.Uint32(raw[0x3C:]) + 4 + pe.FileHeaderSize + 96 + pe.DirBaseReloc*8
	if rva, size := le.Uint32(raw[dir:]), le.Uint32(raw[dir+4:]); rva != 0 && size != 0 {
		return int(rva), int(rva) + int(size)
	}
	return 0, 0
}

// ApplyRelocNormalization returns a copy of the component's data with every
// relocation site inside it rewritten from absolute address to RVA. sites
// are image-relative RVAs (as returned by NormalizeWithRelocs); base is the
// module's load base on this VM.
func ApplyRelocNormalization(c *Component, sites []uint32, base uint32) []byte {
	out := append([]byte(nil), c.Data...)
	applySites(out, side{va: c.VirtualAddress, base: base, sites: sites}, nil)
	return out
}

// applySites rewrites dst, a copy of s's component, from absolute address
// to RVA at each of s's sites whose field lies inside it, in order, and
// marks each in marks when it is not nil. Bounds are taken in 64 bits: a
// hostile .reloc block may name a site near 2^32. It reports whether no
// two rewritten fields overlap (a site listed twice overlaps itself).
func applySites(dst []byte, s side, marks []byte) (disjoint bool) {
	le := binary.LittleEndian
	disjoint = true
	next := uint64(0) // the first byte past the last rewritten field
	for _, rva := range s.sites {
		if off := uint64(rva) - uint64(s.va); rva >= s.va && off+4 <= uint64(len(dst)) {
			le.PutUint32(dst[off:], le.Uint32(dst[off:])-s.base)
			if marks != nil {
				marks[off>>3] |= 1 << (off & 7)
			}
			disjoint, next = disjoint && off >= next, off+4
		}
	}
	return disjoint
}

// side is one copy's component as a site source reads it: its bytes and
// RVA, the copy's load base and, under own sites, the copy's .reloc sites.
type side struct {
	data     []byte
	va, base uint32
	sites    []uint32
	// moved marks a covered copy's stand-in (refMemo.standIn): data is the
	// reference's, loaded at from, and a copy of it moves the field of each
	// window these start bits mark by base - from.
	moved []byte
	from  uint32
}

// side returns component i of f as a site source reads it.
func (f *fetched) side(i int) side {
	comp := &f.parsed.Components[i]
	s := side{data: comp.Data, va: comp.VirtualAddress, base: f.info.Base, sites: f.sites}
	if f.moved != nil && f.moved.sides[i].starts != nil {
		s.moved, s.from = *f.moved.sides[i].starts, f.against.info.Base
	}
	return s
}

// copyTo copies the side's bytes into dst, moving a stand-in's windows.
func (s side) copyTo(dst []byte) {
	copy(dst, s.data)
	le := binary.LittleEndian
	for i, b := range s.moved {
		for ; b != 0; b &= b - 1 {
			p := 8*i + bits.TrailingZeros8(b)
			le.PutUint32(dst[p:], le.Uint32(dst[p:])+s.base-s.from)
		}
	}
}

// siteSource is where the rewrite windows of a normalized component — the
// 4-byte fields that hold relocated absolute addresses — come from:
// Algorithm 2's diff scan against the partner side, or, with own set, each
// side's own .reloc directory (ablation A2). The digest, its reference
// memo, the compare stage's facts and the in-place check all run over
// those windows; only this type tells the sources apart.
type siteSource struct{ own bool }

// sites returns the site source Config.Normalizer selects.
func (c *Checker) sites() siteSource {
	return siteSource{own: c.cfg.Normalizer == NormalizeRelocTable}
}

// work is the nominal CPU cost of hashing n bytes of a component, scanned
// first when they are normalized.
func work(n int, normalized bool) time.Duration {
	if normalized {
		return perKB(n, scanCostPerKB) + perKB(n, hashCostPerKB)
	}
	return perKB(n, hashCostPerKB)
}

// pairWork is the charge of digesting or comparing n bytes of a component
// pair. Own sites rewrite each copy alone, so they do that work once per
// copy, when it is parsed (copyWork), and charge pairs nothing.
func (s siteSource) pairWork(n int, normalized bool) time.Duration {
	if s.own {
		return 0
	}
	return work(n, normalized)
}

// copyWork is the per-copy charge of a copy parsed to layout m: nothing
// for the diff scan, whose windows need a partner.
func (s siteSource) copyWork(m *ParsedModule) (cost time.Duration) {
	if !s.own {
		return 0
	}
	for i := range m.Components {
		cost += work(len(m.Components[i].Data), m.Components[i].Normalize)
	}
	return cost
}

// read returns a parsed copy's own sites: none for the diff scan.
func (s siteSource) read(m *ParsedModule) ([]uint32, error) {
	if !s.own {
		return nil, nil
	}
	sites, err := NormalizeWithRelocs(m.Raw)
	if err != nil {
		return nil, fmt.Errorf("core: reloc table of %s on %s: %w", m.ModuleName, m.VMName, err)
	}
	return sites, nil
}

// dir returns the bytes [lo, hi) of an image that read takes its own sites
// from: the .reloc directory, or none for the diff scan.
func (s siteSource) dir(raw []byte) (lo, hi int) {
	if !s.own {
		return 0, 0
	}
	return relocDir(raw)
}

// raw reports whether a pair loaded at these bases is compared as it is:
// Algorithm 2 finds no windows between equal bases, while own sites are
// rewritten at any base.
func (s siteSource) raw(base, refBase uint32) bool { return !s.own && base == refBase }

// perBase reports whether a comparison's outcome can depend on the pair's
// bases beyond what each side's digest says: the diff scan finds its
// windows where the pair differs, while own sites rewrite each copy alone.
func (s siteSource) perBase() bool { return !s.own }

// shared reports whether copy side c has reference side r's windows
// wherever their bytes agree, as the memo's window check requires: always
// for the diff scan, whose windows that check proves, and for own sites
// when the sides read equal site lists.
func (s siteSource) shared(c, r side) bool { return !s.own || slices.Equal(c.sites, r.sites) }

// rewritten returns pooled scratch copies of the peer sides c and r
// rewritten at their windows, marking r's window starts in marks when it
// is not nil, and reports whether those windows are disjoint. The caller
// returns both buffers with putScratch.
//
//modown:pool scratch get
func (s siteSource) rewritten(c, r side, marks []byte) (sc, sr *[]byte, disjoint bool) {
	sc, sr = getScratch(len(c.data)), getScratch(len(r.data))
	c.copyTo(*sc)
	r.copyTo(*sr)
	if !s.own {
		return sc, sr, normalizePairInPlace(*sc, *sr, c.base, r.base, marks)
	}
	applySites(*sc, c, nil)
	return sc, sr, applySites(*sr, r, marks)
}

// alone returns the MD5 of a component the partner lacks: rewritten at its
// own sites when it is normalized, raw when its windows need a partner.
func (s siteSource) alone(c side, normalized bool) [md5.Size]byte {
	if !s.own || !normalized {
		return md5.Sum(c.data)
	}
	p := getScratch(len(c.data))
	defer putScratch(p)
	copy(*p, c.data)
	applySites(*p, c, nil)
	return md5.Sum(*p)
}
