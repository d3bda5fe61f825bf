package core

import (
	"encoding/binary"
	"math/bits"
	"sync"

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
// stage passes nil.
//
// Runs of equal bytes are skipped a word at a time: the XOR of two 8-byte
// words is zero when they match, and otherwise its trailing zero bits count
// the equal bytes before the first difference (little-endian loads keep
// memory order). Every differing byte is therefore visited exactly as the
// byte-at-a-time loop of the pseudocode visits it, so the rewrites and
// sites are the same.
func normalizePairInPlace(n1, n2 []byte, base1, base2 uint32, marks []byte) {
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
		return
	}

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
				j = start + 4
				continue
			}
		}
		// Not a consistent relocation: a genuine content difference.
		// Leave the byte and keep scanning.
		j++
	}
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
	le := binary.LittleEndian
	lfanew := le.Uint32(raw[0x3C:])
	optOff := lfanew + 4 + pe.FileHeaderSize
	// DataDirectory starts 96 bytes into the optional header.
	dirOff := optOff + 96 + pe.DirBaseReloc*8
	relocRVA := le.Uint32(raw[dirOff:])
	relocSize := le.Uint32(raw[dirOff+4:])
	if relocRVA == 0 || relocSize == 0 {
		return nil, nil
	}
	if uint64(relocRVA)+uint64(relocSize) > uint64(len(raw)) {
		return nil, pe.ErrFormat
	}
	return pe.ParseRelocTable(raw[relocRVA : relocRVA+relocSize])
}

// ApplyRelocNormalization returns a copy of the component's data with every
// relocation site inside it rewritten from absolute address to RVA. sites
// are image-relative RVAs (as returned by NormalizeWithRelocs); base is the
// module's load base on this VM.
func ApplyRelocNormalization(c *Component, sites []uint32, base uint32) []byte {
	out := append([]byte(nil), c.Data...)
	le := binary.LittleEndian
	lo := c.VirtualAddress
	hi := c.VirtualAddress + uint32(len(out))
	for _, rva := range sites {
		if rva < lo || rva+4 > hi {
			continue
		}
		off := rva - lo
		le.PutUint32(out[off:], le.Uint32(out[off:])-base)
	}
	return out
}
