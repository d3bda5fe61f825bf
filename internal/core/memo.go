package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"modchecker/internal/cas"
)

// This file holds the reference memo behind digestAgainst. Every
// copy of a module is normalized against the same reference, and Algorithm
// 2 rewrites a clean copy's pair at exactly the relocation sites the first
// digest recorded. The memo keeps those sites' windows, not the normalized
// bytes, so a later copy proves its digest with one read-only pass over the
// pair instead of copying, rewriting and hashing both sides again. It is
// kept across runs while the reference's content token holds (takeMemo).

// windowPools recycle the window bitmaps Algorithm 2 records on the
// digest's miss path, which memo entries keep for as long as their memo.
// They are split by size class like the fetch buffers, and they are an
// eighth of their section's size: pools of their own keep them from
// displacing section-sized buffers in scratchPool.
var windowPools [sizeClasses]sync.Pool

// getWindows returns a pooled, zeroed bitmap for an n-byte section: one
// bit per byte, rounded up to whole 64-bit words.
//
//modown:pool windows get
func getWindows(n int) *[]byte {
	n = (n + 63) / 64 * 8
	class, size := sizeClass(n)
	p, _ := windowPools[class].Get().(*[]byte)
	if p == nil {
		b := make([]byte, size)
		p = &b
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// putWindows returns a bitmap to the pool of its class.
//
//modown:pool windows put
func putWindows(p *[]byte) {
	poisonBuf((*p)[:cap(*p)])
	class, _ := sizeClass(cap(*p))
	windowPools[class].Put(p)
}

// windowMask expands one byte of window bits into the mask of the eight
// section bytes it covers: bit i set selects byte i of a little-endian word.
var windowMask = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			if b>>i&1 != 0 {
				t[b] |= 0xFF << (8 * i)
			}
		}
	}
	return t
}()

// refMemo remembers how Algorithm 2 rewrote each reference component
// against its first partner: the window bitmap of its rewrite sites and the
// MD5 of the normalized reference side. It keeps no normalized bytes.
//
// A run's first digest fills the memo on the engine's driving goroutine;
// seal then closes it, and the digest workers only read it. So whether a
// digest hits depends only on guest bytes, never on which worker ran
// first, and a hit returns exactly the sums the miss path would compute.
type refMemo struct {
	sides   []refSide // by reference component index
	filling bool      // until seal: a miss may become its component's entry
	hits    atomic.Int64
	tok     cas.Token // the reference's content token when the memo was made
}

// refSide is one reference component's memo entry.
type refSide struct {
	// starts is the entry's window bitmap: bit i is set when one of the
	// entry's sites, the first byte of a 4-byte rewrite window, is byte i
	// of the component. The windows never overlap. nil while the component
	// has no entry.
	starts *[]byte
	sum    [md5.Size]byte // MD5 of the normalized reference side

	// raw is the MD5 of the raw reference side, the digest of both sides
	// for a partner whose base equals the reference's; nil until one
	// needs it.
	raw atomic.Pointer[[md5.Size]byte]
}

// newRefMemo returns an empty memo, open for filling, for a reference
// with n components.
func newRefMemo(n int) *refMemo {
	return &refMemo{sides: make([]refSide, n), filling: true}
}

// seal ends filling: from here on the memo is read-only, and concurrent
// digests may share it.
func (m *refMemo) seal() { m.filling = false }

// reopen readies a kept memo for a new run: open for filling, with no hits.
func (m *refMemo) reopen() {
	m.filling = true
	m.hits.Store(0)
}

// takeMemo returns the memo for a run of module whose reference has n
// components and content token tok, sampled before the reference was
// fetched: the module's kept memo, reopened, when it carries the same valid
// token (reused), a fresh one otherwise. The kept memo leaves the Checker
// either way, so no two runs ever share a memo while it fills.
//
// Reuse is exact: an entry is a function of the reference bytes, the
// reference's base and the entry's sites alone, and an unchanged valid
// token proves the first two unchanged, as it does for the digest store.
// covers still checks every copy against the live reference bytes.
func (c *Checker) takeMemo(module string, tok cas.Token, n int) (m *refMemo, reused bool) {
	c.memoMu.Lock()
	m = c.memos[module]
	delete(c.memos, module)
	c.memoMu.Unlock()
	if m != nil && tok.OK && m.tok == tok && len(m.sides) == n {
		m.reopen()
		return m, true
	}
	if m != nil {
		m.release()
	}
	m = newRefMemo(n)
	m.tok = tok
	return m, false
}

// putMemo ends a run of module: m, the run's memo, becomes the module's
// kept memo when it carries a valid token. A nil m, from a run that
// digested nothing, keeps none, so a fleet whose sweeps all hit the digest
// store holds no bitmaps. Every memo not kept is released.
func (c *Checker) putMemo(module string, m *refMemo) {
	c.memoMu.Lock()
	old := c.memos[module]
	delete(c.memos, module)
	if m != nil && m.tok.OK {
		if c.memos == nil {
			c.memos = make(map[string]*refMemo)
		}
		c.memos[module] = m
		m = nil // kept
	}
	c.memoMu.Unlock()
	if old != nil {
		old.release()
	}
	if m != nil {
		m.release()
	}
}

// release returns every entry's bitmap to its pool. The memo must not be
// used afterwards.
func (m *refMemo) release() {
	for k := range m.sides {
		if e := &m.sides[k]; e.starts != nil {
			putWindows(e.starts)
		}
	}
}

// digestPair returns the MD5s of copy c's and reference r's sides of
// reference component k, after Algorithm 2 has normalized c (loaded at
// base) against r (loaded at refBase). It hashes only what the memo does
// not already prove.
//
// covered reports that c equals r outside the component's entry windows
// and carries r's RVAs inside them (covers' conditions), or that the bases
// are equal and c is r byte for byte. Two covered copies of one component
// normalize equal against each other under any base pair of their own
// (compareFact).
func (m *refMemo) digestPair(k int, c, r []byte, base, refBase uint32) (sum, refSum [md5.Size]byte, covered bool) {
	if base == refBase {
		// Equal bases: Algorithm 2 rewrites nothing, both sides stay raw.
		refSum = m.raw(k, r)
		if bytes.Equal(c, r) {
			return refSum, refSum, true
		}
		return md5.Sum(c), refSum, false
	}
	if m.covers(k, c, r, base, refBase) {
		return m.sides[k].sum, m.sides[k].sum, true
	}

	// Miss: Algorithm 2 itself, on scratch copies, marking its sites in a
	// window bitmap.
	sa := getScratch(len(c))
	sb := getScratch(len(r))
	copy(*sa, c)
	copy(*sb, r)
	starts := getWindows(len(r))
	normalizePairInPlace(*sa, *sb, base, refBase, *starts)
	// The normalized reference side is r with each site's field rewritten,
	// so the entry's sites recorded again mean the entry's bytes again.
	refSum, ok := m.sumFor(k, *starts)
	if !ok {
		refSum = md5.Sum(*sb)
	}
	equal := bytes.Equal(*sa, *sb)
	sum = refSum
	if !equal {
		sum = md5.Sum(*sa)
	}
	putScratch(sa)
	putScratch(sb)
	// Equal sides mean c is r outside the rewritten windows and carries r's
	// RVAs inside them: covered, once those windows are the entry's. (Equal
	// sides at the entry's own sites would have passed covers.)
	covered = m.keep(k, starts, refSum) && equal
	return sum, refSum, covered
}

// raw returns the MD5 of reference component k's raw bytes r, hashing
// them once per memo. Workers that race to the first hash store equal sums.
func (m *refMemo) raw(k int, r []byte) [md5.Size]byte {
	e := &m.sides[k]
	if sum := e.raw.Load(); sum != nil {
		return *sum
	}
	sum := md5.Sum(r)
	e.raw.Store(&sum)
	return sum
}

// covers reports whether Algorithm 2, run on copy c against reference r
// with distinct bases, provably rewrites exactly component k's entry
// sites and leaves the two sides equal — so both normalize to the entry's
// reference side. It holds when
//
//   - the lengths are equal;
//   - c and r agree on every byte outside the entry's windows;
//   - at each site, both 4-byte fields decode to the same RVA.
//
// Algorithm 2's offset is the first byte in which the bases differ. Equal
// RVAs make the fields agree below the offset and differ at it, since the
// low bytes of a sum depend only on the addends' low bytes. So the scan
// meets each window's first differing byte at window start plus offset,
// rewrites the window, resumes past it (windows do not overlap), and finds
// nothing else to rewrite. Every rewritten field then holds the same RVA
// in both sides, and every other byte is r's own.
//
// The pass reads both sides once: the byte comparison runs word-wise
// without branching on the data, and the RVA checks visit each site once.
// A clean copy never touches a scratch buffer or MD5.
func (m *refMemo) covers(k int, c, r []byte, base, refBase uint32) bool {
	e := &m.sides[k]
	if e.starts == nil || len(c) != len(r) {
		return false
	}
	le := binary.LittleEndian
	starts := *e.starts
	var diff, prev uint64
	// 64 bytes a step: one bitmap word, four accumulators for the
	// eight data words.
	var d0, d1, d2, d3 uint64
	for j := 0; j < len(r); j += 64 {
		st := le.Uint64(starts[j>>3:])
		// Window bits: each start and the three bytes after it, the last
		// three starts of the previous word reaching into this one.
		w := st | st<<1 | st<<2 | st<<3 | prev>>61 | prev>>62 | prev>>63
		prev = st
		if j+64 <= len(r) {
			cw, rw := c[j:j+64], r[j:j+64]
			d0 |= (le.Uint64(cw[0:]) ^ le.Uint64(rw[0:])) &^ windowMask[byte(w)]
			d1 |= (le.Uint64(cw[8:]) ^ le.Uint64(rw[8:])) &^ windowMask[byte(w>>8)]
			d2 |= (le.Uint64(cw[16:]) ^ le.Uint64(rw[16:])) &^ windowMask[byte(w>>16)]
			d3 |= (le.Uint64(cw[24:]) ^ le.Uint64(rw[24:])) &^ windowMask[byte(w>>24)]
			d0 |= (le.Uint64(cw[32:]) ^ le.Uint64(rw[32:])) &^ windowMask[byte(w>>32)]
			d1 |= (le.Uint64(cw[40:]) ^ le.Uint64(rw[40:])) &^ windowMask[byte(w>>40)]
			d2 |= (le.Uint64(cw[48:]) ^ le.Uint64(rw[48:])) &^ windowMask[byte(w>>48)]
			d3 |= (le.Uint64(cw[56:]) ^ le.Uint64(rw[56:])) &^ windowMask[byte(w>>56)]
		} else {
			for i := j; i < len(r); i++ {
				diff |= uint64(c[i]^r[i]) &^ (w >> (i - j) & 1 * 0xFF)
			}
		}
		for ; st != 0; st &= st - 1 {
			s := j + bits.TrailingZeros64(st)
			diff |= uint64((le.Uint32(c[s:]) - base) ^ (le.Uint32(r[s:]) - refBase))
		}
	}
	if diff|d0|d1|d2|d3 != 0 {
		return false
	}
	m.hits.Add(1)
	return true
}

// sumFor returns component k's memoized reference-side MD5 when starts
// marks exactly its entry's sites. Sites increase strictly, so equal
// bitmaps mean equal site lists.
func (m *refMemo) sumFor(k int, starts []byte) ([md5.Size]byte, bool) {
	if e := &m.sides[k]; e.starts != nil && bytes.Equal(*e.starts, starts) {
		return e.sum, true
	}
	return [md5.Size]byte{}, false
}

// keep offers the window bitmap a miss recorded on component k, with the
// MD5 of the normalized reference side, as the component's entry, and
// reports whether the memo took it. The memo takes the bitmap while it is
// filling, the slot is empty and no two windows overlap; otherwise the
// bitmap goes back to its pool.
//
//modown:transfer windows
func (m *refMemo) keep(k int, starts *[]byte, sum [md5.Size]byte) bool {
	e := &m.sides[k]
	if !m.filling || e.starts != nil || overlapping(*starts) {
		putWindows(starts)
		return false
	}
	e.starts, e.sum = starts, sum
	return true
}

// overlapping reports whether two of the sites marked in starts lie less
// than 4 bytes apart. Algorithm 2's sites strictly increase, but a window
// may start up to three bytes behind the end of the previous one.
func overlapping(starts []byte) bool {
	next := 0 // the first byte past the last window
	for j := 0; j < len(starts); j += 8 {
		for st := binary.LittleEndian.Uint64(starts[j:]); st != 0; st &= st - 1 {
			s := j<<3 + bits.TrailingZeros64(st)
			if s < next {
				return true
			}
			next = s + 4
		}
	}
	return false
}
