package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modchecker/internal/cas"
)

// This file holds the reference memo behind digestAgainst. Every
// copy of a module is normalized against the same reference, and a clean
// copy's pair is rewritten at exactly the windows a head digest
// recorded: Algorithm 2's sites against the reference, or, under the
// reloc-table normalizer, the reference's own .reloc sites, which a clean
// copy shares. The memo keeps those sites' windows, not the normalized
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

// refMemo remembers how each reference component was rewritten against its
// first partner: the window bitmap of the reference side's rewrite sites
// and the MD5 of the normalized reference side. It keeps no normalized
// bytes.
//
// A run's head digests, its first ones, fill the memo on the engine's
// driving goroutine: a component's entry is the windows of the first whose
// sides came out equal on it, with windows (see siteSource.raw). seal then
// closes the memo, and the digest workers only read it, so whether a digest
// hits depends only on guest bytes, and a hit returns exactly the sums the
// miss path would compute. A kept memo's entries must be set or confirmed
// by the head digests, exactly as a fresh memo would fill, so which copies
// the memo covers, and its key, never depend on the runs before.
type refMemo struct {
	sides   []refSide // by reference component index
	filling bool      // until seal: head digests set entries
	hits    atomic.Int64
	tok     cas.Token // the reference's content token when the memo was made
	src     siteSource
}

// refSide is one reference component's memo entry.
type refSide struct {
	// starts is the entry's window bitmap: bit i is set when one of the
	// entry's sites, the first byte of a 4-byte rewrite window, is byte i
	// of the component. The windows never overlap. nil while the component
	// has no entry.
	starts *[]byte
	sum    [md5.Size]byte // MD5 of the normalized reference side
	// held: the entry was kept from an earlier run, and no head digest of
	// this run has set or confirmed it yet; seal drops it if none does.
	held bool

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

// seal ends filling, dropping every kept entry no head digest confirmed:
// from here on the memo is read-only, and concurrent digests may share it.
func (m *refMemo) seal() {
	m.filling = false
	for k := range m.sides {
		if e := &m.sides[k]; e.held {
			putWindows(e.starts)
			e.starts, e.held = nil, false
		}
	}
}

// reopen readies a kept memo for a new run: open for filling, with no hits,
// and every entry held for the head digests to confirm.
func (m *refMemo) reopen() {
	m.filling = true
	m.hits.Store(0)
	for k := range m.sides {
		m.sides[k].held = m.sides[k].starts != nil
	}
}

// takeMemo returns the memo for a run of module whose reference has n
// components and content token tok, sampled before the reference was
// fetched: the module's kept memo, reopened, when it carries the same valid
// token (reused), a fresh one otherwise. The kept memo leaves the Checker
// either way, so no two runs ever share a memo while it fills.
//
// Reuse is exact: an entry is a function of the reference bytes, the
// reference's base and the entry's sites alone, and an unchanged valid
// token proves the first two unchanged, as it does for the digest store
// (own sites are read from the reference bytes), and the head digests
// re-confirm every entry (see refMemo); covers still checks every copy.
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
	m.tok, m.src = tok, c.sites()
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

// digestPair returns the MD5s of copy side c's and reference side r's
// normalized bytes, r being reference component k. It hashes only what the
// memo does not already prove.
//
// covered reports that c equals r outside the component's entry windows
// and carries r's RVAs inside them (covers' conditions), or that the pair
// is compared raw and c is r byte for byte. Two covered copies of one
// component normalize equal against each other under any base pair of
// their own (compareFact).
func (m *refMemo) digestPair(k int, c, r side) (sum, refSum [md5.Size]byte, covered bool) {
	if m.src.raw(c.base, r.base) {
		// Equal bases: Algorithm 2 rewrites nothing, both sides stay raw.
		refSum = m.raw(k, r.data)
		if bytes.Equal(c.data, r.data) {
			return refSum, refSum, true
		}
		return md5.Sum(c.data), refSum, false
	}
	if m.src.shared(c, r) && m.covers(k, c.data, r.data, c.base, r.base) {
		return m.sides[k].sum, m.sides[k].sum, true
	}

	// Miss: the site source rewrites scratch copies, marking the reference
	// side's sites in a window bitmap.
	starts := getWindows(len(r.data))
	sa, sb, disjoint := m.src.rewritten(c, r, *starts)
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
	covered = m.keep(k, starts, refSum, disjoint && equal)
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
// in both sides, and every other byte is r's own. Under own sites, whose
// windows are the entry's on both sides once their site lists are equal
// (siteSource.shared), the same conditions make the rewritten sides equal
// at any two bases.
//
// The pass reads both sides once (windowDiff). A clean copy never touches
// a scratch buffer or MD5.
func (m *refMemo) covers(k int, c, r []byte, base, refBase uint32) bool {
	e := &m.sides[k]
	if e.starts == nil || len(c) != len(r) {
		return false
	}
	if diff, _ := windowDiff(*e.starts, c, r, 0, base, refBase); diff != 0 {
		return false
	}
	if m.filling {
		e.held = false
	}
	m.hits.Add(1)
	return true
}

// windowDiff compares c, bytes [at, at+len(c)) of a copy of a component,
// with r, the reference component's same bytes, under the window bitmap
// starts. The result is nonzero when a byte outside the windows differs,
// or when the two fields of a site in the range decode to different RVAs
// (copy loaded at base, reference at refBase). A site whose field runs
// past the range's end is left to the caller: tail is its offset in the
// component, -1 when there is none. Windows do not overlap, so only the
// last site can.
//
// Whole 64-byte steps go to windowSteps; the range's ragged ends, and a
// last step whose fields may run past it, go a byte at a time.
func windowDiff(starts, c, r []byte, at int, base, refBase uint32) (diff uint64, tail int) {
	le := binary.LittleEndian
	delta := base - refBase
	tail = -1
	end := at + len(c)
	j := at &^ 63
	for j < end {
		var prev uint64
		if j >= 64 {
			prev = le.Uint64(starts[(j-64)>>3:])
		}
		var st uint64
		if j >= at && j+64 <= end {
			n, d, last := windowSteps(starts[j>>3:], c[j-at:], r[j-at:], prev, delta)
			diff |= d
			j += n
			if last == 0 {
				continue
			}
			// The last step's fields may run past the range: its sites are
			// checked one by one below.
			j -= 64
			st = last
		} else {
			st = le.Uint64(starts[j>>3:])
			w := windowBits(st, prev)
			for i := max(j, at); i < min(j+64, end); i++ {
				diff |= uint64(c[i-at]^r[i-at]) &^ (w >> (i - j) & 1 * 0xFF)
			}
			// Only the sites that start in the range.
			if j < at {
				st &= ^uint64(0) << (at - j)
			}
			if end < j+64 {
				st &= 1<<(end-j) - 1
			}
		}
		for ; st != 0; st &= st - 1 {
			s := j + bits.TrailingZeros64(st)
			if s+4 > end {
				tail = s
				break
			}
			diff |= uint64(le.Uint32(c[s-at:]) - le.Uint32(r[s-at:]) - delta)
		}
		j += 64
	}
	return diff, tail
}

// windowBits returns the window bits of a 64-byte step whose start bits
// are st, prev being the previous step's: each start and the three bytes
// after it, the last three starts of the previous step reaching into this
// one.
func windowBits(st, prev uint64) uint64 {
	return st | st<<1 | st<<2 | st<<3 | prev>>61 | prev>>62 | prev>>63
}

// windowSteps is windowDiff's loop over whole 64-byte steps from the start
// of c and r, each step's start bits in the next word of starts, prev the
// start bits of the step before. It returns how many bytes its steps
// cover and their comparison. The bytes are compared word-wise without
// branching on the data; a site's fields hold the same RVA when the copy's
// field minus the reference's is the bases' difference, delta. A last step
// whose sites' fields may run past c leaves its sites to the caller: last
// is their start bits (0: none).
func windowSteps(starts, c, r []byte, prev uint64, delta uint32) (n int, diff, last uint64) {
	le := binary.LittleEndian
	// Four accumulators for the eight data words of a step.
	var d0, d1, d2, d3 uint64
	for len(c) >= 64 && len(r) >= 64 && len(starts) >= 8 {
		st := le.Uint64(starts)
		w := windowBits(st, prev)
		prev = st
		cw, rw := (*[64]byte)(c), (*[64]byte)(r)
		d0 |= (le.Uint64(cw[0:8]) ^ le.Uint64(rw[0:8])) &^ windowMask[byte(w)]
		d1 |= (le.Uint64(cw[8:16]) ^ le.Uint64(rw[8:16])) &^ windowMask[byte(w>>8)]
		d2 |= (le.Uint64(cw[16:24]) ^ le.Uint64(rw[16:24])) &^ windowMask[byte(w>>16)]
		d3 |= (le.Uint64(cw[24:32]) ^ le.Uint64(rw[24:32])) &^ windowMask[byte(w>>24)]
		d0 |= (le.Uint64(cw[32:40]) ^ le.Uint64(rw[32:40])) &^ windowMask[byte(w>>32)]
		d1 |= (le.Uint64(cw[40:48]) ^ le.Uint64(rw[40:48])) &^ windowMask[byte(w>>40)]
		d2 |= (le.Uint64(cw[48:56]) ^ le.Uint64(rw[48:56])) &^ windowMask[byte(w>>48)]
		d3 |= (le.Uint64(cw[56:64]) ^ le.Uint64(rw[56:64])) &^ windowMask[byte(w>>56)]
		n += 64
		if len(c) < 68 || len(r) < 68 {
			return n, d0 | d1 | d2 | d3, st
		}
		cf, rf := (*[68]byte)(c), (*[68]byte)(r)
		for ; st != 0; st &= st - 1 {
			p := bits.TrailingZeros64(st) & 63
			d0 |= uint64(le.Uint32(cf[p:p+4]) - le.Uint32(rf[p:p+4]) - delta)
		}
		c, r, starts = c[64:], r[64:], starts[8:]
	}
	return n, d0 | d1 | d2 | d3, 0
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

// key returns the cluster key of every copy the sealed memo covers, the
// reference ref included: the digest key digestAgainst gives a copy covered
// under windows, each normalized component's sides summed by its entry. A
// component without an entry covers no copy at another base; its part
// carries a zero sum, which no digest does. Copies at the reference's base
// that are its bytes take this key too, so it is the same for a run's
// covered copies at every base, and it changes with the windows, so a
// store entry made under other windows never joins their cluster.
func (m *refMemo) key(ref *ParsedModule) string {
	w := newKeyWriter()
	for k := range ref.Components {
		comp := &ref.Components[k]
		n := len(comp.Data)
		if !comp.Normalize {
			w.part(comp.Name, n, m.raw(k, comp.Data))
			continue
		}
		var sum [md5.Size]byte
		if m.sides[k].starts != nil {
			sum = m.sides[k].sum
		}
		w.part(comp.Name, n, sum)
		w.part("", n, sum)
	}
	return w.key()
}

// standIn returns the copy every copy the sealed memo covers carries when
// it is loaded at base: the reference's bytes, read with each entry
// window's field moved by the bases' difference (side.move), which is
// covers' conditions read backwards. It keeps no bytes of its own, and
// carries a covered copy's digest facts against ref.
func (m *refMemo) standIn(ref *fetched, base uint32) *fetched {
	in := &struct {
		f    fetched
		info ModuleInfo
	}{fetched{name: ref.name, parsed: ref.parsed, moved: m,
		against: ref, refMatch: ^uint64(0), refCovered: ^uint64(0), covered: true}, *ref.info}
	in.info.Base = base
	in.f.info = &in.info
	return &in.f
}

// apart reports whether Algorithm 2 provably leaves copy side y unequal to
// the covered copy at base on reference component k, r being the
// reference's side, without reading the covered copy's bytes. Algorithm 2
// only makes a differing byte equal by rewriting a 4-byte field over it
// whose two sides decode to the same RVA. Some byte of y outside the
// entry's windows differs from r, and so from the covered copy, and no
// field over it can pass that check: read as it is, or with its low bytes
// set equal on both sides by an earlier rewrite that reached into it. A
// pair at equal bases is compared raw, and y, not covered, is not the
// covered copy there.
func (m *refMemo) apart(k int, y, r side, base uint32) bool {
	e := m.sides[k].starts
	switch {
	case len(y.data) != len(r.data):
		return true
	case e == nil:
		return false
	case y.base == base:
		return true
	}
	starts, yd, rd := *e, y.data, r.data
	le := binary.LittleEndian
	window := func(p int) int { // the window over byte p, -1: none
		for w := p; w >= max(p-3, 0); w-- {
			if starts[w>>3]>>(w&7)&1 != 0 {
				return w
			}
		}
		return -1
	}
	// field returns the covered copy's field at s: r's bytes, each window's
	// moved by the bases' difference.
	field := func(s int) uint32 {
		var b [4]byte
		for t := range b {
			b[t] = rd[s+t]
			if w := window(s + t); w >= 0 {
				b[t] = byte((le.Uint32(rd[w:]) + base - r.base) >> (8 * (s + t - w)))
			}
		}
		return le.Uint32(b[:])
	}
	d := y.base - base
	for p, n := 0, len(yd); p < n; p++ {
		if p+8 <= n {
			if x := le.Uint64(yd[p:]) ^ le.Uint64(rd[p:]); x == 0 {
				p += 7
				continue
			} else {
				p += bits.TrailingZeros64(x) >> 3
			}
		}
		if yd[p] == rd[p] || window(p) >= 0 {
			continue
		}
		rewritable := false
		for s := max(p-3, 0); s <= p && s+4 <= n && !rewritable; s++ {
			a, b := le.Uint32(yd[s:]), field(s)
			// An earlier rewrite sets the field's low q bytes equal on both
			// sides; the check then holds when the rest differs by d.
			for q := 0; q < 4 && !rewritable; q++ {
				rewritable = d&(1<<(8*q)-1) == 0 && (a>>(8*q)-b>>(8*q)-d>>(8*q))<<(8*q) == 0
			}
		}
		if !rewritable {
			return true
		}
	}
	return false
}

// keep offers the window bitmap a miss recorded on component k, with the
// MD5 of the normalized reference side, as the component's entry, and
// reports whether the memo took it. Only a head digest sets an entry, the
// first whose windows were disjoint and whose sides came out equal (ok);
// it replaces a kept entry. Every bitmap the memo does not take goes
// back to its pool.
//
//modown:transfer windows
func (m *refMemo) keep(k int, starts *[]byte, sum [md5.Size]byte, ok bool) bool {
	e := &m.sides[k]
	if !m.filling || !ok || e.starts != nil && !e.held {
		putWindows(starts)
		return false
	}
	if e.starts != nil {
		putWindows(e.starts)
	}
	e.starts, e.sum, e.held = starts, sum, false
	return true
}

// This part of the file checks a copy of the module in place: the
// Searcher hands each guest page to a pageCheck, which compares it with
// the reference's bytes at the same module offset, so a clean copy is
// proved covered without a copy, a parse or a digest pass of its own.

// span is one byte range of the reference image an in-place check
// compares: a section's data under its memo entry's windows (k, the
// component), or, with k < 0, bytes that must equal the reference's.
type span struct {
	lo, hi int
	k      int
}

// inPlace is what every in-place check of one run shares: the reference
// fetch, the spans of its image that the digest reads, and the sealed
// memo. A copy whose every span passes (pageCheck.covered) is one
// digestAgainst would find covered in every component, so it takes the
// covered key. Its header bytes are the reference's, so it parses to the
// reference's layout, its own sites are the reference's, and its charges
// follow from that layout and the memo alone.
type inPlace struct {
	ref   *fetched
	memo  *refMemo
	spans []span // in module order, disjoint
	// windowed: every normalized component has a memo entry, so a copy
	// compared under windows can be covered.
	windowed bool
	cost     time.Duration // nominal digest charge of a covered copy
	hits     int64         // window-check hits of a covered copy compared under windows
}

// newInPlace returns the run's in-place check against reference ref under
// the sealed memo, or nil when the reference's layout does not allow one:
// section data that overlaps the headers or another section's, or own
// sites read from bytes the check does not compare raw.
func newInPlace(ref *fetched, memo *refMemo) *inPlace {
	comps := ref.parsed.Components
	ip := &inPlace{ref: ref, memo: memo, windowed: true}
	// The header components tile the image's prefix [0, end of the
	// section table): one span compared byte for byte.
	hdr := span{k: -1}
	secs := make([]span, 0, len(comps))
	for k := range comps {
		comp := &comps[k]
		n := len(comp.Data)
		if comp.Normalize {
			ip.cost += memo.src.pairWork(2*n, true)
			ip.hits++
			ip.windowed = ip.windowed && memo.sides[k].starts != nil
		} else {
			ip.cost += memo.src.pairWork(n, false)
		}
		switch {
		case comp.Kind != KindSectionData:
			hdr.hi += n
		case n > 0:
			sp := span{lo: int(comp.VirtualAddress), hi: int(comp.VirtualAddress) + n, k: k}
			if !comp.Normalize {
				sp.k = -1
			}
			secs = append(secs, sp)
		}
	}
	slices.SortStableFunc(secs, func(a, b span) int { return a.lo - b.lo })
	ip.spans = append(make([]span, 0, 1+len(secs)), hdr)
	for _, sp := range secs {
		if sp.lo < ip.spans[len(ip.spans)-1].hi {
			return nil
		}
		ip.spans = append(ip.spans, sp)
	}
	if lo, hi := memo.src.dir(ref.parsed.Raw); lo < hi && !ip.comparesRaw(lo, hi) {
		return nil
	}
	return ip
}

// comparesRaw reports whether every covered copy equals the reference in
// bytes [lo, hi) of the image: they lie in one span, and no memo window
// reaches into them.
func (ip *inPlace) comparesRaw(lo, hi int) bool {
	for _, sp := range ip.spans {
		if sp.lo > lo || hi > sp.hi {
			continue
		}
		if sp.k < 0 || ip.memo.sides[sp.k].starts == nil {
			return true
		}
		starts := *ip.memo.sides[sp.k].starts
		for i := max(lo-sp.lo-3, 0); i < hi-sp.lo; i++ {
			if starts[i>>3]>>(i&7)&1 != 0 {
				return false
			}
		}
		return true
	}
	return false
}

// exactAt reports whether a copy loaded at base is compared with the
// reference byte for byte (see siteSource.raw).
func (ip *inPlace) exactAt(base uint32) bool { return ip.memo.src.raw(base, ip.ref.info.Base) }

// digest returns a covered copy's nominal charge, and counts the
// window-check hits digestAgainst would have counted for it.
func (ip *inPlace) digest(base uint32) time.Duration {
	if !ip.exactAt(base) {
		ip.memo.hits.Add(ip.hits)
	}
	return ip.cost
}

// pageCheck is one copy's in-place check: a vmi.PageVisitor fed the
// copy's guest pages in module order. It compares every span, under the
// memo's windows unless the copy is compared raw (exactAt), and holds
// a site's field that a page boundary splits until the next page
// completes it.
type pageCheck struct {
	*inPlace
	base  uint32
	exact bool // spans compare byte for byte (inPlace.exactAt)
	next  int  // the first span not yet fully compared
	diff  uint64
	// tried: start found the check applies to the copy, so a copy it does
	// not cover falls back because the copy differs from the reference.
	tried bool
	// A site whose field continues on the next page: the field's bytes so
	// far (fieldN of them; none when 0) and its module offset.
	field   [4]byte
	fieldN  int
	fieldAt int
}

// check returns a fresh check of one copy.
func (ip *inPlace) check() *pageCheck { return &pageCheck{inPlace: ip} }

// start readies the check for a walk of the copy info describes and
// reports whether the copy can be checked in place at all: compared under
// windows, every normalized component needs a memo entry, and the copy's
// size must be the reference's (a copy of another size differs from it).
func (c *pageCheck) start(info *ModuleInfo) bool {
	c.base = info.Base
	c.exact = c.exactAt(info.Base)
	c.next, c.diff, c.fieldN = 0, 0, 0
	c.tried = c.exact || c.windowed
	return c.tried && int(info.SizeOfImage) == len(c.ref.parsed.Raw)
}

// fellBack reports whether the check applied to the copy and did not cover
// it: a copy whose header, size or page differs from the reference's.
func (c *pageCheck) fellBack() bool {
	return c != nil && c.tried && !c.covered()
}

// Wants implements vmi.PageVisitor: a page holding no span's bytes (a
// writable section, a gap, slack after the headers) is never read.
func (c *pageCheck) Wants(off, n int) bool {
	return c.next < len(c.spans) && c.spans[c.next].lo < off+n
}

// Visit implements vmi.PageVisitor: it compares the page with the
// reference and ends the walk at the first difference.
func (c *pageCheck) Visit(off int, page []byte) bool {
	raw := c.ref.parsed.Raw
	refBase := c.ref.info.Base
	if c.fieldN > 0 {
		n := copy(c.field[c.fieldN:], page)
		c.fieldN += n
		if c.fieldN == len(c.field) {
			c.diff |= uint64((binary.LittleEndian.Uint32(c.field[:]) - c.base) ^
				(binary.LittleEndian.Uint32(raw[c.fieldAt:]) - refBase))
			c.fieldN = 0
		}
	}
	end := off + len(page)
	for ; c.next < len(c.spans); c.next++ {
		sp := c.spans[c.next]
		if sp.lo >= end {
			break
		}
		lo, hi := max(sp.lo, off), min(sp.hi, end)
		if c.exact || sp.k < 0 {
			if !bytes.Equal(page[lo-off:hi-off], raw[lo:hi]) {
				c.diff |= 1
			}
		} else {
			d, tail := windowDiff(*c.memo.sides[sp.k].starts, page[lo-off:hi-off], raw[lo:hi], lo-sp.lo, c.base, refBase)
			c.diff |= d
			if tail >= 0 {
				c.fieldAt = sp.lo + tail
				c.fieldN = copy(c.field[:], page[c.fieldAt-off:])
			}
		}
		if sp.hi > end {
			break
		}
	}
	return c.diff == 0
}

// covered reports whether the walk compared every span and found the copy
// covered.
func (c *pageCheck) covered() bool {
	return c.diff == 0 && c.next == len(c.spans) && c.fieldN == 0
}
