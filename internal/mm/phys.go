// Package mm implements the memory substrate of a simulated 32-bit guest:
// sparse guest-physical memory and x86 two-level page tables
// (directory + table, 4 KiB pages).
//
// Both the guest kernel (internal/guest) and the introspection library
// (internal/vmi) operate on this substrate. The guest maps and writes
// through an AddressSpace; VMI performs its own independent page-table walk
// over raw physical reads (WalkPageTables), exactly as libVMI walks a real
// guest's tables from Dom0.
package mm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the x86 4 KiB page size; PageShift its log2.
const (
	PageSize  = 4096
	PageShift = 12
)

// Errors returned by the memory substrate.
var (
	// ErrOutOfMemory indicates the physical frame pool is exhausted.
	ErrOutOfMemory = errors.New("mm: out of physical memory")
	// ErrUnmapped indicates a virtual address with no valid translation.
	ErrUnmapped = errors.New("mm: address not mapped")
	// ErrBadAddress indicates a physical access beyond the memory size.
	ErrBadAddress = errors.New("mm: physical address out of range")
)

// PhysReader is the read-only view of guest-physical memory that the
// introspection layer uses. Implemented by *PhysMemory.
type PhysReader interface {
	// ReadPhys copies len(b) bytes starting at physical address pa. Reads
	// may cross page boundaries; unallocated frames read as zeros.
	ReadPhys(pa uint32, b []byte) error
}

// baseLayer is a frozen, immutable memory image shared by every fork taken
// from it. Frames in a base layer are never written after the freeze — any
// write to a shared frame copies it into the writer's private overlay first
// — so one layer can back an arbitrary number of clones, and its content
// fingerprint doubles as a content-identity token (see ContentID).
type baseLayer struct {
	frames map[uint32][]byte // PFN -> 4 KiB frame; immutable after freeze
	refs   atomic.Int64      // memories referencing this layer (informational)
	fpOnce sync.Once
	fp     uint64 // memoized content fingerprint; see fingerprint()
}

// fingerprint digests the layer's frame table — PFN, presence, and contents
// in PFN order — into a process-stable 64-bit content identity. Equal
// fingerprints name bit-identical images, also across runs: the simulation is seed-deterministic, so the same
// cloud built in another process freezes byte-identical layers and derives
// the same fingerprints. Memoized; layers are immutable after the freeze.
func (b *baseLayer) fingerprint() uint64 {
	b.fpOnce.Do(func() {
		pfns := make([]uint32, 0, len(b.frames))
		for pfn := range b.frames {
			pfns = append(pfns, pfn)
		}
		sort.Slice(pfns, func(i, j int) bool { return pfns[i] < pfns[j] })
		h := sha256.New()
		var word [8]byte
		for _, pfn := range pfns {
			frame := b.frames[pfn]
			binary.BigEndian.PutUint32(word[:4], pfn)
			binary.BigEndian.PutUint32(word[4:], uint32(len(frame))) // 0: tombstone
			h.Write(word[:])
			h.Write(frame)
		}
		b.fp = binary.BigEndian.Uint64(h.Sum(nil))
	})
	return b.fp
}

// PhysMemory is sparse guest-physical memory: frames are allocated on
// demand from a fixed-size pool. The frame allocator hands out page frame
// numbers in a deterministic pseudo-random permutation so that contiguous
// virtual mappings land on scattered physical frames — the reason the
// paper's Module-Searcher must copy modules page by page rather than with
// one large read.
//
// A memory is a private overlay over an optional shared base layer. A
// freshly booted guest has no base: every frame lives in the overlay. Fork
// freezes the current image into an immutable base shared by parent and
// child, after which each side's memory cost is O(frames it dirties) — the
// copy-on-write sharing that makes fleet-scale clone pools affordable.
type PhysMemory struct {
	numFrames uint32        // immutable after construction
	cowFaults atomic.Uint64 // shared frames copied on first write

	mu sync.RWMutex
	// base is the shared frozen image this memory forked from (nil for a
	// never-forked memory). Swapped only under mu; the layer itself is
	// immutable.
	base *baseLayer
	// dirty is the private overlay: frames allocated or copied-on-write
	// since the last freeze. A nil value is a tombstone hiding a freed
	// base frame.
	dirty map[uint32][]byte
	// Free-frame bookkeeping. baseFree is the permuted allocation order;
	// its contents are immutable and shared across forks, with freeTop
	// marking this memory's private position in it (frames are popped
	// from the top downwards). returned holds frames freed since the last
	// freeze (re-allocated LIFO, before baseFree). stolen marks frames
	// below freeTop claimed out of order by implicit WritePhys allocation,
	// which the allocator must skip.
	baseFree []uint32
	freeTop  int
	returned []uint32
	stolen   map[uint32]struct{}
	// inUse counts allocated frames (base plus overlay, minus tombstones).
	inUse int
}

// NewPhysMemory creates a guest-physical memory of size bytes (rounded down
// to whole pages). The allocation order is derived from seed; clones built
// with the same seed allocate identically, while different seeds model the
// independently-evolved physical layouts of separate VMs.
func NewPhysMemory(size uint64, seed int64) *PhysMemory {
	n := uint32(size / PageSize)
	if n == 0 {
		n = 1
	}
	m := &PhysMemory{
		dirty:     make(map[uint32][]byte),
		numFrames: n,
	}
	// PFN 0 is reserved (null-page guard), like real kernels leave the
	// first physical page alone.
	order := make([]uint32, 0, n-1)
	for pfn := uint32(1); pfn < n; pfn++ {
		order = append(order, pfn)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	m.baseFree = order
	m.freeTop = len(order)
	return m
}

// Size returns the physical memory size in bytes.
func (m *PhysMemory) Size() uint64 { return uint64(m.numFrames) * PageSize }

// FramesInUse returns how many frames are currently allocated.
func (m *PhysMemory) FramesInUse() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.inUse
}

// popFreeLocked pops the next free PFN: most recently freed frames first
// (LIFO), then the shared permuted order from the top down, skipping frames
// stolen by implicit WritePhys allocation.
func (m *PhysMemory) popFreeLocked() (uint32, bool) {
	if n := len(m.returned); n > 0 {
		pfn := m.returned[n-1]
		m.returned = m.returned[:n-1]
		return pfn, true
	}
	for m.freeTop > 0 {
		pfn := m.baseFree[m.freeTop-1]
		m.freeTop--
		if _, ok := m.stolen[pfn]; ok {
			delete(m.stolen, pfn)
			continue
		}
		return pfn, true
	}
	return 0, false
}

// unfreeLocked removes a PFN from the free set after it was claimed out of
// order (implicit WritePhys allocation). Frames in the shared permuted
// order cannot be removed in place — forks share that slice — so they are
// marked stolen and skipped when the allocator reaches them.
func (m *PhysMemory) unfreeLocked(pfn uint32) {
	for i := len(m.returned) - 1; i >= 0; i-- {
		if m.returned[i] == pfn {
			m.returned = append(m.returned[:i], m.returned[i+1:]...)
			return
		}
	}
	if m.stolen == nil {
		m.stolen = make(map[uint32]struct{})
	}
	m.stolen[pfn] = struct{}{}
}

// AllocFrame reserves a physical frame and returns its PFN. The frame
// contents start zeroed.
func (m *PhysMemory) AllocFrame() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pfn, ok := m.popFreeLocked()
	if !ok {
		return 0, ErrOutOfMemory
	}
	m.dirty[pfn] = make([]byte, PageSize)
	m.inUse++
	return pfn, nil
}

// FreeFrame returns a frame to the pool. Freeing an unallocated frame is an
// error.
func (m *PhysMemory) FreeFrame(pfn uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, inDirty := m.dirty[pfn]
	switch {
	case inDirty && f != nil:
		if m.base != nil {
			if _, shared := m.base.frames[pfn]; shared {
				// The base still holds an old image of this frame; leave a
				// tombstone so reads see a free (zero) frame, not stale data.
				m.dirty[pfn] = nil
				break
			}
		}
		delete(m.dirty, pfn)
	case inDirty:
		// Tombstone: already freed.
		return fmt.Errorf("mm: free of unallocated frame %#x", pfn)
	default:
		if m.base != nil {
			if _, shared := m.base.frames[pfn]; shared {
				m.dirty[pfn] = nil
				break
			}
		}
		return fmt.Errorf("mm: free of unallocated frame %#x", pfn)
	}
	m.inUse--
	m.returned = append(m.returned, pfn)
	return nil
}

// frameLocked returns the current contents of a frame, consulting the
// private overlay before the shared base. A nil result reads as zeros
// (never-allocated, or tombstoned after a post-fork free).
func (m *PhysMemory) frameLocked(pfn uint32) []byte {
	if f, ok := m.dirty[pfn]; ok {
		return f
	}
	if m.base != nil {
		return m.base.frames[pfn]
	}
	return nil
}

// ReadPhys implements PhysReader. Unallocated frames within range read as
// zeros (matching how a hypervisor exposes never-touched RAM).
//
//modsafe:spends raw physical read
func (m *PhysMemory) ReadPhys(pa uint32, b []byte) error {
	if uint64(pa)+uint64(len(b)) > m.Size() {
		return fmt.Errorf("%w: read [%#x,%#x)", ErrBadAddress, pa, uint64(pa)+uint64(len(b)))
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for len(b) > 0 {
		pfn := pa >> PageShift
		off := pa & (PageSize - 1)
		n := PageSize - off
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		if frame := m.frameLocked(pfn); frame != nil {
			copy(b[:n], frame[off:off+n])
		} else {
			for i := uint32(0); i < n; i++ {
				b[i] = 0
			}
		}
		b = b[n:]
		pa += n
	}
	return nil
}

// writableFrameLocked returns a frame this memory may mutate, materializing
// it in the private overlay first if necessary: a copy-on-write duplicate
// of a shared base frame, a fresh zero frame for a tombstone, or an
// implicit allocation for a never-touched frame.
func (m *PhysMemory) writableFrameLocked(pfn uint32) []byte {
	if f, ok := m.dirty[pfn]; ok {
		if f != nil {
			return f
		}
		// Tombstone: the frame was freed after the last fork; writing
		// re-allocates it (zeroed) out of the free set.
		nf := make([]byte, PageSize)
		m.dirty[pfn] = nf
		m.unfreeLocked(pfn)
		m.inUse++
		return nf
	}
	if m.base != nil {
		if bf, ok := m.base.frames[pfn]; ok {
			// CoW fault: first write to a frame shared with the base image.
			nf := append(make([]byte, 0, PageSize), bf...)
			m.dirty[pfn] = nf
			m.cowFaults.Add(1)
			return nf
		}
	}
	nf := make([]byte, PageSize)
	m.dirty[pfn] = nf
	m.unfreeLocked(pfn)
	m.inUse++
	return nf
}

// WritePhys copies b into physical memory starting at pa. Writing to an
// unallocated frame allocates it implicitly (the frame is then owned by the
// writer — used only by the kernel through AddressSpace, never by VMI).
func (m *PhysMemory) WritePhys(pa uint32, b []byte) error {
	if uint64(pa)+uint64(len(b)) > m.Size() {
		return fmt.Errorf("%w: write [%#x,%#x)", ErrBadAddress, pa, uint64(pa)+uint64(len(b)))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(b) > 0 {
		pfn := pa >> PageShift
		off := pa & (PageSize - 1)
		n := PageSize - off
		if int(n) > len(b) {
			n = uint32(len(b))
		}
		frame := m.writableFrameLocked(pfn)
		copy(frame[off:off+n], b[:n])
		b = b[n:]
		pa += n
	}
	return nil
}

// freezeLocked seals the current memory image into a new immutable base
// layer: the effective frame table (base overlaid with dirty) becomes the
// shared image, the overlay empties, and the free order is re-materialized
// with the same pop sequence the live bookkeeping would have produced.
// Frame slices are shared into the new layer without copying — safe because
// every later write lands in an overlay, never in a frozen layer.
func (m *PhysMemory) freezeLocked() {
	frames := m.dirty
	if m.base != nil {
		frames = make(map[uint32][]byte, len(m.base.frames)+len(m.dirty))
		for pfn, f := range m.base.frames {
			frames[pfn] = f
		}
		for pfn, f := range m.dirty {
			if f == nil {
				delete(frames, pfn)
			} else {
				frames[pfn] = f
			}
		}
	}
	free := make([]uint32, 0, m.freeTop+len(m.returned))
	for _, pfn := range m.baseFree[:m.freeTop] {
		if _, ok := m.stolen[pfn]; !ok {
			free = append(free, pfn)
		}
	}
	free = append(free, m.returned...)
	nb := &baseLayer{frames: frames}
	nb.refs.Store(1)
	if m.base != nil {
		m.base.refs.Add(-1)
	}
	m.base = nb
	m.dirty = make(map[uint32][]byte)
	m.baseFree = free
	m.freeTop = len(free)
	m.returned = nil
	m.stolen = nil
}

// Fork returns a copy-on-write clone of the memory. The current image is
// frozen into a base layer shared by both sides (a no-op when the memory is
// an unmodified fork already), so the clone costs O(1) frames up front and
// each side pays only for the frames it subsequently dirties. Forking and
// the clone are safe for concurrent use like any other PhysMemory.
func (m *PhysMemory) Fork() *PhysMemory {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base == nil || len(m.dirty) > 0 {
		m.freezeLocked()
	}
	m.base.refs.Add(1)
	out := &PhysMemory{
		numFrames: m.numFrames,
		base:      m.base,
		dirty:     make(map[uint32][]byte),
		baseFree:  m.baseFree,
		freeTop:   m.freeTop,
		returned:  append([]uint32(nil), m.returned...),
		inUse:     m.inUse,
	}
	if len(m.stolen) > 0 {
		out.stolen = make(map[uint32]struct{}, len(m.stolen))
		for pfn := range m.stolen {
			out.stolen[pfn] = struct{}{}
		}
	}
	return out
}

// Seal freezes the current memory image into an immutable base layer in
// place — Fork without the clone. After Seal the memory reports a valid
// ContentID until its next write, which is what lets independently booted
// guests (no CoW fleet) advertise the content-identity tokens the digest
// cache keys on. Sealing an unmodified fork is a no-op; sealing after
// writes mints a fresh layer (and therefore a fresh identity, since the
// content changed).
func (m *PhysMemory) Seal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base == nil || len(m.dirty) > 0 {
		m.freezeLocked()
	}
}

// ContentID reports a process-stable identity for the frozen image this
// memory is an unmodified fork of: a fingerprint derived from the base
// layer's frame contents rather than from an allocation counter. Two
// memories returning the same id are bit-for-bit identical, which Dom0 can
// establish from its frame table alone — the content-identity token fleet
// sweeps use to deduplicate introspection across clean clones. Equal
// ContentIDs mean equal bytes across independently built clouds too, which
// is what lets a persistent digest store survive a reopen. The fingerprint is
// computed lazily on first request and memoized on the (immutable) base
// layer, so CoW siblings share one computation. ok is false when the
// memory has never been frozen or has dirtied frames since.
func (m *PhysMemory) ContentID() (id uint64, ok bool) {
	m.mu.RLock()
	base, dirty := m.base, len(m.dirty)
	m.mu.RUnlock()
	if base == nil || dirty != 0 {
		return 0, false
	}
	return base.fingerprint(), true
}

// CowFaults returns how many shared frames this memory has copied on first
// write since it was created.
func (m *PhysMemory) CowFaults() uint64 { return m.cowFaults.Load() }

// SharedFrames returns how many frames are backed by the shared base layer
// and not overridden privately (the fleet-wide deduplicated frames).
func (m *PhysMemory) SharedFrames() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.base == nil {
		return 0
	}
	n := len(m.base.frames)
	for pfn := range m.dirty {
		if _, ok := m.base.frames[pfn]; ok {
			n--
		}
	}
	return n
}

// PrivateFrames returns how many frames live in this memory's private
// overlay (allocated, implicitly written, or copied-on-write since the
// last freeze).
func (m *PhysMemory) PrivateFrames() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, f := range m.dirty {
		if f != nil {
			n++
		}
	}
	return n
}

// BaseRefs returns how many memories share this memory's base layer
// (including itself), or zero for a never-forked memory.
func (m *PhysMemory) BaseRefs() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.base == nil {
		return 0
	}
	return m.base.refs.Load()
}
