// Package vmi is the reproduction's libVMI: virtual machine introspection
// primitives that let a privileged domain read another VM's memory without
// any cooperation from the guest.
//
// A Handle is opened per target VM with the guest's physical memory, its
// CR3 and an OS Profile (symbol map). Virtual reads perform a genuine
// external page-table walk per page touched — introspection never consults
// guest-side software state, only the raw bytes the hypervisor exposes.
// Handles are strictly read-only, matching ModChecker's design (paper
// Section III-B: "through introspection it performs read-only operations
// of the memory of guest VMs").
//
// Every operation can be charged to a cost model (WithCharge), which the
// cloud facade wires to the hypervisor's contention-aware clock. The
// default per-page cost reflects libVMI's behavior the paper calls out:
// copying a module requires "an iterative access of the memory until the
// whole module is copied", making Module-Searcher the dominant component.
package vmi

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/metrics"
	"modchecker/internal/mm"
	"modchecker/internal/nt"
)

// Nominal costs of introspection primitives, before contention stretching.
// Magnitudes are calibrated to libVMI-era measurements: mapping and copying
// one guest page from Dom0 costs tens of microseconds, a software page-table
// walk a few.
const (
	CostPageRead = 25 * time.Microsecond
	CostPTWalk   = 3 * time.Microsecond
	// CostTLBHit is the cost of serving a translation from the handle's
	// software TLB instead of re-walking the guest page tables: a map
	// lookup in Dom0, an order of magnitude cheaper than the walk.
	CostTLBHit = 300 * time.Nanosecond
	// CostMapSetup is the one-time cost of establishing a bulk mapping of
	// a guest region (the ablation alternative to page-wise copying).
	CostMapSetup = 120 * time.Microsecond
	// CostMappedPage is the per-page cost once a bulk mapping exists.
	CostMappedPage = 6 * time.Microsecond
)

// ErrSymbol is returned for unknown profile symbols.
var ErrSymbol = errors.New("vmi: unknown symbol")

// ErrTornRead is returned by ReadVAConsistent when the guest kept mutating
// the range faster than the verify loop could confirm a stable copy. The
// condition clears once the guest's write burst ends, so it is classified
// transient: callers retry with backoff rather than flagging the VM.
var ErrTornRead = faults.Transient("vmi: torn read (guest mutated range during copy)")

// shadowPool recycles the verify-pass shadow buffers of ReadVAConsistent:
// every verified module copy otherwise allocates a second module-sized
// buffer just to compare passes against.
var shadowPool = sync.Pool{New: func() any { return new([]byte) }}

// getShadow returns a pooled shadow buffer of length n.
//
//modown:pool shadow get
func getShadow(n int) *[]byte {
	sp := shadowPool.Get().(*[]byte)
	if cap(*sp) < n {
		*sp = make([]byte, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// putShadow returns a shadow buffer to the pool. Under -tags modpoison the
// bytes are scribbled first, so any reference kept across the put reads
// garbage instead of stale verify-pass data.
//
//modown:pool shadow put
func putShadow(sp *[]byte) {
	poisonBuf((*sp)[:cap(*sp)])
	shadowPool.Put(sp)
}

// Profile carries what libVMI reads from its OS config: which operating
// system the guest runs and where its exported globals live. All VMs cloned
// from one installation share a profile.
type Profile struct {
	OSName  string
	Symbols map[string]uint32
}

// XPSP2Profile returns the profile for the simulated 32-bit Windows XP SP2
// guests built by internal/guest.
func XPSP2Profile(psLoadedModuleList uint32) Profile {
	return Profile{
		OSName: "WinXPSP2x86",
		Symbols: map[string]uint32{
			"PsLoadedModuleList": psLoadedModuleList,
		},
	}
}

// Stats counts the introspection work a handle has performed. The counters
// are exact per strategy: PTWalks counts genuine external page-table walks
// (TLB misses once a translation cache is active), TLBHits counts
// translations served from the cache, and PagesMapped is the subset of
// PagesRead copied under a bulk mapping — so a stats delta converts to
// nominal cost without approximating which strategy a window used.
type Stats struct {
	PTWalks     uint64
	TLBHits     uint64
	PagesRead   uint64
	PagesMapped uint64
	BytesRead   uint64
	MapSetups   uint64
}

// SharedStats is a concurrency-safe aggregation sink: every handle opened
// with WithSharedStats adds its work to it, giving a pool-wide view (the
// cloud facade keeps one per testbed so benchmarks can report PTWalks and
// TLB hit rates across all VMs of a sweep). The counters are
// metrics.Counter values so the same figures publish through a
// metrics.Registry via Bind without double-counting.
type SharedStats struct {
	ptWalks     metrics.Counter
	tlbHits     metrics.Counter
	pagesRead   metrics.Counter
	pagesMapped metrics.Counter
	bytesRead   metrics.Counter
	mapSetups   metrics.Counter
}

// Snapshot returns the current aggregate counters.
func (s *SharedStats) Snapshot() Stats {
	return Stats{
		PTWalks:     s.ptWalks.Load(),
		TLBHits:     s.tlbHits.Load(),
		PagesRead:   s.pagesRead.Load(),
		PagesMapped: s.pagesMapped.Load(),
		BytesRead:   s.bytesRead.Load(),
		MapSetups:   s.mapSetups.Load(),
	}
}

// Bind publishes the aggregate counters through the registry as
// read-on-snapshot sources under the vmi/ prefix. The handles keep
// incrementing the same counters; the registry reads them at export time.
func (s *SharedStats) Bind(r *metrics.Registry) {
	r.RegisterFunc("vmi/pt_walks", s.ptWalks.Load)
	r.RegisterFunc("vmi/tlb_hits", s.tlbHits.Load)
	r.RegisterFunc("vmi/pages_read", s.pagesRead.Load)
	r.RegisterFunc("vmi/pages_mapped", s.pagesMapped.Load)
	r.RegisterFunc("vmi/bytes_read", s.bytesRead.Load)
	r.RegisterFunc("vmi/map_setups", s.mapSetups.Load)
}

// Handle is one introspection session on one VM.
type Handle struct {
	vmName  string
	mem     mm.PhysReader
	cr3     uint32
	profile Profile
	charge  func(time.Duration)
	shared  *SharedStats
	epoch   func() uint64 // mapping-epoch source; nil = never invalidated
	noTLB   bool

	ptWalks     metrics.Counter
	tlbHits     metrics.Counter
	pagesRead   metrics.Counter
	pagesMapped metrics.Counter
	bytesRead   metrics.Counter
	mapSetups   metrics.Counter

	tlbMu  sync.Mutex
	tlb    map[uint32]uint32 // guarded by tlbMu; VPN -> PFN, the software TLB
	tlbGen uint64            // guarded by tlbMu; epoch value the TLB was filled under
}

// Option configures a Handle.
type Option func(*Handle)

// WithCharge installs a cost hook invoked with the nominal duration of each
// introspection primitive. The cloud facade points this at
// Hypervisor.ChargeDom0 so contention stretches the simulated runtime.
func WithCharge(f func(time.Duration)) Option {
	return func(h *Handle) { h.charge = f }
}

// WithSharedStats makes the handle also add its work counters to the given
// aggregation sink, in addition to its own per-handle stats.
func WithSharedStats(s *SharedStats) Option {
	return func(h *Handle) { h.shared = s }
}

// WithInvalidation installs a mapping-epoch source: whenever the returned
// value differs from the one the TLB was filled under, the cache is flushed
// before the next lookup. The cloud facade wires this to the domain's
// epoch, which the hypervisor bumps on snapshot revert and on fault-plan
// lifecycle events — the points where cached translations can go stale.
func WithInvalidation(epoch func() uint64) Option {
	return func(h *Handle) { h.epoch = epoch }
}

// WithoutTranslationCache disables the software TLB: every translation
// pays a full external page-table walk, the pre-cache (paper-faithful)
// behavior. Used by the legacy benchmark baseline.
func WithoutTranslationCache() Option {
	return func(h *Handle) { h.noTLB = true }
}

// Open creates a handle on a VM given the hypervisor-exposed physical
// memory, the vCPU's CR3 and the OS profile.
func Open(vmName string, mem mm.PhysReader, cr3 uint32, profile Profile, opts ...Option) *Handle {
	h := &Handle{vmName: vmName, mem: mem, cr3: cr3, profile: profile}
	for _, o := range opts {
		o(h)
	}
	return h
}

// VMName returns the name of the introspected VM.
func (h *Handle) VMName() string { return h.vmName }

// Stats returns a snapshot of the handle's work counters.
func (h *Handle) Stats() Stats {
	return Stats{
		PTWalks:     h.ptWalks.Load(),
		TLBHits:     h.tlbHits.Load(),
		PagesRead:   h.pagesRead.Load(),
		PagesMapped: h.pagesMapped.Load(),
		BytesRead:   h.bytesRead.Load(),
		MapSetups:   h.mapSetups.Load(),
	}
}

// pay forwards simulated introspection cost to the handle's charge hook
// (WithCharge); handles opened without one simply drop the cost.
//
//modsafe:charges forwards cost to the simulated clock via WithCharge
func (h *Handle) pay(d time.Duration) {
	if h.charge != nil {
		h.charge(d)
	}
}

// SymbolVA resolves a profile symbol to its guest VA.
func (h *Handle) SymbolVA(name string) (uint32, error) {
	va, ok := h.profile.Symbols[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrSymbol, name)
	}
	return va, nil
}

// Translate resolves va to a guest-physical address. Translations are
// served from a per-handle page-granular software TLB when possible (a
// cheap Dom0 map lookup, charged at CostTLBHit); a miss performs the full
// external page-table walk (CostPTWalk) and caches the page mapping. The
// cache is flushed whenever the handle's mapping epoch changes — snapshot
// reverts and fault-plan lifecycle events bump it — so stale translations
// never survive a guest-state rollback.
//
//modsafe:spends page-table walk or TLB fill
func (h *Handle) Translate(va uint32) (uint32, error) {
	if pfn, ok := h.tlbLookup(va); ok {
		h.tlbHits.Add(1)
		if h.shared != nil {
			h.shared.tlbHits.Add(1)
		}
		h.pay(CostTLBHit)
		return pfn<<mm.PageShift | va&(mm.PageSize-1), nil
	}
	h.ptWalks.Add(1)
	if h.shared != nil {
		h.shared.ptWalks.Add(1)
	}
	h.pay(CostPTWalk)
	pa, err := mm.WalkPageTables(h.mem, h.cr3, va)
	if err == nil {
		h.tlbInsert(va, pa)
	}
	return pa, err
}

// InvalidateTranslations drops every cached translation. Reads after the
// call pay full page-table walks again until the cache re-warms.
func (h *Handle) InvalidateTranslations() {
	h.tlbMu.Lock()
	defer h.tlbMu.Unlock()
	h.tlb = nil
}

// tlbLookup consults the software TLB, flushing it first if the mapping
// epoch moved since it was filled.
func (h *Handle) tlbLookup(va uint32) (uint32, bool) {
	if h.noTLB {
		return 0, false
	}
	var gen uint64
	if h.epoch != nil {
		gen = h.epoch()
	}
	h.tlbMu.Lock()
	defer h.tlbMu.Unlock()
	if gen != h.tlbGen {
		h.tlb = nil
		h.tlbGen = gen
	}
	if h.tlb == nil {
		return 0, false
	}
	pfn, ok := h.tlb[va>>mm.PageShift]
	return pfn, ok
}

// tlbInsert caches a completed translation, unless the mapping epoch moved
// while the walk was in flight (the walk may have read superseded tables).
func (h *Handle) tlbInsert(va, pa uint32) {
	if h.noTLB {
		return
	}
	var gen uint64
	if h.epoch != nil {
		gen = h.epoch()
	}
	h.tlbMu.Lock()
	defer h.tlbMu.Unlock()
	if gen != h.tlbGen {
		h.tlb = nil
		h.tlbGen = gen
		return
	}
	if h.tlb == nil {
		h.tlb = make(map[uint32]uint32)
	}
	h.tlb[va>>mm.PageShift] = pa >> mm.PageShift
}

// charging selects what a walk (Handle.walk) counts and pays per page.
type charging int

const (
	// pageWise is a page-wise read: CostPageRead per page.
	pageWise charging = iota
	// mapped is a page under a bulk mapping: CostMappedPage per page,
	// counted in PagesMapped too. The mapping's setup is the caller's.
	mapped
	// quiet re-reads pages an earlier walk already counted and charged:
	// translations come from the TLB or an uncharged walk, and nothing is
	// counted or paid.
	quiet
)

// errStopWalk is returned by a walk's read function to end the walk after
// its page, which is still counted and charged.
var errStopWalk = errors.New("vmi: stop walk")

// walk is the frame iterator behind every read of guest virtual memory:
// it visits [va, va+n) page by page, the access pattern the paper
// identifies as Module-Searcher's dominant cost. Each page costs one
// translation (a TLB hit or a page-table walk), then read(off, pa, m)
// reads its m bytes at range offset off from physical address pa, then
// the page is counted and charged under mode. It returns how many bytes
// it visited; op names the operation in errors.
func (h *Handle) walk(op string, va uint32, n int, mode charging, read func(off int, pa uint32, m int) error) (int, error) {
	for off := 0; off < n; {
		var pa uint32
		var err error
		if mode == quiet {
			pa, err = h.translateQuiet(va)
		} else {
			pa, err = h.Translate(va)
		}
		if err != nil {
			return off, fmt.Errorf("vmi %s: %s at %#x: %w", h.vmName, op, va, err)
		}
		m := min(mm.PageSize-int(va&(mm.PageSize-1)), n-off)
		err = read(off, pa, m)
		if err != nil && err != errStopWalk {
			return off, fmt.Errorf("vmi %s: %s at %#x: %w", h.vmName, op, va, err)
		}
		h.countPage(m, mode)
		off += m
		va += uint32(m)
		if err == errStopWalk {
			return off, nil
		}
	}
	return n, nil
}

// countPage counts and charges one page of m bytes read under mode.
func (h *Handle) countPage(m int, mode charging) {
	if mode == quiet {
		return
	}
	h.pagesRead.Add(1)
	h.bytesRead.Add(uint64(m))
	if h.shared != nil {
		h.shared.pagesRead.Add(1)
		h.shared.bytesRead.Add(uint64(m))
	}
	if mode == mapped {
		h.pagesMapped.Add(1)
		if h.shared != nil {
			h.shared.pagesMapped.Add(1)
		}
		h.pay(CostMappedPage)
		return
	}
	h.pay(CostPageRead)
}

// translateQuiet resolves va like Translate, but counts and charges
// nothing and leaves the TLB as it is: a re-read's translation.
func (h *Handle) translateQuiet(va uint32) (uint32, error) {
	if pfn, ok := h.tlbLookup(va); ok {
		return pfn<<mm.PageShift | va&(mm.PageSize-1), nil
	}
	return mm.WalkPageTables(h.mem, h.cr3, va)
}

// ReadVA copies len(b) bytes of guest virtual memory starting at va. The
// copy proceeds page by page: one translation and one page read per page
// touched, the access pattern the paper identifies as Module-Searcher's
// dominant cost.
//
//modsafe:spends page-wise physical reads
func (h *Handle) ReadVA(va uint32, b []byte) error {
	_, err := h.walk("read", va, len(b), pageWise, func(off int, pa uint32, m int) error {
		return h.mem.ReadPhys(pa, b[off:off+m])
	})
	return err
}

// Backfill copies len(b) bytes at va that this handle has already read,
// counted and charged (a ViewVA walk whose caller turned out to need the
// bytes after all), without counting or charging them again.
func (h *Handle) Backfill(va uint32, b []byte) error {
	_, err := h.walk("read", va, len(b), quiet, func(off int, pa uint32, m int) error {
		return h.mem.ReadPhys(pa, b[off:off+m])
	})
	return err
}

// A PageVisitor checks guest memory in place, one page at a time (see
// ViewVA).
type PageVisitor interface {
	// Wants reports whether the n bytes at range offset off need reading.
	// A page nobody wants is counted and charged like any other, but its
	// bytes are never touched.
	Wants(off, n int) bool
	// Visit reads page, the bytes at range offset off. page is the guest
	// frame itself, lent for the call only: Visit must neither keep nor
	// modify it. Returning false ends the walk after this page.
	Visit(off int, page []byte) bool
}

// CanView reports whether the handle's memory lends frames in place, which
// ViewVA needs. A fault plan's reader does not: injected faults act on
// copies.
func (h *Handle) CanView() bool {
	_, ok := h.mem.(mm.FrameViewer)
	return ok
}

// ViewVA walks [va, va+n) exactly as ReadVA would copy it, with the same
// translations, counts and charges page by page, but hands each page the
// visitor wants to v in place instead of copying it. It returns how many
// bytes it walked: n, or less when v ended the walk. The handle must
// CanView.
//
//modsafe:spends page-wise physical reads
func (h *Handle) ViewVA(va uint32, n int, v PageVisitor) (int, error) {
	fv := h.mem.(mm.FrameViewer)
	var at int
	more := true
	visit := func(page []byte) { more = v.Visit(at, page) }
	return h.walk("read", va, n, pageWise, func(off int, pa uint32, m int) error {
		if !v.Wants(off, m) {
			return fv.ViewPhys(pa, m, nil)
		}
		at = off
		if err := fv.ViewPhys(pa, m, visit); err != nil {
			return err
		}
		if !more {
			return errStopWalk
		}
		return nil
	})
}

// ReadVAConsistent copies like ReadVA but detects concurrent guest
// mutation (the torn-read hazard of introspecting a running VM): after the
// initial copy it re-reads the range and compares, repeating until two
// consecutive passes agree or maxPasses total passes have run, then returns
// the last pass's bytes in b along with the pass count. Every pass performs
// full page-wise reads and is charged accordingly — consistency costs
// introspection time, which is why the Searcher only pays it when a retry
// policy asks for verified reads. Fewer than two passes can never verify,
// so maxPasses is clamped to 2.
//
//modsafe:spends multi-pass physical reads
func (h *Handle) ReadVAConsistent(va uint32, b []byte, maxPasses int) (int, error) {
	return h.consistent(va, b, maxPasses, h.ReadVA)
}

// MapRangeConsistent is ReadVAConsistent with every pass a MapRange: the
// bulk-mapping strategy's verified copy.
//
//modsafe:spends multi-pass batched mappings
func (h *Handle) MapRangeConsistent(va uint32, b []byte, maxPasses int) (int, error) {
	return h.consistent(va, b, maxPasses, h.MapRange)
}

// consistent runs read passes over [va, va+len(b)) until two consecutive
// passes agree; see ReadVAConsistent.
func (h *Handle) consistent(va uint32, b []byte, maxPasses int, read func(uint32, []byte) error) (int, error) {
	if maxPasses < 2 {
		maxPasses = 2
	}
	if err := read(va, b); err != nil {
		return 1, err
	}
	sp := getShadow(len(b))
	shadow := (*sp)[:len(b)]
	defer putShadow(sp)
	for pass := 2; pass <= maxPasses; pass++ {
		if err := read(va, shadow); err != nil {
			return pass, err
		}
		if bytes.Equal(b, shadow) {
			return pass, nil
		}
		// The range changed under us; adopt the newer copy and confirm it
		// against the next pass.
		copy(b, shadow)
	}
	return maxPasses, fmt.Errorf("vmi %s: read at %#x after %d passes: %w", h.vmName, va, maxPasses, ErrTornRead)
}

// MapRange is the bulk alternative to ReadVA used by the copy-strategy
// ablation: it establishes one mapping of the whole [va, va+len(b)) region
// (one setup charge, then a reduced per-page charge) and copies it into b
// through the same frame iterator as ReadVA. Real libVMI gained such
// batched mappings after the paper's version; the paper's ModChecker uses
// the page-wise path.
//
//modsafe:spends batched mapping setup and physical reads
func (h *Handle) MapRange(va uint32, b []byte) error {
	h.mapSetups.Add(1)
	if h.shared != nil {
		h.shared.mapSetups.Add(1)
	}
	h.pay(CostMapSetup)
	// Translation still happens per page, and through the same software
	// TLB as page-wise reads, so repeated mappings of one region (the
	// verified-copy path) re-walk nothing.
	_, err := h.walk("map", va, len(b), mapped, func(off int, pa uint32, m int) error {
		return h.mem.ReadPhys(pa, b[off:off+m])
	})
	return err
}

// ReadU32 reads a little-endian 32-bit value at va.
//
//modsafe:spends guest virtual read
func (h *Handle) ReadU32(va uint32) (uint32, error) {
	var b [4]byte
	if err := h.ReadVA(va, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// ReadUnicodeString reads a UNICODE_STRING at va and then its buffer,
// returning the decoded Go string.
//
//modsafe:spends guest virtual reads
func (h *Handle) ReadUnicodeString(va uint32) (string, error) {
	b := make([]byte, nt.UnicodeStringSize)
	if err := h.ReadVA(va, b); err != nil {
		return "", err
	}
	us, err := nt.DecodeUnicodeString(b)
	if err != nil {
		return "", err
	}
	if us.Length == 0 {
		return "", nil
	}
	buf := make([]byte, us.Length)
	if err := h.ReadVA(us.Buffer, buf); err != nil {
		return "", err
	}
	return nt.DecodeUTF16(buf)
}
