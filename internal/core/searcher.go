// Package core implements ModChecker itself: the Module-Searcher,
// Module-Parser and Integrity-Checker of the paper's Figure 1, plus the
// sequential and parallel drivers that compare a kernel module across a
// pool of VMs and vote on its integrity.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/nt"
	"modchecker/internal/vmi"
)

// fetchBufPools recycle whole-module copy buffers. The fetch stage of a
// sweep allocates one SizeOfImage-sized buffer per VM per module — for the
// paper's 15-VM pool that is ~45 MiB of short-lived allocations per sweep,
// and it dwarfs everything else the pipeline allocates. Buffers are drawn
// here by the page-wise copy and returned by Checker.releaseFetched once
// the report derivation no longer needs the bytes.
//
// A sweep copies modules of many sizes, so the pools are split by size
// class (sizeClass): a single pool hands a buffer left by a small module
// to a large one, which drops it and allocates afresh, and a buffer born
// small then grows one module size at a time.
var fetchBufPools [sizeClasses]sync.Pool

func init() {
	for i := range fetchBufPools {
		fetchBufPools[i].New = func() any { return new([]byte) }
	}
}

// sizeClasses is the number of buffer size classes sizeClass returns.
const sizeClasses = 4 * bits.UintSize

// sizeClass returns the size class of an n-byte buffer and the capacity of
// that class's buffers, for pools split by size. Classes step by a quarter
// of a power of two, so a buffer is less than a quarter larger than the
// largest request it serves.
func sizeClass(n int) (class, size int) {
	if n <= 8 {
		return 0, 8
	}
	e := bits.Len(uint(n-1)) - 3
	m := (n - 1) >> e // in [4, 8)
	return 4*e + m - 3, (m + 1) << e
}

// getFetchBuf returns a pooled buffer of length n (contents undefined; the
// copy overwrites every byte before anyone reads it).
//
//modown:pool fetch-buf get
func getFetchBuf(n int) []byte {
	class, size := sizeClass(n)
	b := *fetchBufPools[class].Get().(*[]byte)
	if cap(b) < n {
		b = make([]byte, size)
	}
	return b[:n]
}

// putFetchBuf returns a buffer to the pool of its class; a buffer whose
// capacity is no class size did not come from getFetchBuf and is dropped.
// The slice header is re-boxed on every put; that 24-byte allocation is the
// price of handing out plain []byte values, and it is noise next to the
// module-sized buffer it saves.
//
//modown:pool fetch-buf put
func putFetchBuf(b []byte) {
	class, size := sizeClass(cap(b))
	if cap(b) == 0 || size != cap(b) {
		return
	}
	poisonBuf(b[:cap(b)])
	p := new([]byte)
	*p = b[:0]
	fetchBufPools[class].Put(p)
}

// ReleaseModuleCopy recycles a module copy obtained from FetchModule or
// CopyModule once nothing aliases its bytes. Callers outside the checker
// (the baseline verifier, the experiment drivers) use it in place of
// Checker.releaseFetched.
//
//modown:pool fetch-buf put
func ReleaseModuleCopy(b []byte) {
	putFetchBuf(b)
}

// ErrModuleNotFound is returned when the named module is not in the guest's
// loaded-module list.
var ErrModuleNotFound = errors.New("core: module not loaded")

// maxListEntries bounds PsLoadedModuleList traversal so that a corrupted
// (or maliciously looped) list cannot hang the checker.
const maxListEntries = 4096

// MaxModuleSize bounds how much the searcher will copy for one module. A
// compromised guest controls the SizeOfImage field of its LDR entries; an
// absurd value must fail the check, not exhaust Dom0's memory. 64 MiB is
// several times the largest real kernel module.
const MaxModuleSize = 64 << 20

// RetryPolicy bounds how the Module-Searcher responds to transient
// introspection faults (flaky reads, pages briefly not present, torn reads).
// Backoff between attempts is nominal simulated time: it is folded into the
// fetch's returned cost and charged to the hypervisor clock by the caller —
// never slept on the host, so a faulty pool cannot stall the test suite.
type RetryPolicy struct {
	// MaxAttempts is the total number of fetch attempts (minimum 1; zero
	// means no retry).
	MaxAttempts int
	// BaseBackoff is the nominal pause before the first retry; it doubles
	// each attempt up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling backoff (0 = uncapped).
	MaxBackoff time.Duration
	// VerifyReads re-reads each module copy until two consecutive passes
	// agree, detecting pages the guest rewrote mid-copy. A torn copy that
	// never stabilizes fails transiently and re-enters the retry loop.
	VerifyReads bool
}

// verifyPasses bounds the read-verify loop of one fetch attempt; a range
// still churning after this many passes fails the attempt (transiently).
const verifyPasses = 4

// DefaultRetryPolicy returns the retry configuration used by the cloud
// facade: a few attempts with millisecond-scale simulated backoff, verified
// reads on.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		VerifyReads: true,
	}
}

// CopyStrategy selects how Module-Searcher copies a module out of guest
// memory.
type CopyStrategy int

const (
	// CopyPageWise reads the module page by page with a translation per
	// page — the paper's implementation, and the reason Module-Searcher
	// dominates ModChecker's runtime (Section V-C.1).
	CopyPageWise CopyStrategy = iota
	// CopyMapped establishes one bulk mapping then copies — the
	// optimization evaluated by ablation A3.
	CopyMapped
)

// ModuleInfo describes one entry of the guest's loaded-module list as
// recovered purely through introspection.
type ModuleInfo struct {
	Name        string
	FullName    string
	Base        uint32 // DllBase
	SizeOfImage uint32
	EntryPoint  uint32
	LdrEntryVA  uint32
}

// Searcher is ModChecker's Module-Searcher: the only component that touches
// guest memory (paper Section III-B1). It walks PsLoadedModuleList, finds
// the module under check and copies the whole in-memory module into a local
// buffer.
type Searcher struct {
	h        *vmi.Handle
	strategy CopyStrategy
	retry    RetryPolicy
	// names interns the module names the list walk decodes; a Checker's
	// searchers share the Checker's table.
	names *nameTable
	// walk receives the list head, each LDR_DATA_TABLE_ENTRY and each
	// name the list walk reads, so the walk allocates nothing per entry.
	// The first walk allocates it: most Searchers only copy modules.
	walk *[walkBufSize]byte
}

// walkBufSize is the size of a Searcher's list-walk buffer: an
// LDR_DATA_TABLE_ENTRY or a UTF-16LE name of up to 64 code units, which
// holds a typical kernel module's full \SystemRoot path. A longer name is
// read into a buffer of its own.
const walkBufSize = 128

// NewSearcher creates a Searcher over an introspection handle. It interns
// names in a table of its own, so repeated walks by one Searcher decode
// each name once.
func NewSearcher(h *vmi.Handle, strategy CopyStrategy) *Searcher {
	return &Searcher{h: h, strategy: strategy, names: new(nameTable)}
}

// newSearcher returns a Searcher configured as the checker's pipeline reads
// guests, interning names in the checker's table.
func (c *Checker) newSearcher(h *vmi.Handle) *Searcher {
	return &Searcher{h: h, strategy: c.cfg.Strategy, retry: c.cfg.Retry, names: &c.names}
}

// Bounds of a nameTable, so a guest that lists ever new names cannot grow
// Dom0's memory: at most maxInternedNames names, each at most
// maxInternedNameBytes bytes of UTF-16LE. Names past either bound are
// decoded on every walk.
const (
	maxInternedNames     = 4096
	maxInternedNameBytes = 512
)

// nameTable interns the module names Module-Searcher decodes, keyed by
// their raw UTF-16LE bytes: every sweep walks every listed VM's
// PsLoadedModuleList, and the names it reads rarely change. A hit returns
// the stored string without allocating; a miss decodes with
// nt.DecodeUTF16, so a hit returns exactly what decoding would. It is safe
// for concurrent list walks, and its zero value is empty.
type nameTable struct {
	mu sync.Mutex
	m  map[string]string // guarded by mu
	// listLen is the length of the last list walked through the table,
	// up to maxPresize: the capacity the next walk presizes its result
	// with.
	listLen atomic.Int32
}

// maxPresize bounds how many entries a list walk presizes its result for,
// so one guest with a long (or hostile) list does not make every other
// guest's walk allocate for it.
const maxPresize = 256

// decode returns nt.DecodeUTF16(b), from the table when b was decoded
// before.
func (t *nameTable) decode(b []byte) (string, error) {
	t.mu.Lock()
	name, ok := t.m[string(b)]
	t.mu.Unlock()
	if ok {
		return name, nil
	}
	name, err := nt.DecodeUTF16(b)
	if err != nil || len(b) > maxInternedNameBytes {
		return name, err
	}
	t.mu.Lock()
	if len(t.m) < maxInternedNames {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[string(b)] = name
	}
	t.mu.Unlock()
	return name, nil
}

// WithRetry sets the searcher's retry policy and returns the searcher.
func (s *Searcher) WithRetry(p RetryPolicy) *Searcher {
	s.retry = p
	return s
}

// ListModules walks the guest's PsLoadedModuleList and returns every
// module, in load order. It performs the same pointer chase the paper
// describes: resolve the PsLoadedModuleList symbol, follow FLINK through
// each LDR_DATA_TABLE_ENTRY until the walk returns to the list head.
func (s *Searcher) ListModules() ([]ModuleInfo, error) {
	headVA, err := s.h.SymbolVA("PsLoadedModuleList")
	if err != nil {
		return nil, err
	}
	if s.walk == nil {
		s.walk = new([walkBufSize]byte)
	}
	b := s.walk[:nt.LdrDataTableEntrySize]
	var head nt.ListEntry
	if err = s.h.ReadVA(headVA, b[:nt.ListEntrySize]); err == nil {
		head, err = nt.DecodeListEntry(b)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading PsLoadedModuleList head: %w", err)
	}
	out := make([]ModuleInfo, 0, s.names.listLen.Load())
	cur := head.Flink
	for n := 0; cur != headVA; n++ {
		if n >= maxListEntries {
			return nil, fmt.Errorf("core: PsLoadedModuleList on %s exceeds %d entries (corrupt or looped list)",
				s.h.VMName(), maxListEntries)
		}
		// The entry is decoded by value before its names reuse b.
		var entry nt.LdrDataTableEntry
		if err = s.h.ReadVA(cur, b); err == nil {
			entry, err = nt.DecodeLdrDataTableEntry(b)
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading LDR entry at %#x: %w", cur, err)
		}
		name, err := s.readUnicode(entry.BaseDllName)
		if err != nil {
			return nil, fmt.Errorf("core: reading BaseDllName of entry %#x: %w", cur, err)
		}
		full, err := s.readUnicode(entry.FullDllName)
		if err != nil {
			return nil, fmt.Errorf("core: reading FullDllName of entry %#x: %w", cur, err)
		}
		out = append(out, ModuleInfo{
			Name:        name,
			FullName:    full,
			Base:        entry.DllBase,
			SizeOfImage: entry.SizeOfImage,
			EntryPoint:  entry.EntryPoint,
			LdrEntryVA:  cur,
		})
		cur = entry.InLoadOrderLinks.Flink
	}
	if n := int32(min(len(out), maxPresize)); s.names.listLen.Load() != n {
		s.names.listLen.Store(n)
	}
	return out, nil
}

// readUnicode reads and decodes the string us describes, through the walk
// buffer unless the string is longer than it.
func (s *Searcher) readUnicode(us nt.UnicodeString) (string, error) {
	if us.Length == 0 || us.Buffer == 0 {
		return "", nil
	}
	var buf []byte
	if int(us.Length) <= len(s.walk) {
		buf = s.walk[:us.Length]
	} else {
		buf = make([]byte, us.Length)
	}
	if err := s.h.ReadVA(us.Buffer, buf); err != nil {
		return "", err
	}
	return s.names.decode(buf)
}

// FindModule locates the named module in the loaded-module list
// (case-insensitively, as Windows compares module names).
func (s *Searcher) FindModule(name string) (*ModuleInfo, error) {
	mods, err := s.ListModules()
	if err != nil {
		return nil, err
	}
	for i := range mods {
		if strings.EqualFold(mods[i].Name, name) {
			return &mods[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %s on %s", ErrModuleNotFound, name, s.h.VMName())
}

// CopyModule copies the whole in-memory module (SizeOfImage bytes starting
// at DllBase) into a buffer from the fetch-buffer pool, using the
// configured strategy: the two strategies differ only in what the copy is
// charged. The copy must be recycled through putFetchBuf (releaseFetched
// does).
//
//modown:pool fetch-buf get
func (s *Searcher) CopyModule(info *ModuleInfo) ([]byte, error) {
	if info.SizeOfImage == 0 || info.SizeOfImage > MaxModuleSize {
		return nil, fmt.Errorf("core: %s on %s claims SizeOfImage %#x (corrupt or hostile LDR entry)",
			info.Name, s.h.VMName(), info.SizeOfImage)
	}
	buf := getFetchBuf(int(info.SizeOfImage))
	var err error
	switch {
	case s.strategy == CopyMapped && s.retry.VerifyReads:
		_, err = s.h.MapRangeConsistent(info.Base, buf, verifyPasses)
	case s.strategy == CopyMapped:
		err = s.h.MapRange(info.Base, buf)
	case s.retry.VerifyReads:
		_, err = s.h.ReadVAConsistent(info.Base, buf, verifyPasses)
	default:
		err = s.h.ReadVA(info.Base, buf)
	}
	if err != nil {
		putFetchBuf(buf)
		return nil, fmt.Errorf("core: copying %s from %s: %w", info.Name, s.h.VMName(), err)
	}
	return buf, nil
}

// readModule reads the module for a digest against the reference chk
// checks for: in place when it can, returning no copy (nil, nil) when the
// whole module proved covered (see pageCheck). A copy that fails the check
// is finished as a copy: the pages already walked are backfilled from the
// frames without being charged again, so the copy costs exactly what
// CopyModule charges. A nil chk, a memory that cannot lend frames (a fault
// plan's) or a size other than the reference's copy as CopyModule does.
// The engine passes a chk only to page-wise, unverified Searchers.
//
//modown:pool fetch-buf get
func (s *Searcher) readModule(info *ModuleInfo, chk *pageCheck) ([]byte, error) {
	if chk == nil || !s.h.CanView() || !chk.start(info) {
		return s.CopyModule(info)
	}
	size := int(info.SizeOfImage)
	n, err := s.h.ViewVA(info.Base, size, chk)
	if err != nil {
		return nil, fmt.Errorf("core: copying %s from %s: %w", info.Name, s.h.VMName(), err)
	}
	if chk.covered() {
		return nil, nil
	}
	buf := getFetchBuf(size)
	err = s.h.Backfill(info.Base, buf[:n])
	if err == nil {
		err = s.h.ReadVA(info.Base+uint32(n), buf[n:])
	}
	if err != nil {
		putFetchBuf(buf)
		return nil, fmt.Errorf("core: copying %s from %s: %w", info.Name, s.h.VMName(), err)
	}
	return buf, nil
}

// FetchModule finds and copies the named module, returning the info, the
// module bytes, and the nominal introspection cost incurred. Under a retry
// policy, attempts that fail with a *transient* fault are retried with
// exponentially growing backoff; the backoff is nominal simulated time,
// folded into the returned cost (the caller charges it to the hypervisor
// clock). Permanent faults and exhausted budgets return the last error.
//
//modown:pool fetch-buf get
func (s *Searcher) FetchModule(name string) (*ModuleInfo, []byte, time.Duration, error) {
	return s.fetchModule(name, nil)
}

// fetchModule is FetchModule reading through chk (see readModule): a nil
// copy without an error is a module chk proved covered in place.
//
//modown:pool fetch-buf get
func (s *Searcher) fetchModule(name string, chk *pageCheck) (*ModuleInfo, []byte, time.Duration, error) {
	var info *ModuleInfo
	var buf []byte
	cost, err := s.retryCosted(func() error {
		var e error
		info, buf, e = s.fetchOnce(name, chk)
		return e
	})
	return info, buf, cost, err
}

// fetchOnce is one find-and-read attempt.
//
//modown:pool fetch-buf get
func (s *Searcher) fetchOnce(name string, chk *pageCheck) (*ModuleInfo, []byte, error) {
	info, err := s.FindModule(name)
	if err != nil {
		return nil, nil, err
	}
	buf, err := s.readModule(info, chk)
	if err != nil {
		return nil, nil, err
	}
	return info, buf, nil
}

// statsCost converts a handle-stats delta into the nominal (uncontended)
// introspection time it represents. The attribution is exact even when
// page-wise and mapped reads mix within one window: the handle counts
// mapped pages separately (Stats.PagesMapped is the subset of PagesRead
// copied under a bulk mapping) and TLB-served translations separately from
// genuine page-table walks.
func statsCost(after, before vmi.Stats) time.Duration {
	walks := time.Duration(after.PTWalks-before.PTWalks) * vmi.CostPTWalk
	hits := time.Duration(after.TLBHits-before.TLBHits) * vmi.CostTLBHit
	maps := time.Duration(after.MapSetups-before.MapSetups) * vmi.CostMapSetup
	mapped := after.PagesMapped - before.PagesMapped
	paged := after.PagesRead - before.PagesRead - mapped
	return walks + hits + maps +
		time.Duration(paged)*vmi.CostPageRead +
		time.Duration(mapped)*vmi.CostMappedPage
}

// retryCosted runs one introspection operation under the searcher's retry
// policy, measuring each attempt's cost from the handle's stats delta and
// folding nominal backoff into the returned total — the same accounting
// FetchModule performs for its combined find+copy attempts.
func (s *Searcher) retryCosted(op func() error) (time.Duration, error) {
	attempts := s.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var total time.Duration
	backoff := s.retry.BaseBackoff
	for attempt := 1; ; attempt++ {
		before := s.h.Stats()
		err := op()
		total += statsCost(s.h.Stats(), before)
		if err == nil {
			return total, nil
		}
		if attempt >= attempts || faults.Classify(err) != faults.ClassTransient {
			return total, err
		}
		total += backoff
		backoff *= 2
		if s.retry.MaxBackoff > 0 && backoff > s.retry.MaxBackoff {
			backoff = s.retry.MaxBackoff
		}
	}
}

// ListModulesCosted walks the loaded-module list under the retry policy,
// returning the entries plus the nominal introspection cost (including any
// simulated backoff). The sweep session uses it to snapshot each VM's
// module table once per sweep instead of re-walking the LDR list per module.
func (s *Searcher) ListModulesCosted() ([]ModuleInfo, time.Duration, error) {
	var mods []ModuleInfo
	cost, err := s.retryCosted(func() error {
		var e error
		mods, e = s.ListModules()
		return e
	})
	return mods, cost, err
}

// CopyModuleCosted copies one already-located module under the retry
// policy, returning the bytes plus the nominal introspection cost. Paired
// with ListModulesCosted it splits FetchModule into its two halves so the
// listing half can be amortized across a sweep.
//
//modown:pool fetch-buf get
func (s *Searcher) CopyModuleCosted(info *ModuleInfo) ([]byte, time.Duration, error) {
	return s.readModuleCosted(info, nil)
}

// readModuleCosted is CopyModuleCosted reading through chk (see
// readModule).
//
//modown:pool fetch-buf get
func (s *Searcher) readModuleCosted(info *ModuleInfo, chk *pageCheck) ([]byte, time.Duration, error) {
	var buf []byte
	cost, err := s.retryCosted(func() error {
		var e error
		buf, e = s.readModule(info, chk)
		return e
	})
	return buf, cost, err
}
