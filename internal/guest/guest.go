// Package guest simulates a 32-bit Windows XP guest VM at the fidelity
// ModChecker requires: real guest-physical memory with x86 page tables, a
// kernel module loader that maps PE32 images and applies base relocations,
// and an authentic PsLoadedModuleList — a doubly linked list of
// LDR_DATA_TABLE_ENTRY structures laid out byte-for-byte in guest memory
// (paper Figure 2) that introspection tools traverse from outside.
//
// Guests are deterministic: two guests created from the same disk with the
// same boot seed are bit-identical, modeling VM clones instantiated from a
// single golden installation (paper Section V-A); different boot seeds give
// each VM its own module load addresses and physical frame layout, which is
// what forces the Integrity-Checker's RVA normalization.
package guest

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
)

// Well-known guest virtual addresses (32-bit XP-like layout). These are
// properties of the OS build, so they are identical across cloned VMs —
// which is why a single VMI symbol profile works for the whole pool.
const (
	// PsLoadedModuleListVA is the guest VA of the PsLoadedModuleList
	// global: the LIST_ENTRY heading the loaded-module list.
	PsLoadedModuleListVA = 0x8055A420

	// kernelGlobalsVA is the page holding exported kernel globals
	// (contains PsLoadedModuleListVA).
	kernelGlobalsVA = 0x8055A000

	// poolBaseVA is the start of the simulated nonpaged pool, where
	// loader metadata (LDR entries, name buffers) is allocated.
	poolBaseVA = 0x81000000
	poolEndVA  = 0x85000000

	// driverAreaVA is the base of the region where kernel modules are
	// mapped (XP maps boot drivers around 0xF8xxxxxx, matching the base
	// addresses in the paper's Figure 4).
	driverAreaVA  = 0xF8000000
	driverAreaEnd = 0xFFC00000
)

// Config controls guest creation.
type Config struct {
	Name     string
	MemBytes uint64 // guest-physical memory size; default 64 MiB
	// BootSeed drives every nondeterministic boot decision: physical
	// frame allocation order, module base jitter, resource noise.
	// Distinct VMs get distinct seeds.
	BootSeed int64
	// Disk maps module file names to their on-disk PE images. Cloned VMs
	// share one disk (same underlying map is safe: it is never mutated
	// by the guest; infections that "patch the file on disk" operate on
	// a copy).
	Disk map[string][]byte
}

// Guest is one simulated virtual machine.
type Guest struct {
	name string
	seed int64 // boot seed; drives the lazily created rng
	phys *mm.PhysMemory
	as   *mm.AddressSpace

	// loadObs, when set, is invoked with the new CPU demand after every
	// SetLoad (outside the resource lock). The hypervisor installs it
	// before the guest is shared to keep its contention accounting O(1).
	loadObs func(float64)

	res resourceState // independently synchronized

	mu   sync.Mutex
	rng  *rand.Rand     // guarded by mu; New seeds it, forks create it lazily (see bootRNG)
	pool *poolAllocator // guarded by mu
	// nextModuleVA is the bump pointer for module load addresses.
	nextModuleVA uint32                   // guarded by mu
	modules      map[string]*LoadedModule // guarded by mu; lowercase name -> record
	disk         map[string][]byte        // guarded by mu; swapped whole on mutation (copy-on-write)
}

// LoadedModule records where a module was mapped and where its loader
// bookkeeping lives. This is guest-side ground truth used by tests and the
// infection toolkit; ModChecker itself never sees it — it recovers the same
// facts by walking guest memory.
type LoadedModule struct {
	Name        string
	Base        uint32 // DllBase: guest VA of the first byte of the image
	SizeOfImage uint32
	EntryPoint  uint32
	LdrEntryVA  uint32 // guest VA of the LDR_DATA_TABLE_ENTRY
}

// New boots a guest: initializes physical memory, the kernel address space,
// the pool, the PsLoadedModuleList head, and loads every module on the disk
// in deterministic (sorted) order, as an OS with a fixed boot-start driver
// set would.
func New(cfg Config) (*Guest, error) {
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	if cfg.Disk == nil {
		return nil, fmt.Errorf("guest %q: no disk", cfg.Name)
	}
	phys := mm.NewPhysMemory(cfg.MemBytes, cfg.BootSeed)
	as, err := mm.NewAddressSpace(phys)
	if err != nil {
		return nil, fmt.Errorf("guest %q: %w", cfg.Name, err)
	}
	g := &Guest{
		name:    cfg.Name,
		seed:    cfg.BootSeed,
		phys:    phys,
		as:      as,
		res:     idleResources(cfg.BootSeed),
		rng:     rand.New(rand.NewSource(cfg.BootSeed)), // booting draws from it at once
		pool:    newPoolAllocator(as, poolBaseVA, poolEndVA),
		disk:    cfg.Disk,
		modules: make(map[string]*LoadedModule),
	}

	// Map the kernel-globals page and initialize the empty module list
	// (head points at itself).
	if _, err := as.AllocAndMap(kernelGlobalsVA, mm.PageSize, mm.PteWritable); err != nil {
		return nil, fmt.Errorf("guest %q: mapping kernel globals: %w", cfg.Name, err)
	}
	head := nt.ListEntry{Flink: PsLoadedModuleListVA, Blink: PsLoadedModuleListVA}
	if err := as.Write(PsLoadedModuleListVA, nt.EncodeListEntry(head)); err != nil {
		return nil, err
	}

	// Boot-time module base: start of the driver area plus a per-VM
	// jitter, so clones load the same modules at different addresses
	// (real XP bases drift with boot-time pool state and device
	// enumeration order).
	g.nextModuleVA = driverAreaVA + uint32(g.rng.Intn(256))*mm.PageSize

	names := make([]string, 0, len(cfg.Disk))
	for name := range cfg.Disk {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := g.LoadModule(name); err != nil {
			return nil, fmt.Errorf("guest %q: boot-loading %s: %w", cfg.Name, name, err)
		}
	}
	return g, nil
}

// Name returns the VM name (e.g. "Dom3").
func (g *Guest) Name() string { return g.name }

// Phys exposes guest-physical memory; the hypervisor hands this (read-only)
// to the VMI layer.
func (g *Guest) Phys() *mm.PhysMemory { return g.phys }

// CR3 returns the kernel address space's page-directory physical address,
// as the hypervisor would report the vCPU's CR3 to an introspection client.
func (g *Guest) CR3() uint32 { return g.as.CR3() }

// AddressSpace exposes the kernel address space for guest-side code (the
// infection toolkit patching live memory, tests checking ground truth).
func (g *Guest) AddressSpace() *mm.AddressSpace { return g.as }

// Modules returns the guest-side records of loaded modules, sorted by name.
func (g *Guest) Modules() []*LoadedModule {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*LoadedModule, 0, len(g.modules))
	for _, m := range g.modules {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Module returns the record for the named module (case-insensitive on the
// ASCII range, as Windows module names are), or nil.
func (g *Guest) Module(name string) *LoadedModule {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.modules[foldName(name)]
}

// DiskImage returns a copy of the on-disk image bytes for a module file,
// or nil. The copy matters: the underlying bytes may belong to the golden
// disk shared by every cloned VM, and handing out an alias would let one
// guest's mutation silently infect its siblings.
func (g *Guest) DiskImage(name string) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	img, ok := g.disk[name]
	if !ok {
		return nil
	}
	return append([]byte(nil), img...)
}

// ReplaceDiskImage swaps the on-disk image for name. Used by infections
// that patch the file and rely on a reboot/reload to bring the modified
// code into memory (paper Section V-B.1). The guest's disk map is copied
// on first mutation so sibling clones sharing the golden disk are
// unaffected.
func (g *Guest) ReplaceDiskImage(name string, img []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.disk[name]; !ok {
		return fmt.Errorf("guest %q: no file %s on disk", g.name, name)
	}
	// Copy-on-write: clones share the golden disk map.
	nd := make(map[string][]byte, len(g.disk))
	for k, v := range g.disk {
		nd[k] = v
	}
	nd[name] = img
	g.disk = nd
	return nil
}

// foldName lower-cases ASCII letters, mirroring the case-insensitive
// comparison Windows applies to module names.
func foldName(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// bootRNG returns the guest's seeded boot/loader RNG, creating it on first
// use. Laziness matters at fleet scale: a rand.Rand costs ~5 KiB, and a
// forked clone that never loads another module never needs one. Callers
// must hold g.mu.
func (g *Guest) bootRNG() *rand.Rand {
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(g.seed))
	}
	return g.rng
}

// allocModuleBase reserves a page-aligned load address for a module of the
// given image size, with a random inter-module gap.
func (g *Guest) allocModuleBase(size uint32) (uint32, error) {
	base := g.nextModuleVA
	if uint64(base)+uint64(size) > driverAreaEnd {
		return 0, fmt.Errorf("guest %q: driver area exhausted", g.name)
	}
	pages := (size + mm.PageSize - 1) / mm.PageSize
	gap := uint32(g.bootRNG().Intn(64)) * mm.PageSize
	g.nextModuleVA = base + pages*mm.PageSize + gap
	return base, nil
}
