package guest

import "modchecker/internal/mm"

// Snapshot is a point-in-time capture of a guest: the full physical memory
// image plus the loader bookkeeping needed to resume. The paper's
// discussion (Section III-B) notes that clouds keep clean snapshots and
// revert infected VMs to flush infections; the hypervisor package exposes
// that workflow on top of this type.
//
// The boot RNG stream is not part of the capture: module bases assigned
// *after* a restore may differ from those the original guest would have
// chosen, but all state existing at snapshot time is restored exactly.
type Snapshot struct {
	phys         *mm.PhysMemory
	cr3          uint32
	modules      map[string]*LoadedModule
	nextModuleVA uint32
	poolNext     uint32
	poolMapped   uint32
	disk         map[string][]byte
}

// Snapshot captures the guest's current memory and loader state.
func (g *Guest) Snapshot() *Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	mods := make(map[string]*LoadedModule, len(g.modules))
	for k, v := range g.modules {
		c := *v
		mods[k] = &c
	}
	as := g.AddressSpace()
	return &Snapshot{
		phys:         as.Phys().Clone(),
		cr3:          as.CR3(),
		modules:      mods,
		nextModuleVA: g.nextModuleVA,
		poolNext:     g.pool.next,
		poolMapped:   g.pool.mappedEnd,
		disk:         g.disk,
	}
}

// Restore rewinds the guest to the snapshot. The snapshot itself is not
// consumed; it can be restored any number of times. The guest's memory is
// replaced by a fresh clone, published together with its address space so
// a concurrent Phys or CR3 never pairs old and new; the identity epoch
// moves once the new memory is in place (see mm.IdentityEpoch).
func (g *Guest) Restore(s *Snapshot) {
	g.mu.Lock()
	defer g.mu.Unlock()
	as := mm.AttachAddressSpace(s.phys.Clone(), s.cr3)
	g.as.Store(as)
	mm.BumpIdentityEpoch()
	g.pool = &poolAllocator{as: as, next: s.poolNext, mappedEnd: s.poolMapped, limit: poolEndVA}
	g.nextModuleVA = s.nextModuleVA
	g.disk = s.disk
	g.modules = make(map[string]*LoadedModule, len(s.modules))
	for k, v := range s.modules {
		c := *v
		g.modules[k] = &c
	}
}
