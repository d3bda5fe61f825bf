package guest

import "modchecker/internal/mm"

// Fork creates a copy-on-write clone of the guest, modeling a VM
// instantiated by snapshotting a running golden template rather than by
// booting from disk. The clone shares every physical frame with the
// template (mm.PhysMemory.Fork freezes the image into a common base layer)
// and pays only for frames it subsequently dirties, so a fleet of clean
// clones costs O(templates × image) memory instead of O(N × image).
//
// The clone inherits the template's page tables, loaded-module layout, pool
// cursor, and disk (shared until first mutation, like cloned domains
// already share the golden disk); its own seed drives any future load
// decisions and resource noise. Until the clone's memory diverges, its
// Phys().ContentID matches the template's — the content-identity token
// fleet sweeps use to avoid introspecting bit-identical clones twice.
func (g *Guest) Fork(name string, seed int64) *Guest {
	g.mu.Lock()
	defer g.mu.Unlock()
	parent := g.AddressSpace()
	as := mm.AttachAddressSpace(parent.Phys().Fork(), parent.CR3())
	c := &Guest{
		name:         name,
		seed:         seed,
		res:          idleResources(seed),
		nextModuleVA: g.nextModuleVA,
		disk:         g.disk,
		modules:      make(map[string]*LoadedModule, len(g.modules)),
	}
	// LoadedModule records are immutable once linked, so sharing the
	// pointers is safe; the map itself must be private because load/unload
	// mutate it in place.
	for k, v := range g.modules {
		c.modules[k] = v
	}
	c.as.Store(as)
	c.pool = &poolAllocator{as: as, next: g.pool.next, mappedEnd: g.pool.mappedEnd, limit: g.pool.limit}
	return c
}
