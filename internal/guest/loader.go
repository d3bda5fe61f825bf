package guest

import (
	"fmt"

	"modchecker/internal/mm"
	"modchecker/internal/nt"
	"modchecker/internal/pe"
)

// LoadModule maps the named disk image into kernel memory the way the
// Windows module loader does:
//
//  1. parse the PE image and pick a load base,
//  2. map SizeOfImage bytes and copy headers + sections to their RVAs,
//  3. apply base relocations for the delta between the chosen base and the
//     preferred ImageBase (this is the step that plants absolute virtual
//     addresses in the code, making in-memory hashes differ across VMs),
//  4. allocate an LDR_DATA_TABLE_ENTRY and name buffers in pool, and
//  5. link the entry into PsLoadedModuleList via in-memory list surgery.
func (g *Guest) LoadModule(filename string) (*LoadedModule, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := foldName(filename)
	if _, dup := g.modules[key]; dup {
		return nil, fmt.Errorf("guest %q: module %s already loaded", g.name, filename)
	}
	raw, ok := g.disk[filename]
	if !ok {
		return nil, fmt.Errorf("guest %q: no file %s on disk", g.name, filename)
	}
	img, err := pe.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("guest %q: parsing %s: %w", g.name, filename, err)
	}

	base, err := g.allocModuleBase(img.Optional.SizeOfImage)
	if err != nil {
		return nil, err
	}
	mem, err := img.LayoutAt(base)
	if err != nil {
		return nil, fmt.Errorf("guest %q: laying out %s: %w", g.name, filename, err)
	}
	if _, err := g.AddressSpace().AllocAndMap(base, img.Optional.SizeOfImage, mm.PteWritable); err != nil {
		return nil, fmt.Errorf("guest %q: mapping %s: %w", g.name, filename, err)
	}
	if err := g.AddressSpace().Write(base, mem); err != nil {
		return nil, fmt.Errorf("guest %q: copying %s: %w", g.name, filename, err)
	}

	mod := &LoadedModule{
		Name:        filename,
		Base:        base,
		SizeOfImage: img.Optional.SizeOfImage,
		EntryPoint:  base + img.Optional.AddressOfEntryPoint,
	}
	if err := g.linkLoaderEntry(mod); err != nil {
		return nil, err
	}
	g.modules[key] = mod
	g.res.noteModuleEvent()
	return mod, nil
}

// linkLoaderEntry creates the LDR_DATA_TABLE_ENTRY in pool and inserts it
// at the tail of PsLoadedModuleList (InsertTailList semantics, so the list
// preserves load order — hence "InLoadOrderLinks").
func (g *Guest) linkLoaderEntry(mod *LoadedModule) error {
	baseName := mod.Name
	fullName := `\SystemRoot\System32\drivers\` + mod.Name

	baseBuf := nt.EncodeUTF16(baseName)
	fullBuf := nt.EncodeUTF16(fullName)
	baseBufVA, err := g.pool.alloc(uint32(len(baseBuf)), 2)
	if err != nil {
		return err
	}
	if err := g.AddressSpace().Write(baseBufVA, baseBuf); err != nil {
		return err
	}
	fullBufVA, err := g.pool.alloc(uint32(len(fullBuf)), 2)
	if err != nil {
		return err
	}
	if err := g.AddressSpace().Write(fullBufVA, fullBuf); err != nil {
		return err
	}
	entryVA, err := g.pool.alloc(nt.LdrDataTableEntrySize, 8)
	if err != nil {
		return err
	}

	// Read the current head to find the tail.
	head, err := g.readListEntry(PsLoadedModuleListVA)
	if err != nil {
		return err
	}
	entry := nt.LdrDataTableEntry{
		InLoadOrderLinks: nt.ListEntry{Flink: PsLoadedModuleListVA, Blink: head.Blink},
		DllBase:          mod.Base,
		EntryPoint:       mod.EntryPoint,
		SizeOfImage:      mod.SizeOfImage,
		FullDllName: nt.UnicodeString{
			Length:        uint16(len(fullBuf)),
			MaximumLength: uint16(len(fullBuf)),
			Buffer:        fullBufVA,
		},
		BaseDllName: nt.UnicodeString{
			Length:        uint16(len(baseBuf)),
			MaximumLength: uint16(len(baseBuf)),
			Buffer:        baseBufVA,
		},
		Flags:     0x09004000, // LDRP_ENTRY_PROCESSED | image-dll bits, as XP sets
		LoadCount: 1,
	}
	if err := g.AddressSpace().Write(entryVA, entry.Encode()); err != nil {
		return err
	}
	// tail.Flink = entry
	if err := g.writeListFlink(head.Blink, entryVA); err != nil {
		return err
	}
	// head.Blink = entry
	if err := g.writeListBlink(PsLoadedModuleListVA, entryVA); err != nil {
		return err
	}
	mod.LdrEntryVA = entryVA
	return nil
}

// UnloadModule removes the module from PsLoadedModuleList and unmaps it.
func (g *Guest) UnloadModule(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := foldName(name)
	mod, ok := g.modules[key]
	if !ok {
		return fmt.Errorf("guest %q: module %s not loaded", g.name, name)
	}
	links, err := g.readListEntry(mod.LdrEntryVA + nt.OffInLoadOrderLinks)
	if err != nil {
		return err
	}
	// RemoveEntryList: Blink.Flink = Flink; Flink.Blink = Blink.
	if err := g.writeListFlink(links.Blink, links.Flink); err != nil {
		return err
	}
	if err := g.writeListBlink(links.Flink, links.Blink); err != nil {
		return err
	}
	if err := g.AddressSpace().UnmapAndFree(mod.Base, mod.SizeOfImage); err != nil {
		return err
	}
	delete(g.modules, key)
	g.res.noteModuleEvent()
	return nil
}

func (g *Guest) readListEntry(va uint32) (nt.ListEntry, error) {
	b := make([]byte, nt.ListEntrySize)
	if err := g.AddressSpace().Read(va, b); err != nil {
		return nt.ListEntry{}, err
	}
	return nt.DecodeListEntry(b)
}

func (g *Guest) writeListFlink(entryVA, flink uint32) error {
	le, err := g.readListEntry(entryVA)
	if err != nil {
		return err
	}
	le.Flink = flink
	return g.AddressSpace().Write(entryVA, nt.EncodeListEntry(le))
}

func (g *Guest) writeListBlink(entryVA, blink uint32) error {
	le, err := g.readListEntry(entryVA)
	if err != nil {
		return err
	}
	le.Blink = blink
	return g.AddressSpace().Write(entryVA, nt.EncodeListEntry(le))
}
