package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"modchecker/internal/pe"
)

// ComponentKind classifies the pieces Module-Parser extracts from an
// in-memory module (paper Algorithm 1).
type ComponentKind int

const (
	KindDOSHeader ComponentKind = iota
	KindNTHeader
	KindOptionalHeader
	KindSectionHeader
	KindSectionData
)

// String returns the IMAGE_* style name the paper uses for the kind.
func (k ComponentKind) String() string {
	switch k {
	case KindDOSHeader:
		return "IMAGE_DOS_HEADER"
	case KindNTHeader:
		return "IMAGE_NT_HEADER"
	case KindOptionalHeader:
		return "IMAGE_OPTIONAL_HEADER"
	case KindSectionHeader:
		return "IMAGE_SECTION_HEADER"
	case KindSectionData:
		return "SECTION_DATA"
	default:
		return fmt.Sprintf("ComponentKind(%d)", int(k))
	}
}

// Component is one integrity-checked unit: a header or a section's data.
type Component struct {
	Kind ComponentKind
	// Name identifies the component, e.g. "IMAGE_DOS_HEADER",
	// "IMAGE_SECTION_HEADER[.text]" or ".text".
	Name string
	Data []byte
	// Normalize marks section data that may embed relocated absolute
	// addresses and therefore needs RVA adjustment before hashing
	// (executable and other read-only contents).
	Normalize bool
	// VirtualAddress/VirtualSize are set for section data.
	VirtualAddress uint32
	VirtualSize    uint32
	// occ counts the components of the same name before this one in its
	// module: sections may share a name, and two copies' components pair
	// by name and occurrence (see peer).
	occ uint32
}

// ParsedModule is the output of Module-Parser for one VM's copy of a
// module.
type ParsedModule struct {
	VMName     string
	ModuleName string
	Base       uint32 // load base on this VM
	Components []Component
	Raw        []byte // the full in-memory module image
}

// Component returns the first component of the given name, or nil.
func (m *ParsedModule) Component(name string) *Component {
	for i := range m.Components {
		if m.Components[i].Name == name {
			return &m.Components[i]
		}
	}
	return nil
}

// peer returns the index of the component that pairs with c, a component
// of another copy of the module: the one with c's name at c's occurrence,
// or -1. hint, c's own index, is tried first; copies of one module list
// their components in the same order.
func (m *ParsedModule) peer(c *Component, hint int) int {
	comps := m.Components
	if hint < len(comps) && comps[hint].Name == c.Name && comps[hint].occ == c.occ {
		return hint
	}
	for k := range comps {
		if comps[k].Name == c.Name && comps[k].occ == c.occ {
			return k
		}
	}
	return -1
}

// parseCostPerKB is the nominal CPU cost of parsing a module, charged per
// KiB processed. Module-Parser is cheap relative to Module-Searcher, as
// Figure 7 shows.
const parseCostPerKB = 500 * time.Nanosecond

// parseCost is the nominal cost of parsing an n-byte module image.
func parseCost(n int) time.Duration { return time.Duration(n/1024+1) * parseCostPerKB }

// ParseModule implements the paper's Algorithm 1 over the in-memory module
// layout: verify the DOS magic, chase e_lfanew to the NT headers, read the
// FILE and OPTIONAL headers, then the section headers, and slice out each
// section's data at its VirtualAddress. It returns the extracted components
// and the nominal parse cost.
//
// Unlike pe.Parse (which decodes on-disk files by PointerToRawData), this
// parser indexes by RVA, because Module-Searcher hands it the *loaded*
// image.
func ParseModule(vmName, moduleName string, base uint32, buf []byte) (*ParsedModule, time.Duration, error) {
	cost := parseCost(len(buf))
	le := binary.LittleEndian
	fail := func(format string, args ...any) (*ParsedModule, time.Duration, error) {
		return nil, cost, fmt.Errorf("core: parsing %s from %s: %s", moduleName, vmName, fmt.Sprintf(format, args...))
	}
	if len(buf) < pe.DOSHeaderSize {
		return fail("module of %d bytes has no DOS header", len(buf))
	}
	if le.Uint16(buf[0:]) != pe.DOSMagic {
		return fail("bad DOS magic %#04x", le.Uint16(buf[0:]))
	}
	lfanew := le.Uint32(buf[0x3C:])
	ntEnd := uint64(lfanew) + 4 + pe.FileHeaderSize + pe.OptionalHeader32Size
	if lfanew < pe.DOSHeaderSize || ntEnd > uint64(len(buf)) {
		return fail("e_lfanew %#x out of range", lfanew)
	}
	if le.Uint32(buf[lfanew:]) != pe.NTSignature {
		return fail("bad NT signature %#08x", le.Uint32(buf[lfanew:]))
	}

	fileOff := lfanew + 4
	numSections := le.Uint16(buf[fileOff+2:])
	sizeOfOptional := le.Uint16(buf[fileOff+16:])
	if sizeOfOptional != pe.OptionalHeader32Size {
		return fail("SizeOfOptionalHeader %d, want %d", sizeOfOptional, pe.OptionalHeader32Size)
	}
	optOff := fileOff + pe.FileHeaderSize
	secOff := optOff + pe.OptionalHeader32Size
	if uint64(secOff)+uint64(numSections)*pe.SectionHeaderSize > uint64(len(buf)) {
		return fail("section table for %d sections exceeds module size", numSections)
	}

	// Three headers, then at most a header and the data per section; the
	// section table fits in buf, so the count is bounded by the copy.
	m := &ParsedModule{VMName: vmName, ModuleName: moduleName, Base: base, Raw: buf,
		Components: make([]Component, 0, 3+2*int(numSections))}

	// IMAGE_DOS_HEADER component: header plus stub, i.e. everything before
	// the NT headers. Experiment E3 (stub text patch) must surface here.
	m.add(Component{Kind: KindDOSHeader, Name: "IMAGE_DOS_HEADER", Data: buf[:lfanew]})
	// IMAGE_NT_HEADER: signature + IMAGE_FILE_HEADER.
	m.add(Component{Kind: KindNTHeader, Name: "IMAGE_NT_HEADER", Data: buf[lfanew : fileOff+pe.FileHeaderSize]})
	m.add(Component{Kind: KindOptionalHeader, Name: "IMAGE_OPTIONAL_HEADER", Data: buf[optOff : optOff+pe.OptionalHeader32Size]})

	type secInfo struct {
		name      string
		va, vsize uint32
		chars     uint32
	}
	secs := make([]secInfo, 0, numSections)
	for i := 0; i < int(numSections); i++ {
		off := secOff + uint32(i)*pe.SectionHeaderSize
		hdr := buf[off : off+pe.SectionHeaderSize]
		var name [8]byte
		copy(name[:], hdr[:8])
		sh := pe.SectionHeader{Name: name}
		sname := sh.NameString()
		m.add(Component{
			Kind: KindSectionHeader,
			Name: fmt.Sprintf("IMAGE_SECTION_HEADER[%s]", sname),
			Data: hdr,
		})
		secs = append(secs, secInfo{
			name:  sname,
			vsize: le.Uint32(hdr[8:]),
			va:    le.Uint32(hdr[12:]),
			chars: le.Uint32(hdr[36:]),
		})
	}
	for _, s := range secs {
		if s.chars&pe.ScnMemWrite != 0 {
			// Writable sections (.data, .bss) legitimately diverge at
			// runtime; the paper checks headers and read-only executable
			// contents only.
			continue
		}
		end := uint64(s.va) + uint64(s.vsize)
		if s.va == 0 || end > uint64(len(buf)) {
			return fail("section %s data [%#x,%#x) outside module", s.name, s.va, end)
		}
		m.add(Component{
			Kind:           KindSectionData,
			Name:           s.name,
			Data:           buf[s.va:end],
			Normalize:      true,
			VirtualAddress: s.va,
			VirtualSize:    s.vsize,
		})
	}
	return m, cost, nil
}

func (m *ParsedModule) add(c Component) {
	for k := range m.Components {
		if m.Components[k].Name == c.Name {
			c.occ++
		}
	}
	m.Components = append(m.Components, c)
}
