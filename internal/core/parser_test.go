package core

import (
	"strings"
	"testing"

	"modchecker/internal/pe"
)

// fetchParsed copies and parses alpha.sys from the first VM of a fresh
// pool.
func fetchParsed(t testing.TB) *ParsedModule {
	t.Helper()
	_, targets := testPool(t, 1)
	s := NewSearcher(targets[0].Handle, CopyPageWise)
	info, buf, _, err := s.FetchModule("alpha.sys")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := ParseModule(targets[0].Name, "alpha.sys", info.Base, buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseComponents(t *testing.T) {
	m := fetchParsed(t)
	want := []string{
		"IMAGE_DOS_HEADER", "IMAGE_NT_HEADER", "IMAGE_OPTIONAL_HEADER",
		"IMAGE_SECTION_HEADER[.text]", "IMAGE_SECTION_HEADER[.data]",
		"IMAGE_SECTION_HEADER[.rdata]", "IMAGE_SECTION_HEADER[INIT]",
		"IMAGE_SECTION_HEADER[.reloc]",
		".text", ".rdata", "INIT", ".reloc",
	}
	have := map[string]bool{}
	for _, c := range m.Components {
		have[c.Name] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing component %q (have %v)", w, names(m))
		}
	}
}

// TestParseAllocatesComponentsOnce pins that ParseModule sizes the
// component list from the section count before the first append: a
// 12-component module costs the ParsedModule, its component list, the
// section table and the section headers' names, and nothing for growing
// the list.
func TestParseAllocatesComponentsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations of its own; the count only holds in plain builds")
	}
	m := fetchParsed(t)
	if len(m.Components) != 12 {
		t.Fatalf("alpha.sys has %d components, want 12: %v", len(m.Components), names(m))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ParseModule(m.VMName, m.ModuleName, m.Base, m.Raw); err != nil {
			t.Fatal(err)
		}
	})
	// The ParsedModule, its component list, the section table, and per
	// section header its name, the name boxed for Sprintf, and the
	// formatted component name. Growing the list from nil added four.
	const sections = 5
	if want := float64(3 + 3*sections); allocs > want {
		t.Errorf("ParseModule made %v allocations, want at most %v", allocs, want)
	}
}

func names(m *ParsedModule) []string {
	var out []string
	for _, c := range m.Components {
		out = append(out, c.Name)
	}
	return out
}

func TestParseExcludesWritableSections(t *testing.T) {
	m := fetchParsed(t)
	if m.Component(".data") != nil {
		t.Error(".data (writable) included as checkable content")
	}
	// Its header is still checked.
	if m.Component("IMAGE_SECTION_HEADER[.data]") == nil {
		t.Error(".data header missing")
	}
}

func TestParseComponentSizes(t *testing.T) {
	m := fetchParsed(t)
	dos := m.Component("IMAGE_DOS_HEADER")
	if len(dos.Data) < pe.DOSHeaderSize {
		t.Errorf("DOS component %d bytes", len(dos.Data))
	}
	if !strings.Contains(string(dos.Data), "This program cannot be run in DOS mode") {
		t.Error("DOS component does not include the stub")
	}
	nt := m.Component("IMAGE_NT_HEADER")
	if len(nt.Data) != 4+pe.FileHeaderSize {
		t.Errorf("NT component %d bytes, want %d", len(nt.Data), 4+pe.FileHeaderSize)
	}
	opt := m.Component("IMAGE_OPTIONAL_HEADER")
	if len(opt.Data) != pe.OptionalHeader32Size {
		t.Errorf("OPTIONAL component %d bytes", len(opt.Data))
	}
	sh := m.Component("IMAGE_SECTION_HEADER[.text]")
	if len(sh.Data) != pe.SectionHeaderSize {
		t.Errorf("section header component %d bytes", len(sh.Data))
	}
}

func TestParseNormalizeFlags(t *testing.T) {
	m := fetchParsed(t)
	for _, c := range m.Components {
		wantNorm := c.Kind == KindSectionData
		if c.Normalize != wantNorm {
			t.Errorf("%s: Normalize = %v", c.Name, c.Normalize)
		}
	}
}

func TestParseSectionDataLocation(t *testing.T) {
	m := fetchParsed(t)
	text := m.Component(".text")
	if text.VirtualAddress != 0x1000 {
		t.Errorf(".text VA = %#x", text.VirtualAddress)
	}
	if uint32(len(text.Data)) != text.VirtualSize {
		t.Errorf(".text data %d bytes, VirtualSize %d", len(text.Data), text.VirtualSize)
	}
	// Data must alias the raw buffer at the right place.
	if &text.Data[0] != &m.Raw[text.VirtualAddress] {
		t.Error(".text component does not alias the module buffer")
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	m := fetchParsed(t)
	raw := append([]byte(nil), m.Raw...)
	raw[0] = 'X'
	if _, _, err := ParseModule("vm", "alpha.sys", m.Base, raw); err == nil {
		t.Error("bad DOS magic parsed")
	}
}

func TestParseRejectsBadNTSig(t *testing.T) {
	m := fetchParsed(t)
	raw := append([]byte(nil), m.Raw...)
	lfanew := uint32(raw[0x3C]) | uint32(raw[0x3D])<<8
	raw[lfanew] = 'X'
	if _, _, err := ParseModule("vm", "alpha.sys", m.Base, raw); err == nil {
		t.Error("bad NT signature parsed")
	}
}

func TestParseRejectsTiny(t *testing.T) {
	if _, _, err := ParseModule("vm", "x", 0, make([]byte, 16)); err == nil {
		t.Error("16-byte module parsed")
	}
}

func TestParseRejectsHugeLfanew(t *testing.T) {
	m := fetchParsed(t)
	raw := append([]byte(nil), m.Raw...)
	raw[0x3C], raw[0x3D], raw[0x3E], raw[0x3F] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, err := ParseModule("vm", "alpha.sys", m.Base, raw); err == nil {
		t.Error("huge e_lfanew parsed")
	}
}

func TestParseRejectsSectionOutsideModule(t *testing.T) {
	m := fetchParsed(t)
	raw := append([]byte(nil), m.Raw...)
	// Corrupt .text's VirtualSize in the in-memory section table.
	lfanew := uint32(raw[0x3C]) | uint32(raw[0x3D])<<8
	secOff := lfanew + 4 + pe.FileHeaderSize + pe.OptionalHeader32Size
	raw[secOff+8] = 0xFF
	raw[secOff+9] = 0xFF
	raw[secOff+10] = 0xFF
	if _, _, err := ParseModule("vm", "alpha.sys", m.Base, raw); err == nil {
		t.Error("section data beyond module parsed")
	}
}

func TestParseCostScalesWithSize(t *testing.T) {
	m := fetchParsed(t)
	_, cSmall, err := ParseModule("vm", "alpha.sys", m.Base, m.Raw)
	if err != nil {
		t.Fatal(err)
	}
	big := append(append([]byte(nil), m.Raw...), make([]byte, 1<<20)...)
	// Keep structure valid: growth beyond SizeOfImage is ignored by the
	// parser structurally, it only affects the cost input.
	_, cBig, err := ParseModule("vm", "alpha.sys", m.Base, big)
	if err != nil {
		t.Fatal(err)
	}
	if cBig <= cSmall {
		t.Errorf("cost did not scale: %v vs %v", cSmall, cBig)
	}
}

func TestComponentKindString(t *testing.T) {
	for k, want := range map[ComponentKind]string{
		KindDOSHeader:      "IMAGE_DOS_HEADER",
		KindNTHeader:       "IMAGE_NT_HEADER",
		KindOptionalHeader: "IMAGE_OPTIONAL_HEADER",
		KindSectionHeader:  "IMAGE_SECTION_HEADER",
		KindSectionData:    "SECTION_DATA",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(ComponentKind(99).String(), "99") {
		t.Error("unknown kind string")
	}
}
