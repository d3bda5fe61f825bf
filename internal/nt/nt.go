// Package nt defines the byte-exact layouts of the Windows kernel
// structures that ModChecker's Module-Searcher traverses inside guest
// memory: LIST_ENTRY, UNICODE_STRING and LDR_DATA_TABLE_ENTRY, plus the
// PsLoadedModuleList convention that links loaded kernel modules into a
// doubly linked list (paper Figure 2).
//
// The offsets match 32-bit Windows XP SP2. Structures are encoded to and
// decoded from raw byte slices; callers move those bytes through guest
// memory (the guest kernel when booting, the VMI layer when introspecting).
package nt

import (
	"encoding/binary"
	"fmt"
	"unicode/utf16"
)

// Structure sizes and field offsets (32-bit XP SP2 layouts).
const (
	// ListEntrySize is sizeof(LIST_ENTRY): Flink + Blink pointers.
	ListEntrySize = 8
	// UnicodeStringSize is sizeof(UNICODE_STRING).
	UnicodeStringSize = 8
	// LdrDataTableEntrySize is the portion of LDR_DATA_TABLE_ENTRY the
	// loader list machinery uses (through TlsIndex, padded to 0x50).
	LdrDataTableEntrySize = 0x50

	// Field offsets within LDR_DATA_TABLE_ENTRY.
	OffInLoadOrderLinks   = 0x00
	OffInMemoryOrderLinks = 0x08
	OffInInitOrderLinks   = 0x10
	OffDllBase            = 0x18
	OffEntryPoint         = 0x1C
	OffSizeOfImage        = 0x20
	OffFullDllName        = 0x24
	OffBaseDllName        = 0x2C
	OffFlags              = 0x34
	OffLoadCount          = 0x38
	OffTlsIndex           = 0x3A
)

// ListEntry is LIST_ENTRY: the forward (FLINK) and backward (BLINK)
// pointers of an intrusive doubly linked list. In PsLoadedModuleList each
// pointer holds the guest virtual address of the *InLoadOrderLinks field*
// of the neighboring LDR_DATA_TABLE_ENTRY (not of the entry's start —
// though for loader entries the field is at offset 0, the distinction
// matters for code reading other lists).
type ListEntry struct {
	Flink uint32
	Blink uint32
}

// EncodeListEntry serializes e into an 8-byte little-endian buffer.
func EncodeListEntry(e ListEntry) []byte {
	b := make([]byte, ListEntrySize)
	binary.LittleEndian.PutUint32(b[0:], e.Flink)
	binary.LittleEndian.PutUint32(b[4:], e.Blink)
	return b
}

// DecodeListEntry parses an 8-byte LIST_ENTRY.
func DecodeListEntry(b []byte) (ListEntry, error) {
	if len(b) < ListEntrySize {
		return ListEntry{}, fmt.Errorf("nt: LIST_ENTRY needs %d bytes, have %d", ListEntrySize, len(b))
	}
	return listEntryAt(b, 0), nil
}

// listEntryAt decodes the LIST_ENTRY at b[off:], which must hold it.
func listEntryAt(b []byte, off int) ListEntry {
	return ListEntry{
		Flink: binary.LittleEndian.Uint32(b[off:]),
		Blink: binary.LittleEndian.Uint32(b[off+4:]),
	}
}

// UnicodeString is UNICODE_STRING: a counted UTF-16LE string. Length and
// MaximumLength are in bytes; Buffer is the guest VA of the character data.
type UnicodeString struct {
	Length        uint16
	MaximumLength uint16
	Buffer        uint32
}

// EncodeUnicodeString serializes s into an 8-byte buffer.
func EncodeUnicodeString(s UnicodeString) []byte {
	b := make([]byte, UnicodeStringSize)
	binary.LittleEndian.PutUint16(b[0:], s.Length)
	binary.LittleEndian.PutUint16(b[2:], s.MaximumLength)
	binary.LittleEndian.PutUint32(b[4:], s.Buffer)
	return b
}

// DecodeUnicodeString parses an 8-byte UNICODE_STRING header.
func DecodeUnicodeString(b []byte) (UnicodeString, error) {
	if len(b) < UnicodeStringSize {
		return UnicodeString{}, fmt.Errorf("nt: UNICODE_STRING needs %d bytes, have %d", UnicodeStringSize, len(b))
	}
	return unicodeStringAt(b, 0), nil
}

// unicodeStringAt decodes the UNICODE_STRING header at b[off:], which must
// hold it.
func unicodeStringAt(b []byte, off int) UnicodeString {
	return UnicodeString{
		Length:        binary.LittleEndian.Uint16(b[off:]),
		MaximumLength: binary.LittleEndian.Uint16(b[off+2:]),
		Buffer:        binary.LittleEndian.Uint32(b[off+4:]),
	}
}

// EncodeUTF16 converts a Go string to UTF-16LE bytes (no terminator), the
// encoding of UNICODE_STRING buffers.
func EncodeUTF16(s string) []byte {
	u := utf16.Encode([]rune(s))
	b := make([]byte, 2*len(u))
	for i, c := range u {
		binary.LittleEndian.PutUint16(b[2*i:], c)
	}
	return b
}

// DecodeUTF16 converts UTF-16LE bytes back to a Go string. Odd trailing
// bytes are rejected.
func DecodeUTF16(b []byte) (string, error) {
	if len(b)%2 != 0 {
		return "", fmt.Errorf("nt: UTF-16 buffer has odd length %d", len(b))
	}
	u := make([]uint16, len(b)/2)
	for i := range u {
		u[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return string(utf16.Decode(u)), nil
}

// LdrDataTableEntry is LDR_DATA_TABLE_ENTRY, the node type of
// PsLoadedModuleList. Every loaded kernel module has one; Module-Searcher
// walks InLoadOrderLinks and matches BaseDllName (paper Section IV-A).
type LdrDataTableEntry struct {
	InLoadOrderLinks           ListEntry
	InMemoryOrderLinks         ListEntry
	InInitializationOrderLinks ListEntry
	DllBase                    uint32 // guest VA of the module's first byte
	EntryPoint                 uint32
	SizeOfImage                uint32
	FullDllName                UnicodeString
	BaseDllName                UnicodeString
	Flags                      uint32
	LoadCount                  uint16
	TlsIndex                   uint16
}

// Encode serializes the entry into LdrDataTableEntrySize bytes.
func (e *LdrDataTableEntry) Encode() []byte {
	b := make([]byte, LdrDataTableEntrySize)
	copy(b[OffInLoadOrderLinks:], EncodeListEntry(e.InLoadOrderLinks))
	copy(b[OffInMemoryOrderLinks:], EncodeListEntry(e.InMemoryOrderLinks))
	copy(b[OffInInitOrderLinks:], EncodeListEntry(e.InInitializationOrderLinks))
	binary.LittleEndian.PutUint32(b[OffDllBase:], e.DllBase)
	binary.LittleEndian.PutUint32(b[OffEntryPoint:], e.EntryPoint)
	binary.LittleEndian.PutUint32(b[OffSizeOfImage:], e.SizeOfImage)
	copy(b[OffFullDllName:], EncodeUnicodeString(e.FullDllName))
	copy(b[OffBaseDllName:], EncodeUnicodeString(e.BaseDllName))
	binary.LittleEndian.PutUint32(b[OffFlags:], e.Flags)
	binary.LittleEndian.PutUint16(b[OffLoadCount:], e.LoadCount)
	binary.LittleEndian.PutUint16(b[OffTlsIndex:], e.TlsIndex)
	return b
}

// DecodeLdrDataTableEntry parses an LDR_DATA_TABLE_ENTRY from raw guest
// bytes. The entry is returned by value, so a list walk that decodes every
// entry from one buffer allocates nothing per entry.
func DecodeLdrDataTableEntry(b []byte) (LdrDataTableEntry, error) {
	if len(b) < LdrDataTableEntrySize {
		return LdrDataTableEntry{}, fmt.Errorf("nt: LDR_DATA_TABLE_ENTRY needs %#x bytes, have %#x",
			LdrDataTableEntrySize, len(b))
	}
	le := binary.LittleEndian
	return LdrDataTableEntry{
		InLoadOrderLinks:           listEntryAt(b, OffInLoadOrderLinks),
		InMemoryOrderLinks:         listEntryAt(b, OffInMemoryOrderLinks),
		InInitializationOrderLinks: listEntryAt(b, OffInInitOrderLinks),
		DllBase:                    le.Uint32(b[OffDllBase:]),
		EntryPoint:                 le.Uint32(b[OffEntryPoint:]),
		SizeOfImage:                le.Uint32(b[OffSizeOfImage:]),
		FullDllName:                unicodeStringAt(b, OffFullDllName),
		BaseDllName:                unicodeStringAt(b, OffBaseDllName),
		Flags:                      le.Uint32(b[OffFlags:]),
		LoadCount:                  le.Uint16(b[OffLoadCount:]),
		TlsIndex:                   le.Uint16(b[OffTlsIndex:]),
	}, nil
}
