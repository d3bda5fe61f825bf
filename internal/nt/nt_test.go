package nt

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestListEntryRoundTrip(t *testing.T) {
	e := ListEntry{Flink: 0x8055A420, Blink: 0x81234568}
	b := EncodeListEntry(e)
	if len(b) != ListEntrySize {
		t.Fatalf("encoded %d bytes", len(b))
	}
	back, err := DecodeListEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip %+v != %+v", back, e)
	}
}

func TestListEntryLayout(t *testing.T) {
	b := EncodeListEntry(ListEntry{Flink: 0x11223344, Blink: 0x55667788})
	if binary.LittleEndian.Uint32(b[0:]) != 0x11223344 {
		t.Error("FLINK not at offset 0")
	}
	if binary.LittleEndian.Uint32(b[4:]) != 0x55667788 {
		t.Error("BLINK not at offset 4")
	}
}

func TestListEntryShortBuffer(t *testing.T) {
	if _, err := DecodeListEntry(make([]byte, 7)); err == nil {
		t.Error("7-byte LIST_ENTRY decoded")
	}
}

func TestUnicodeStringRoundTrip(t *testing.T) {
	s := UnicodeString{Length: 14, MaximumLength: 16, Buffer: 0x81001000}
	back, err := DecodeUnicodeString(EncodeUnicodeString(s))
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("%+v != %+v", back, s)
	}
}

func TestUnicodeStringShortBuffer(t *testing.T) {
	if _, err := DecodeUnicodeString(make([]byte, 4)); err == nil {
		t.Error("4-byte UNICODE_STRING decoded")
	}
}

func TestUTF16RoundTrip(t *testing.T) {
	for _, s := range []string{"", "hal.dll", "http.sys", `\SystemRoot\System32\drivers\ntfs.sys`, "面白いドライバ"} {
		b := EncodeUTF16(s)
		back, err := DecodeUTF16(b)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if back != s {
			t.Errorf("round trip %q -> %q", s, back)
		}
	}
}

func TestUTF16LittleEndian(t *testing.T) {
	b := EncodeUTF16("A")
	if !bytes.Equal(b, []byte{0x41, 0x00}) {
		t.Errorf("encoded % x", b)
	}
}

func TestUTF16OddLength(t *testing.T) {
	if _, err := DecodeUTF16([]byte{0x41, 0x00, 0x42}); err == nil {
		t.Error("odd-length UTF-16 decoded")
	}
}

func TestLdrEntryRoundTrip(t *testing.T) {
	e := LdrDataTableEntry{
		InLoadOrderLinks:           ListEntry{Flink: 1, Blink: 2},
		InMemoryOrderLinks:         ListEntry{Flink: 3, Blink: 4},
		InInitializationOrderLinks: ListEntry{Flink: 5, Blink: 6},
		DllBase:                    0xF8CC2000,
		EntryPoint:                 0xF8CC3010,
		SizeOfImage:                0x24000,
		FullDllName:                UnicodeString{Length: 20, MaximumLength: 22, Buffer: 0x81000100},
		BaseDllName:                UnicodeString{Length: 14, MaximumLength: 14, Buffer: 0x81000200},
		Flags:                      0x09004000,
		LoadCount:                  1,
		TlsIndex:                   0xFFFF,
	}
	b := e.Encode()
	if len(b) != LdrDataTableEntrySize {
		t.Fatalf("encoded %d bytes", len(b))
	}
	back, err := DecodeLdrDataTableEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, e)
	}
}

// TestLdrEntryXPOffsets pins the field offsets to the published 32-bit XP
// SP2 layout; introspection tools hardcode these, so they must never move.
func TestLdrEntryXPOffsets(t *testing.T) {
	e := LdrDataTableEntry{
		DllBase:     0xAABBCCDD,
		EntryPoint:  0x11223344,
		SizeOfImage: 0x55667788,
		BaseDllName: UnicodeString{Length: 0x1234, MaximumLength: 0x5678, Buffer: 0x9ABCDEF0},
	}
	b := e.Encode()
	le := binary.LittleEndian
	if got := le.Uint32(b[0x18:]); got != 0xAABBCCDD {
		t.Errorf("DllBase at 0x18 = %#x", got)
	}
	if got := le.Uint32(b[0x1C:]); got != 0x11223344 {
		t.Errorf("EntryPoint at 0x1C = %#x", got)
	}
	if got := le.Uint32(b[0x20:]); got != 0x55667788 {
		t.Errorf("SizeOfImage at 0x20 = %#x", got)
	}
	if got := le.Uint16(b[0x2C:]); got != 0x1234 {
		t.Errorf("BaseDllName.Length at 0x2C = %#x", got)
	}
	if got := le.Uint32(b[0x30:]); got != 0x9ABCDEF0 {
		t.Errorf("BaseDllName.Buffer at 0x30 = %#x", got)
	}
}

func TestLdrEntryShortBuffer(t *testing.T) {
	if _, err := DecodeLdrDataTableEntry(make([]byte, LdrDataTableEntrySize-1)); err == nil {
		t.Error("short LDR entry decoded")
	}
}

func TestLdrEntryQuick(t *testing.T) {
	f := func(base, entry, size, flags uint32, load, tls uint16) bool {
		e := LdrDataTableEntry{
			DllBase: base, EntryPoint: entry, SizeOfImage: size,
			Flags: flags, LoadCount: load, TlsIndex: tls,
		}
		back, err := DecodeLdrDataTableEntry(e.Encode())
		return err == nil && back == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUTF16Quick(t *testing.T) {
	f := func(s string) bool {
		back, err := DecodeUTF16(EncodeUTF16(s))
		if err != nil {
			return false
		}
		// Round trip is exact for strings without unpaired surrogates;
		// quick generates valid UTF-8 Go strings, which may contain any
		// runes — compare decoded forms.
		return back == string([]rune(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
