package cas

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func tok(id, epoch uint64) Token { return Token{ID: id, Epoch: epoch, OK: true} }

func TestDigestRoundTrip(t *testing.T) {
	s := NewStore(0)
	ref, own := tok(1, 0), tok(2, 0)
	if _, ok := s.LookupDigest("hal.dll", ref, own); ok {
		t.Fatal("hit on empty store")
	}
	s.InsertDigest("hal.dll", ref, own, Entry{Key: "k1", Names: []string{".text", ".data"}})
	e, ok := s.LookupDigest("hal.dll", ref, own)
	if !ok || e.Key != "k1" || len(e.Names) != 2 || e.Names[0] != ".text" {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	// Same tokens, different module: distinct entry.
	if _, ok := s.LookupDigest("ndis.sys", ref, own); ok {
		t.Fatal("module name not part of the key")
	}
	// A different epoch is a different token.
	if _, ok := s.LookupDigest("hal.dll", ref, tok(2, 1)); ok {
		t.Fatal("epoch bump did not invalidate")
	}
	if _, ok := s.LookupDigest("hal.dll", tok(9, 0), own); ok {
		t.Fatal("reference token not part of the key")
	}
}

func TestInvalidTokensNeverHitOrStore(t *testing.T) {
	s := NewStore(0)
	bad := Token{ID: 7}
	s.InsertDigest("hal.dll", bad, tok(1, 0), Entry{Key: "k"})
	s.InsertDigest("hal.dll", tok(1, 0), bad, Entry{Key: "k"})
	s.InsertMismatchFrom(0, "hal.dll", bad, "a", "b", nil)
	if s.Len() != 0 {
		t.Fatalf("stored %d entries under invalid tokens", s.Len())
	}
	if _, ok := s.LookupDigest("hal.dll", bad, bad); ok {
		t.Fatal("invalid token hit")
	}
	if st := s.Stats(); st.Lookups != 0 {
		t.Fatalf("invalid-token lookups were counted: %+v", st)
	}
}

func TestMismatchEmptyListIsAnEntry(t *testing.T) {
	s := NewStore(0)
	ref := tok(3, 1)
	if _, ok := s.LookupMismatchFrom(0, "hal.dll", ref, "", "kA"); ok {
		t.Fatal("hit on empty store")
	}
	s.InsertMismatchFrom(0, "hal.dll", ref, "", "kA", nil)
	mm, ok := s.LookupMismatchFrom(0, "hal.dll", ref, "", "kA")
	if !ok || len(mm) != 0 {
		t.Fatalf("cached match lookup = %v, %v", mm, ok)
	}
	s.InsertMismatchFrom(0, "hal.dll", ref, "kA", "kB", []string{".text"})
	mm, ok = s.LookupMismatchFrom(0, "hal.dll", ref, "kA", "kB")
	if !ok || len(mm) != 1 || mm[0] != ".text" {
		t.Fatalf("cached mismatch lookup = %v, %v", mm, ok)
	}
}

func TestFIFOEviction(t *testing.T) {
	s := NewStore(2)
	ref := tok(1, 0)
	s.InsertDigest("m1", ref, tok(10, 0), Entry{Key: "a"})
	s.InsertDigest("m2", ref, tok(11, 0), Entry{Key: "b"})
	// Overwriting a live entry must not grow the queue or evict.
	s.InsertDigest("m1", ref, tok(10, 0), Entry{Key: "a2"})
	if s.Len() != 2 {
		t.Fatalf("len = %d before eviction", s.Len())
	}
	s.InsertMismatchFrom(0, "m3", ref, "x", "y", nil)
	if s.Len() != 2 {
		t.Fatalf("len = %d after eviction", s.Len())
	}
	// m1 was inserted first: it is the evictee.
	if _, ok := s.LookupDigest("m1", ref, tok(10, 0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if e, ok := s.LookupDigest("m2", ref, tok(11, 0)); !ok || e.Key != "b" {
		t.Fatal("newer entry evicted")
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("evicted = %d", st.Evicted)
	}
}

func TestInsertCopiesCallerSlices(t *testing.T) {
	s := NewStore(0)
	ref := tok(1, 0)
	names := []string{".text"}
	s.InsertDigest("m", ref, ref, Entry{Key: "k", Names: names})
	names[0] = "mutated"
	if e, _ := s.LookupDigest("m", ref, ref); e.Names[0] != ".text" {
		t.Fatal("stored entry aliases the caller's slice")
	}
	mm := []string{".data"}
	s.InsertMismatchFrom(0, "m", ref, "a", "b", mm)
	mm[0] = "mutated"
	if got, _ := s.LookupMismatchFrom(0, "m", ref, "a", "b"); got[0] != ".data" {
		t.Fatal("stored mismatch list aliases the caller's slice")
	}
}

func TestPersistReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	s, err := Open(path, "fp-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tok(5, 2)
	s.InsertDigest("hal.dll", ref, ref, Entry{Key: "", Names: []string{".text"}})
	s.InsertDigest("hal.dll", ref, tok(6, 2), Entry{Key: "kX", Names: []string{".text"}})
	s.InsertMismatchFrom(0, "hal.dll", ref, "", "kX", []string{".text"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, "fp-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); !st.Persistent || st.Loaded != 3 {
		t.Fatalf("reopen stats = %+v", st)
	}
	if e, ok := r.LookupDigest("hal.dll", ref, tok(6, 2)); !ok || e.Key != "kX" {
		t.Fatalf("digest did not survive reopen: %+v, %v", e, ok)
	}
	if mm, ok := r.LookupMismatchFrom(0, "hal.dll", ref, "", "kX"); !ok || len(mm) != 1 || mm[0] != ".text" {
		t.Fatalf("mismatch did not survive reopen: %v, %v", mm, ok)
	}
}

func TestPersistFingerprintMismatchResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	s, err := Open(path, "cloud-A", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tok(1, 0)
	s.InsertDigest("hal.dll", ref, ref, Entry{Key: "k"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same file, different content universe: tokens must not carry over.
	r, err := Open(path, "cloud-B", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Loaded != 0 {
		t.Fatalf("foreign store replayed %d entries", st.Loaded)
	}
	if _, ok := r.LookupDigest("hal.dll", ref, ref); ok {
		t.Fatal("foreign-fingerprint entry served")
	}
	r.InsertDigest("ndis.sys", ref, ref, Entry{Key: "k2"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The reset file reopens under the new fingerprint with only new data.
	r2, err := Open(path, "cloud-B", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Stats(); st.Loaded != 1 {
		t.Fatalf("reset store replayed %d entries", st.Loaded)
	}
}

func TestPersistTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	s, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tok(1, 0)
	s.InsertDigest("hal.dll", ref, ref, Entry{Key: "k1"})
	s.InsertDigest("ndis.sys", ref, ref, Entry{Key: "k2"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the final record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := int64(len(raw))
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Loaded != 1 {
		t.Fatalf("torn log replayed %d entries", st.Loaded)
	}
	if _, ok := r.LookupDigest("hal.dll", ref, ref); !ok {
		t.Fatal("whole record lost with the torn tail")
	}
	if _, ok := r.LookupDigest("ndis.sys", ref, ref); ok {
		t.Fatal("torn record served")
	}
	// New appends land at the truncated end and survive the next reopen.
	r.InsertDigest("ntfs.sys", ref, ref, Entry{Key: "k3"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Stats(); st.Loaded != 2 {
		t.Fatalf("post-repair reopen replayed %d entries", st.Loaded)
	}
	if _, ok := r2.LookupDigest("ntfs.sys", ref, ref); !ok {
		t.Fatal("append after repair lost")
	}
	_ = whole
}

func TestPersistCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	s, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := tok(1, 0)
	s.InsertDigest("hal.dll", ref, ref, Entry{Key: "k1"})
	s.InsertDigest("ndis.sys", ref, ref, Entry{Key: "k2"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the second record: its CRC no longer
	// matches, so replay must stop before it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := len(logMagic) + 4 + len("fp")
	rec1 := 5 + int(binary.BigEndian.Uint32(raw[header+1:])) + 4
	raw[header+rec1+5+4] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Loaded != 1 {
		t.Fatalf("corrupt log replayed %d entries", st.Loaded)
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "no", "such", "dir", "x.cas"), "fp", 0); err == nil {
		t.Fatal("expected error for missing parent directory")
	}
}

// TestLookupsAllocateNoKey checks that lookups index the maps with keys
// built on the stack: a hit or a miss allocates nothing.
func TestLookupsAllocateNoKey(t *testing.T) {
	s := NewStore(0)
	ref, own := tok(1, 0), tok(2, 0)
	ka, kb := "0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210"
	s.InsertDigest("hal.dll", ref, own, Entry{Key: ka})
	s.InsertMismatchFrom(0, "hal.dll", ref, ka, kb, []string{".text"})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.LookupDigest("hal.dll", ref, own); !ok {
			t.Fatal("digest missed")
		}
		if _, ok := s.LookupDigest("ndis.sys", ref, own); ok {
			t.Fatal("digest hit another module")
		}
		if _, ok := s.LookupMismatchFrom(0, "hal.dll", ref, ka, kb); !ok {
			t.Fatal("mismatch missed")
		}
		if _, ok := s.LookupMismatchFrom(0, "hal.dll", ref, kb, ka); ok {
			t.Fatal("mismatch hit swapped keys")
		}
	})
	if allocs != 0 {
		t.Errorf("lookups made %v allocations, want 0", allocs)
	}
}

// TestSourcesKeepApart: a record of one source never answers a lookup of
// another, in memory or after a reopen, since a cluster key means
// different things under different normalizers.
func TestSourcesKeepApart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	s, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, own := tok(1, 0), tok(2, 0)
	s.InsertDigestFrom(1, "hal.dll", ref, own, Entry{Key: "", Names: []string{".text"}})
	s.InsertMismatchFrom(1, "hal.dll", ref, "", "kX", []string{".text"})
	for _, st := range []*Store{s, nil} {
		if st == nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(path, "fp", 0); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
		}
		if _, ok := st.LookupDigest("hal.dll", ref, own); ok {
			t.Error("the other source's digest entry answered a diff-scan lookup")
		}
		if _, ok := st.LookupMismatchFrom(0, "hal.dll", ref, "", "kX"); ok {
			t.Error("the other source's mismatch entry answered a diff-scan lookup")
		}
		if _, ok := st.LookupDigestFrom(1, "hal.dll", ref, own); !ok {
			t.Error("the digest entry does not answer its own source")
		}
		if _, ok := st.LookupMismatchFrom(1, "hal.dll", ref, "", "kX"); !ok {
			t.Error("the mismatch entry does not answer its own source")
		}
	}
}

// TestPersistVersion1LogResets: a log written in the format before records
// named their source, whose "" entries meant the reference alone, is reset
// on open instead of replayed.
func TestPersistVersion1LogResets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "digests.cas")
	v1 := append([]byte("MODCAS\x01"), binary.BigEndian.AppendUint32(nil, 2)...)
	v1 = append(v1, "fp"...)
	var enc encoder
	enc.str("hal.dll")
	enc.token(tok(1, 0))
	enc.token(tok(1, 0))
	enc.str("")
	enc.strs([]string{".text"})
	v1 = append(v1, kindDigest)
	v1 = binary.BigEndian.AppendUint32(v1, uint32(len(enc.buf)))
	v1 = append(v1, enc.buf...)
	v1 = binary.BigEndian.AppendUint32(v1, crc32.ChecksumIEEE(enc.buf))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Loaded != 0 {
		t.Fatalf("a version-1 log replayed %d entries", st.Loaded)
	}
	if _, ok := s.LookupDigest("hal.dll", tok(1, 0), tok(1, 0)); ok {
		t.Fatal("a version-1 entry was served")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(encodeHeader("fp")) || string(raw[:len(logMagic)]) == string(v1[:len(logMagic)]) {
		t.Fatalf("the reset log holds %q, want only a header of the current version", raw)
	}
}
