package mm

import "testing"

// buildImage writes a small deterministic image into fresh memory.
func buildImage(t *testing.T, payload []byte) (*PhysMemory, uint32) {
	t.Helper()
	m := NewPhysMemory(64*PageSize, 7)
	pfn := mustAlloc(t, m)
	if err := m.WritePhys(pfn*PageSize, payload); err != nil {
		t.Fatal(err)
	}
	return m, pfn
}

func TestContentIDStableAcrossRebuilds(t *testing.T) {
	a, _ := buildImage(t, []byte{0xAA, 0xBB, 0xCC})
	b, _ := buildImage(t, []byte{0xAA, 0xBB, 0xCC})

	if _, ok := a.ContentID(); ok {
		t.Fatal("unfrozen memory reported a ContentID")
	}
	a.Seal()
	b.Seal()

	ida, oka := a.ContentID()
	idb, okb := b.ContentID()
	if !oka || !okb {
		t.Fatalf("sealed memories report no ContentID: %v %v", oka, okb)
	}
	if ida != idb {
		t.Fatalf("identical images fingerprint differently: %#x vs %#x", ida, idb)
	}
}

func TestContentIDTracksContent(t *testing.T) {
	a, _ := buildImage(t, []byte{0xAA, 0xBB, 0xCC})
	b, pfn := buildImage(t, []byte{0xAA, 0xBB, 0xCC})
	a.Seal()
	b.Seal()
	ida, _ := a.ContentID()

	// A write invalidates the identity until the next Seal, which mints a
	// fresh fingerprint for the changed bytes.
	if err := b.WritePhys(pfn*PageSize, []byte{0xDD}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.ContentID(); ok {
		t.Fatal("dirtied memory still reported a ContentID")
	}
	b.Seal()
	idb, ok := b.ContentID()
	if !ok {
		t.Fatal("resealed memory reports no ContentID")
	}
	if idb == ida {
		t.Fatalf("changed image kept fingerprint %#x", ida)
	}

	// Forking the dirtied memory freezes a new, distinct image.
	if err := b.WritePhys(pfn*PageSize, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	f := b.Fork()
	if id, ok := f.ContentID(); !ok || id == ida || id == idb {
		t.Fatalf("re-fork id %#x (ok %v), want a fresh id", id, ok)
	}
}

func TestContentIDSharedByForks(t *testing.T) {
	m, pfn := buildImage(t, []byte{0x11, 0x22})
	f := m.Fork()
	f2 := m.Fork()
	idm, okm := m.ContentID()
	idf, okf := f.ContentID()
	if !okm || !okf || idm != idf {
		t.Fatalf("parent/fork ContentID: %#x(%v) vs %#x(%v)", idm, okm, idf, okf)
	}
	if refs := m.BaseRefs(); refs != 3 {
		t.Fatalf("BaseRefs = %d, want 3", refs)
	}

	// Dirtying one fork drops only that fork's identity.
	if err := f2.WritePhys(pfn*PageSize, []byte{0x33}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.ContentID(); ok {
		t.Fatal("dirtied fork still reports a ContentID")
	}
	if id, ok := f.ContentID(); !ok || id != idm {
		t.Fatalf("clean sibling lost its ContentID: %#x(%v)", id, ok)
	}

	// Sealing an unmodified fork is a no-op: same layer, same identity.
	f.Seal()
	if id, ok := f.ContentID(); !ok || id != idm {
		t.Fatalf("reseal of clean fork changed identity: %#x(%v)", id, ok)
	}
}

// TestSealIntoSharesFrames: memories sealed through one FrameSet keep one
// copy of each frame they hold byte for byte, at whatever PFN, and nothing
// a reader sees moves: ContentIDs equal those of the same images sealed
// alone, a frame that differs is not shared, and a write to a shared frame
// lands in the writer's overlay only.
func TestSealIntoSharesFrames(t *testing.T) {
	same, other := []byte("shared frame"), []byte("own frame")
	build := func(sameAt int) (*PhysMemory, uint32, uint32) {
		m := NewPhysMemory(64*PageSize, int64(sameAt))
		var pfns []uint32
		for i := 0; i < 3; i++ {
			pfns = append(pfns, mustAlloc(t, m))
		}
		if err := m.WritePhys(pfns[sameAt]*PageSize, same); err != nil {
			t.Fatal(err)
		}
		own := pfns[(sameAt+1)%3]
		if err := m.WritePhys(own*PageSize, append(other, byte(sameAt))); err != nil {
			t.Fatal(err)
		}
		return m, pfns[sameAt], own
	}
	var set FrameSet
	a, aSame, aOwn := build(0)
	b, bSame, bOwn := build(2)
	a.SealInto(&set)
	b.SealInto(&set)
	for m, at := range map[*PhysMemory]int{a: 0, b: 2} {
		alone, _, _ := build(at)
		alone.Seal()
		id, ok := m.ContentID()
		want, _ := alone.ContentID()
		if !ok || id != want {
			t.Fatalf("ContentID through the set %#x (%v), want %#x as sealed alone", id, ok, want)
		}
	}
	shared := func(pa, pb uint32) (s bool) {
		if err := a.ViewPhys(pa*PageSize, 1, func(fa []byte) {
			if err := b.ViewPhys(pb*PageSize, 1, func(fb []byte) { s = &fa[0] == &fb[0] }); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if !shared(aSame, bSame) {
		t.Error("byte-identical frames are not shared")
	}
	if shared(aOwn, bOwn) {
		t.Error("differing frames are shared")
	}
	if err := b.WritePhys(bSame*PageSize, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(same))
	if err := a.ReadPhys(aSame*PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(same) || shared(aSame, bSame) {
		t.Errorf("a write to b's shared frame reached a: %q", got)
	}
}
