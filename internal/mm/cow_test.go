package mm

import (
	"bytes"
	"testing"
)

// mustAlloc allocates a frame or fails the test.
func mustAlloc(t *testing.T, m *PhysMemory) uint32 {
	t.Helper()
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	return pfn
}

func TestForkSharesFramesUntilWrite(t *testing.T) {
	m := NewPhysMemory(64*PageSize, 7)
	pfn := mustAlloc(t, m)
	pa := pfn * PageSize
	if err := m.WritePhys(pa, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}

	f := m.Fork()
	if got := f.PrivateFrames(); got != 0 {
		t.Fatalf("fork has %d private frames, want 0", got)
	}
	if m.SharedFrames() != f.SharedFrames() || m.SharedFrames() == 0 {
		t.Fatalf("shared frames: parent %d fork %d", m.SharedFrames(), f.SharedFrames())
	}

	// Both read the shared image.
	pb, fb := make([]byte, 2), make([]byte, 2)
	if err := m.ReadPhys(pa, pb); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPhys(pa, fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, fb) || pb[0] != 0xAA {
		t.Fatalf("parent %x fork %x, want aabb", pb, fb)
	}

	// A write on one side copies the frame; the other side is untouched.
	if err := f.WritePhys(pa, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if got := f.CowFaults(); got != 1 {
		t.Fatalf("fork CowFaults = %d, want 1", got)
	}
	if err := m.ReadPhys(pa, pb); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPhys(pa, fb); err != nil {
		t.Fatal(err)
	}
	if pb[0] != 0xAA || fb[0] != 0xCC {
		t.Fatalf("after CoW write: parent %x fork %x", pb, fb)
	}
	if got := f.PrivateFrames(); got != 1 {
		t.Fatalf("fork has %d private frames after one CoW fault, want 1", got)
	}
}

func TestForkAllocatorsStayAligned(t *testing.T) {
	// Parent and fork share the free order: as long as neither frees
	// frames, their allocation streams stay identical — the property that
	// keeps forked guests' physical layouts deterministic.
	m := NewPhysMemory(256*PageSize, 99)
	for i := 0; i < 10; i++ {
		mustAlloc(t, m)
	}
	f := m.Fork()
	for i := 0; i < 20; i++ {
		a, b := mustAlloc(t, m), mustAlloc(t, f)
		if a != b {
			t.Fatalf("alloc %d diverged: parent %#x fork %#x", i, a, b)
		}
	}
}

func TestForkFreeAndReuseIsPrivate(t *testing.T) {
	m := NewPhysMemory(64*PageSize, 3)
	pfn := mustAlloc(t, m)
	if err := m.WritePhys(pfn*PageSize, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	f := m.Fork()

	// Free the shared frame on the fork: reads there must see zeros while
	// the parent still sees the image.
	if err := f.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := f.ReadPhys(pfn*PageSize, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("freed fork frame reads %#x, want 0", b[0])
	}
	if err := m.ReadPhys(pfn*PageSize, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x77 {
		t.Fatalf("parent frame reads %#x after fork freed its copy, want 0x77", b[0])
	}
	if err := f.FreeFrame(pfn); err == nil {
		t.Fatal("double free of a tombstoned frame succeeded")
	}

	// The freed frame is recycled LIFO and comes back zeroed.
	got := mustAlloc(t, f)
	if got != pfn {
		t.Fatalf("fork recycled %#x, want %#x", got, pfn)
	}
	if err := f.ReadPhys(pfn*PageSize, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("recycled frame reads %#x, want 0", b[0])
	}
}

func TestForkImplicitWriteStealsFromSharedOrder(t *testing.T) {
	m := NewPhysMemory(4*PageSize, 5)
	f := m.Fork()
	// Claim PFN 2 on the fork by raw write; the fork's allocator must skip
	// it while the parent's still hands it out.
	if err := f.WritePhys(2*PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sawOnParent := false
	for i := 0; i < 3; i++ {
		if pfn, err := m.AllocFrame(); err == nil && pfn == 2 {
			sawOnParent = true
		}
	}
	if !sawOnParent {
		t.Fatal("parent allocator never produced PFN 2")
	}
	for i := 0; i < 2; i++ {
		if pfn := mustAlloc(t, f); pfn == 2 {
			t.Fatal("fork allocator handed out stolen PFN 2")
		}
	}
	if _, err := f.AllocFrame(); err != ErrOutOfMemory {
		t.Fatalf("fork alloc after exhaustion: %v, want ErrOutOfMemory", err)
	}
}

func TestFramesInUseAcrossForkAndFree(t *testing.T) {
	m := NewPhysMemory(64*PageSize, 11)
	p1 := mustAlloc(t, m)
	mustAlloc(t, m)
	if got := m.FramesInUse(); got != 2 {
		t.Fatalf("FramesInUse = %d, want 2", got)
	}
	f := m.Fork()
	if got := f.FramesInUse(); got != 2 {
		t.Fatalf("fork FramesInUse = %d, want 2", got)
	}
	if err := f.FreeFrame(p1); err != nil {
		t.Fatal(err)
	}
	if got, want := f.FramesInUse(), 1; got != want {
		t.Fatalf("fork FramesInUse after free = %d, want %d", got, want)
	}
	if got := m.FramesInUse(); got != 2 {
		t.Fatalf("parent FramesInUse changed to %d after fork freed a frame", got)
	}
	// CoW copy does not change the count.
	if err := f.WritePhys(0, []byte{0}); err != nil { // PFN 0: implicit alloc
		t.Fatal(err)
	}
	if got := f.FramesInUse(); got != 2 {
		t.Fatalf("fork FramesInUse after implicit alloc = %d, want 2", got)
	}
}
