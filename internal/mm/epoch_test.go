package mm_test

import (
	"runtime"
	"sync"
	"testing"

	"modchecker/internal/guest"
	"modchecker/internal/mm"
)

// epochFixture is one memory in a known identity state, plus the PFN of a
// frame holding data.
type epochFixture struct {
	m   *mm.PhysMemory
	pfn uint32
}

// neverFrozen returns a booted-style memory with one written frame and no
// base layer: ContentID never answers ok.
func neverFrozen(t *testing.T) *epochFixture {
	t.Helper()
	m := mm.NewPhysMemory(64*mm.PageSize, 7)
	pfn, err := m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(pfn*mm.PageSize, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	return &epochFixture{m: m, pfn: pfn}
}

// cleanFork returns a fork of neverFrozen's memory: identified, empty
// overlay, the data frame shared with the base.
func cleanFork(t *testing.T) *epochFixture {
	t.Helper()
	f := neverFrozen(t)
	return &epochFixture{m: f.m.Fork(), pfn: f.pfn}
}

// dirtyFork returns a clean fork after one CoW write.
func dirtyFork(t *testing.T) *epochFixture {
	t.Helper()
	f := cleanFork(t)
	f.write(t, 0xCC)
	return f
}

func (f *epochFixture) write(t *testing.T, b byte) {
	t.Helper()
	if err := f.m.WritePhys(f.pfn*mm.PageSize, []byte{b}); err != nil {
		t.Fatal(err)
	}
}

func (f *epochFixture) alloc(t *testing.T) uint32 {
	t.Helper()
	pfn, err := f.m.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	return pfn
}

func (f *epochFixture) free(t *testing.T, pfn uint32) {
	t.Helper()
	if err := f.m.FreeFrame(pfn); err != nil {
		t.Fatal(err)
	}
}

// identityOf is a ContentID answer, compared before and after a mutation.
type identityOf struct {
	id uint64
	ok bool
}

// TestIdentityEpochMovesExactlyOnIdentityChange drives every mutator of
// guest-physical memory from each identity state it can meet and checks
// the process-wide identity epoch against ContentID: it must move whenever
// the answer may change (a freeze, an overlay emptying or filling on a
// frozen memory, a new memory published), and stay put for writes to an
// already-dirty or never-frozen memory, so a guest that keeps writing
// costs a deduplicating sweep one regroup, not one per sweep.
func TestIdentityEpochMovesExactlyOnIdentityChange(t *testing.T) {
	cases := []struct {
		name string
		// prepare builds the state and returns the memory whose answer is
		// observed (re-read after the mutation, which may replace it) and
		// the mutation.
		prepare func(t *testing.T) (observe func() *mm.PhysMemory, mutate func())
		move    bool
	}{
		{"AllocFrame on a clean fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.alloc(t) }
		}, true},
		{"AllocFrame on a dirty fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.alloc(t) }
		}, false},
		{"AllocFrame on a never-frozen memory", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := neverFrozen(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.alloc(t) }
		}, false},
		{"CoW write on a clean fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.write(t, 0xDD) }
		}, true},
		{"second write to a dirty fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.write(t, 0xDD) }
		}, false},
		{"write to a never-frozen memory", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := neverFrozen(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.write(t, 0xDD) }
		}, false},
		{"FreeFrame of a shared frame on a clean fork (tombstone)", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.free(t, f.pfn) }
		}, true},
		{"write to a tombstoned frame", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			f.free(t, f.pfn)
			return func() *mm.PhysMemory { return f.m }, func() { f.write(t, 0xDD) }
		}, false},
		{"FreeFrame emptying the overlay", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			pfn := f.alloc(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.free(t, pfn) }
		}, true},
		{"FreeFrame leaving the overlay dirty", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			pfn := f.alloc(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.free(t, pfn) }
		}, false},
		{"FreeFrame on a never-frozen memory", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := neverFrozen(t)
			pfn := f.alloc(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.free(t, pfn) }
		}, false},
		{"Seal after writes", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			return func() *mm.PhysMemory { return f.m }, f.m.Seal
		}, true},
		{"Seal of a never-frozen memory", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := neverFrozen(t)
			return func() *mm.PhysMemory { return f.m }, f.m.Seal
		}, true},
		{"Seal of an unmodified fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			return func() *mm.PhysMemory { return f.m }, f.m.Seal
		}, false},
		{"SealOnce of a never-frozen memory", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := neverFrozen(t)
			return func() *mm.PhysMemory { return f.m }, f.m.SealOnce
		}, true},
		{"SealOnce after writes", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			return func() *mm.PhysMemory { return f.m }, f.m.SealOnce
		}, false},
		{"Fork of an unmodified fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := cleanFork(t)
			var child *mm.PhysMemory
			return func() *mm.PhysMemory {
				if child != nil {
					return child
				}
				return f.m
			}, func() { child = f.m.Fork() }
		}, true},
		{"Clone of a dirty fork", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			f := dirtyFork(t)
			return func() *mm.PhysMemory { return f.m }, func() { f.m.Clone() }
		}, true},
		{"guest.Restore", func(t *testing.T) (func() *mm.PhysMemory, func()) {
			g := epochGuest(t)
			snap := g.Snapshot()
			if err := g.Phys().WritePhys(0x1000, []byte{0xEE}); err != nil {
				t.Fatal(err)
			}
			return g.Phys, func() { g.Restore(snap) }
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			observe, mutate := c.prepare(t)
			var before identityOf
			before.id, before.ok = observe().ContentID()
			epoch := mm.IdentityEpoch()
			mutate()
			moved := mm.IdentityEpoch() != epoch
			var after identityOf
			after.id, after.ok = observe().ContentID()
			if moved != c.move {
				t.Errorf("epoch moved = %v, want %v (ContentID %+v -> %+v)", moved, c.move, before, after)
			}
			if before != after && !moved {
				t.Errorf("ContentID changed %+v -> %+v without an epoch move", before, after)
			}
		})
	}
}

// TestRestoreEpochConcurrentReaders restores a guest in a loop while
// readers take its memory the way the hypervisor's introspection path does:
// Restore must publish the new memory and address space without racing
// Phys and CR3 (run under -race), and a reader must always see a memory
// whose pages read back.
func TestRestoreEpochConcurrentReaders(t *testing.T) {
	g := epochGuest(t)
	snap := g.Snapshot()
	stop := make(chan struct{})
	var readers, started sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			var b [4]byte
			for i := 0; ; i++ {
				g.Phys().ContentID()
				if err := g.Phys().ReadPhys(g.CR3(), b[:]); err != nil {
					t.Error(err)
				}
				if i == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for i := 0; i < 50; i++ {
		g.Restore(snap)
		runtime.Gosched()
	}
	close(stop)
	readers.Wait()
}

// epochGuest boots a small guest on a one-module disk.
func epochGuest(t *testing.T) *guest.Guest {
	t.Helper()
	img, err := guest.BuildImage(guest.ModuleSpec{Name: "alpha.sys", TextSize: 8 << 10,
		DataSize: 4 << 10, RdataSize: 2 << 10, PreferredBase: 0x10000})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guest.New(guest.Config{Name: "vm1", MemBytes: 16 << 20, BootSeed: 7,
		Disk: map[string][]byte{"alpha.sys": img}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
