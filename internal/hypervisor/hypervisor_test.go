package hypervisor

import (
	"errors"
	"sync"
	"testing"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
)

func testDisk(t testing.TB) map[string][]byte {
	t.Helper()
	img, err := guest.BuildImage(guest.ModuleSpec{
		Name: "alpha.sys", TextSize: 8 << 10, DataSize: 2 << 10, RdataSize: 1 << 10,
		PreferredBase: 0x10000, Marker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"alpha.sys": img}
}

func newHV(t testing.TB, n int) (*Hypervisor, []*Domain) {
	t.Helper()
	hv := New(8)
	doms, err := hv.CloneDomains("Dom", n, testDisk(t), 16<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	return hv, doms
}

func TestDefaultCores(t *testing.T) {
	if New(0).Cores() != DefaultCores {
		t.Error("default cores not applied")
	}
	if New(4).Cores() != 4 {
		t.Error("explicit cores not applied")
	}
}

func TestCloneDomains(t *testing.T) {
	hv, doms := newHV(t, 5)
	if len(doms) != 5 {
		t.Fatalf("%d domains", len(doms))
	}
	for i, d := range doms {
		if d.Name != "Dom"+string(rune('1'+i)) {
			t.Errorf("domain %d named %q", i, d.Name)
		}
		if d.ID != i {
			t.Errorf("domain %s ID = %d", d.Name, d.ID)
		}
	}
	if got := hv.Domains(); len(got) != 5 || got[0].Name != "Dom1" {
		t.Errorf("Domains() = %v", got)
	}
}

func TestClonesAreDistinctGuests(t *testing.T) {
	_, doms := newHV(t, 2)
	b1 := doms[0].Guest().Module("alpha.sys").Base
	b2 := doms[1].Guest().Module("alpha.sys").Base
	if b1 == b2 {
		t.Error("clones loaded the module at the same base")
	}
}

func TestCreateDomainDuplicate(t *testing.T) {
	hv := New(8)
	cfg := guest.Config{Name: "A", MemBytes: 16 << 20, BootSeed: 1, Disk: testDisk(t)}
	if _, err := hv.CreateDomain(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := hv.CreateDomain(cfg); err == nil {
		t.Error("duplicate domain accepted")
	}
}

func TestDomainLookupAndDestroy(t *testing.T) {
	hv, _ := newHV(t, 3)
	if hv.Domain("Dom2") == nil {
		t.Fatal("Dom2 missing")
	}
	if hv.Domain("DomX") != nil {
		t.Error("bogus domain found")
	}
	if err := hv.DestroyDomain("Dom2"); err != nil {
		t.Fatal(err)
	}
	if hv.Domain("Dom2") != nil {
		t.Error("destroyed domain still present")
	}
	if err := hv.DestroyDomain("Dom2"); err == nil {
		t.Error("double destroy succeeded")
	}
}

func TestSlowdownIdle(t *testing.T) {
	hv, _ := newHV(t, 15)
	if s := hv.Slowdown(); s != 1 {
		t.Errorf("idle slowdown = %.2f, want 1", s)
	}
}

func TestSlowdownBelowCoreCount(t *testing.T) {
	hv, doms := newHV(t, 15)
	// 6 loaded VMs + 1 Dom0 vCPU = 7 <= 8 cores.
	for i := 0; i < 6; i++ {
		doms[i].Guest().SetLoad(1, 0, 0, 0)
	}
	if s := hv.Slowdown(); s != 1 {
		t.Errorf("slowdown with 6 loaded VMs = %.2f, want 1", s)
	}
}

func TestSlowdownKnee(t *testing.T) {
	hv, doms := newHV(t, 15)
	var prev float64 = 1
	for i := 0; i < 15; i++ {
		doms[i].Guest().SetLoad(1, 0, 0, 0)
		s := hv.Slowdown()
		if s < prev {
			t.Errorf("slowdown decreased at %d loaded VMs: %.3f < %.3f", i+1, s, prev)
		}
		prev = s
	}
	if prev <= 1.5 {
		t.Errorf("slowdown with 15 loaded VMs on 8 cores = %.2f, expected heavy contention", prev)
	}
	// Superlinearity: the jump from 14->15 exceeds the jump 8->9.
	for i := range doms {
		doms[i].Guest().SetLoad(0, 0, 0, 0)
	}
	at := func(n int) float64 {
		for i := 0; i < n; i++ {
			doms[i].Guest().SetLoad(1, 0, 0, 0)
		}
		s := hv.Slowdown()
		for i := 0; i < n; i++ {
			doms[i].Guest().SetLoad(0, 0, 0, 0)
		}
		return s
	}
	if at(15)-at(14) <= at(9)-at(8) {
		t.Error("slowdown growth not super-linear past the knee")
	}
}

func TestPausedDomainsAddNoLoad(t *testing.T) {
	hv, doms := newHV(t, 15)
	for _, d := range doms {
		d.Guest().SetLoad(1, 0, 0, 0)
		if err := d.Pause(); err != nil {
			t.Fatal(err)
		}
	}
	if s := hv.Slowdown(); s != 1 {
		t.Errorf("slowdown with all domains paused = %.2f", s)
	}
	if err := doms[0].Unpause(); err != nil {
		t.Fatal(err)
	}
	if doms[0].Paused() {
		t.Error("unpause ineffective")
	}
}

func TestChargeDom0(t *testing.T) {
	hv, doms := newHV(t, 15)
	got := hv.ChargeDom0(10 * time.Millisecond)
	if got != 10*time.Millisecond {
		t.Errorf("idle charge stretched: %v", got)
	}
	if hv.Clock().Now() != 10*time.Millisecond {
		t.Errorf("clock = %v", hv.Clock().Now())
	}
	for _, d := range doms {
		d.Guest().SetLoad(1, 0, 0, 0)
	}
	stretched := hv.ChargeDom0(10 * time.Millisecond)
	if stretched <= 10*time.Millisecond {
		t.Errorf("loaded charge not stretched: %v", stretched)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	c.Advance(-time.Second) // ignored
	c.Advance(5 * time.Millisecond)
	if c.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("Reset ineffective")
	}
}

func TestSnapshotRevert(t *testing.T) {
	_, doms := newHV(t, 2)
	d := doms[0]
	g := d.Guest()
	mod := g.Module("alpha.sys")
	if err := d.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}

	g.AddressSpace().Write(mod.Base+0x1000, []byte{0xCC})
	if err := d.Revert("clean"); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	d.Guest().AddressSpace().Read(mod.Base+0x1000, b[:])
	if b[0] == 0xCC {
		t.Error("revert did not restore memory")
	}
	if tags := d.Snapshots(); len(tags) != 1 || tags[0] != "clean" {
		t.Errorf("Snapshots = %v", tags)
	}
}

func TestRevertUnknownTag(t *testing.T) {
	_, doms := newHV(t, 1)
	if err := doms[0].Revert("nope"); err == nil {
		t.Error("revert to unknown tag succeeded")
	}
}

// TestGuardedReaderSurvivesDestroy pins the mid-check destruction contract:
// a reader obtained before DestroyDomain works until the teardown, then every
// read fails with ErrDomainGone classified permanent — the pipeline must
// never retry a destroyed VM.
func TestGuardedReaderSurvivesDestroy(t *testing.T) {
	hv, doms := newHV(t, 2)
	d := doms[0]
	r := d.PhysReader()
	b := make([]byte, 8)
	if err := r.ReadPhys(0x1000, b); err != nil {
		t.Fatalf("read before destroy: %v", err)
	}
	if d.Destroyed() {
		t.Fatal("live domain reports destroyed")
	}
	if err := hv.DestroyDomain(d.Name); err != nil {
		t.Fatal(err)
	}
	if !d.Destroyed() {
		t.Error("destroyed flag not set on held handle")
	}
	err := r.ReadPhys(0x1000, b)
	if !errors.Is(err, ErrDomainGone) {
		t.Fatalf("read after destroy: %v, want ErrDomainGone", err)
	}
	if faults.Classify(err) != faults.ClassPermanent {
		t.Error("ErrDomainGone not classified permanent")
	}
	// The sibling domain is unaffected.
	if err := doms[1].PhysReader().ReadPhys(0x1000, b); err != nil {
		t.Errorf("sibling read failed: %v", err)
	}
}

// TestCloneDomainsNaming verifies double-digit domain names (Dom10+).
func TestCloneDomainsNaming(t *testing.T) {
	hv := New(8)
	doms, err := hv.CloneDomains("Dom", 12, testDisk(t), 16<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if doms[9].Name != "Dom10" || doms[11].Name != "Dom12" {
		t.Errorf("names: %s, %s", doms[9].Name, doms[11].Name)
	}
}

func TestLifecycleOpsFailOnDestroyedDomain(t *testing.T) {
	hv, doms := newHV(t, 2)
	d := doms[0]
	if err := hv.DestroyDomain(d.Name); err != nil {
		t.Fatal(err)
	}
	if err := d.Pause(); !errors.Is(err, ErrDomainGone) {
		t.Errorf("pause on destroyed domain: %v", err)
	}
	if err := d.Unpause(); !errors.Is(err, ErrDomainGone) {
		t.Errorf("unpause on destroyed domain: %v", err)
	}
	if err := d.TakeSnapshot("x"); !errors.Is(err, ErrDomainGone) {
		t.Errorf("snapshot on destroyed domain: %v", err)
	}
	if err := d.Revert("x"); !errors.Is(err, ErrDomainGone) {
		t.Errorf("revert on destroyed domain: %v", err)
	}
	if d.ControlFailures() < 4 {
		t.Errorf("ControlFailures = %d, want >= 4", d.ControlFailures())
	}
}

func TestControlGateInjectsLifecycleFaults(t *testing.T) {
	hv, doms := newHV(t, 2)
	d := doms[0]
	plan := faults.NewPlan(1)
	plan.FailOps(d.Name, faults.OpSnapshot, 0, 1)
	plan.FailOps(d.Name, faults.OpPause, 0, 1)
	hv.SetControlGate(plan.ControlOp)

	if err := d.TakeSnapshot("clean"); !errors.Is(err, faults.ErrControlFault) {
		t.Errorf("gated snapshot: %v", err)
	}
	if got := d.Snapshots(); len(got) != 0 {
		t.Errorf("failed snapshot still recorded: %v", got)
	}
	if err := d.Pause(); !errors.Is(err, faults.ErrControlFault) {
		t.Errorf("gated pause: %v", err)
	}
	if d.Paused() {
		t.Error("failed pause still descheduled the domain")
	}
	if d.ControlFailures() != 2 {
		t.Errorf("ControlFailures = %d, want 2", d.ControlFailures())
	}

	// Past the windows the operations succeed and the breaker counter
	// resets; the domain-pause obligation is released below.
	if err := d.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	if d.ControlFailures() != 0 {
		t.Errorf("ControlFailures after success = %d", d.ControlFailures())
	}
	if err := d.Unpause(); err != nil {
		t.Fatal(err)
	}

	hv.SetControlGate(nil)
	if err := d.TakeSnapshot("again"); err != nil {
		t.Errorf("snapshot after gate uninstall: %v", err)
	}
}

func TestControlGateChargesLatencyToSimClock(t *testing.T) {
	hv, doms := newHV(t, 2)
	d := doms[0]
	plan := faults.NewPlan(1)
	plan.SlowOps(d.Name, faults.OpSnapshot, 3*time.Millisecond)
	plan.HangOps(d.Name, faults.OpRevert, 0, 1)
	hv.SetControlGate(plan.ControlOp)

	if err := d.TakeSnapshot("clean"); err != nil {
		t.Fatal(err)
	}
	if got := hv.Clock().Now(); got != 3*time.Millisecond {
		t.Errorf("slow snapshot charged %v, want 3ms", got)
	}
	// A hung revert burns the management timeout and then fails; the
	// latency lands on the clock even though the operation failed.
	err := d.Revert("clean")
	if !errors.Is(err, faults.ErrControlHang) {
		t.Errorf("hung revert: %v", err)
	}
	if got := hv.Clock().Now(); got != 3*time.Millisecond+faults.DefaultHangLatency {
		t.Errorf("hang charged %v total", got)
	}
}

func TestControlGateBlocksCreateAndClone(t *testing.T) {
	hv := New(8)
	plan := faults.NewPlan(1)
	plan.FailOpsForever("Dom1", faults.OpClone, 0)
	hv.SetControlGate(plan.ControlOp)
	if _, err := hv.CloneDomains("Dom", 3, testDisk(t), 16<<20, 1); !errors.Is(err, faults.ErrControlPermanent) {
		t.Errorf("clone under permanent control fault: %v", err)
	}
	plan2 := faults.NewPlan(1)
	plan2.FailOps("Solo", faults.OpCreate, 0, 1)
	hv.SetControlGate(plan2.ControlOp)
	if _, err := hv.CreateDomain(guest.Config{Name: "Solo", MemBytes: 16 << 20, Disk: testDisk(t)}); !errors.Is(err, faults.ErrControlFault) {
		t.Errorf("create under control fault: %v", err)
	}
	if _, err := hv.CreateDomain(guest.Config{Name: "Solo", MemBytes: 16 << 20, Disk: testDisk(t)}); err != nil {
		t.Errorf("create past fault window: %v", err)
	}
}

func TestDestroyGatedByControlPlane(t *testing.T) {
	hv, doms := newHV(t, 2)
	d := doms[0]
	plan := faults.NewPlan(1)
	plan.FailOps(d.Name, faults.OpDestroy, 0, 1)
	hv.SetControlGate(plan.ControlOp)
	if err := hv.DestroyDomain(d.Name); !errors.Is(err, faults.ErrControlFault) {
		t.Errorf("gated destroy: %v", err)
	}
	if d.Destroyed() {
		t.Error("failed destroy still tore the domain down")
	}
	if d.ControlFailures() != 1 {
		t.Errorf("ControlFailures = %d, want 1", d.ControlFailures())
	}
	if err := hv.DestroyDomain(d.Name); err != nil {
		t.Errorf("destroy past fault window: %v", err)
	}
	if !d.Destroyed() {
		t.Error("destroy past window ineffective")
	}
}

// TestDestroyedReadsRaceDestroy: Destroyed takes no lock, so readers
// running concurrently with DestroyDomain (and with a load change, whose
// observer reads the flag under the domain lock) must see it flip once
// from false to true and never back, and the destroyed domain must leave
// nothing in the hypervisor's demand counter. Run under -race this also
// checks that the flag is read and written without a data race.
func TestDestroyedReadsRaceDestroy(t *testing.T) {
	hv, doms := newHV(t, 2)
	d, other := doms[0], doms[1]
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := false
			for {
				select {
				case <-done:
					if !d.Destroyed() {
						t.Error("Destroyed() false after DestroyDomain returned")
					}
					return
				default:
				}
				switch st := d.Destroyed(); {
				case st:
					seen = true
				case seen:
					t.Error("Destroyed() went back to false")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			d.Guest().SetLoad(float64(i%10)/10, 0, 0, 0)
		}
	}()
	err := hv.DestroyDomain(d.Name)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	d.Guest().SetLoad(1, 0, 0, 0) // a destroyed domain ignores load changes
	other.mu.Lock()
	want := other.demandPart
	other.mu.Unlock()
	if got := hv.demand.Load(); got != want {
		t.Errorf("demand = %d after destroy, want the surviving domain's %d", got, want)
	}
}
