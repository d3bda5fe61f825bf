// Package hypervisor simulates the Xen host of the paper's testbed: a
// privileged Dom0 plus a pool of DomU guests cloned from one golden disk,
// running on a fixed number of virtual cores.
//
// Two aspects matter to the reproduction:
//
//   - Domain lifecycle. CloneDomains instantiates N identical guests the
//     way the paper clones 15 Windows XP VMs from a single installation;
//     snapshots capture and revert guest memory, the remediation path the
//     paper recommends after a detection.
//   - Contention. The credit-scheduler model (Slowdown) converts the
//     demand of loaded vCPUs into a slowdown factor for Dom0's
//     introspection work, reproducing Figure 8's non-linear knee once
//     loaded VMs outnumber physical cores.
package hypervisor

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/metrics"
	"modchecker/internal/mm"
	"modchecker/internal/trace"
)

// ErrDomainGone is returned by a guarded physical reader once its domain has
// been destroyed. Destruction is irreversible, so the error is classified
// permanent: the checking pipeline drops the VM rather than retrying it.
var ErrDomainGone = faults.Permanent("hypervisor: domain destroyed")

// DefaultCores matches the paper's testbed: a quad-core i7 with
// HyperThreading, i.e. 8 hardware threads.
const DefaultCores = 8

// Hypervisor hosts a set of domains on a fixed pool of virtual cores.
type Hypervisor struct {
	cores int
	clock Clock

	// Charge accounting: how many ChargeDom0 calls ran and how much
	// nominal vs contention-stretched work they represented. Commutative
	// atomic sums, so totals are interleaving-independent — the property the
	// parallel pipeline's workers rely on when they charge concurrently.
	charges     metrics.Counter
	nominalNs   metrics.Counter
	stretchedNs metrics.Counter

	// tracer receives lifecycle events (pause/unpause/destroy/snapshot).
	// Lifecycle calls can land from fault-plan hooks inside pipeline
	// workers, so events always go through Defer — never Emit.
	tracer atomic.Pointer[trace.Tracer]

	// gate, when installed, is consulted before every control-plane
	// operation; it can charge latency and fail the operation. Stored
	// atomically because lifecycle calls land from pipeline workers.
	gate atomic.Pointer[controlGate]

	// demand is the summed CPU demand of all running (unpaused,
	// undestroyed) vCPUs in micro-load units (see demandScale), maintained
	// incrementally at every lifecycle and load transition so Slowdown —
	// on the hot path of every charge — is O(1) in the fleet size instead
	// of a walk over 100k domains.
	demand atomic.Int64

	mu      sync.Mutex
	domains map[string]*Domain // guarded by mu
	nextID  int                // guarded by mu
}

// demandScale converts between a fractional CPU load and the integer
// micro-load units of the hypervisor's demand counter.
const demandScale = 1e6

// demandMicro quantizes one domain's CPU demand to micro-load units.
func demandMicro(load float64, vcpus int) int64 {
	return int64(math.Round(load * float64(vcpus) * demandScale))
}

// controlGate rules on one control-plane operation before it executes.
type controlGate func(vm string, op faults.Op) faults.ControlDecision

// SetControlGate installs the control-plane fault gate (nil uninstalls it).
// The cloud facade points this at an installed fault plan's ControlOp.
func (h *Hypervisor) SetControlGate(g func(vm string, op faults.Op) faults.ControlDecision) {
	if g == nil {
		h.gate.Store(nil)
		return
	}
	fn := controlGate(g)
	h.gate.Store(&fn)
}

// control consults the gate for one lifecycle operation. Injected latency
// (slow ops, hang timeouts) is charged to the simulated clock whether or
// not the operation goes on to fail. Called before any hypervisor or
// domain lock is taken (charging reads the demand counter, which lifecycle
// transitions update under those locks).
func (h *Hypervisor) control(vm string, op faults.Op) error {
	gp := h.gate.Load()
	if gp == nil {
		return nil
	}
	dec := (*gp)(vm, op)
	if dec.Latency > 0 {
		h.ChargeDom0(dec.Latency)
	}
	if dec.Err != nil {
		h.traceLifecycle(fmt.Sprintf("%s fault", op), vm)
		return fmt.Errorf("hypervisor %s: %s: %w", vm, op, dec.Err)
	}
	return nil
}

// Domain is one virtual machine slot: the guest plus hypervisor-side
// metadata (ID, snapshots, vCPU count).
type Domain struct {
	ID    int
	Name  string
	VCPUs int

	hv    *Hypervisor
	guest *guest.Guest

	// mmEpoch is bumped whenever the guest's physical memory may have
	// changed underneath an introspection handle (snapshot revert, fault
	// lifecycle events). VMI handles compare it against the epoch their
	// translation cache was filled under and flush on mismatch.
	mmEpoch atomic.Uint64

	// controlFails counts consecutive failed control-plane operations on
	// this domain; any success resets it. The scanner's per-domain circuit
	// breaker reads it to quarantine domains whose management API is gone
	// even though their memory still reads fine.
	controlFails atomic.Int64

	mu        sync.Mutex
	snapshots map[string]*guest.Snapshot // guarded by mu
	paused    bool                       // guarded by mu
	// destroyed is set once, under mu, when the domain is torn down, and
	// never cleared. Readers load it without mu: Destroyed sits on every
	// fleet sweep's per-VM path. It shares paused's 8-byte word; a larger
	// Domain would cost every fleet VM a bigger allocation.
	destroyed atomic.Bool
	// demandPart is this domain's current contribution to the hypervisor's
	// demand counter (zero while paused or destroyed). guarded by mu
	demandPart int64
}

// onLoadChange is the guest's load observer: it folds the domain's new CPU
// demand into the hypervisor's O(1) contention counter. Invoked by SetLoad
// outside the guest's resource lock. Paused and destroyed domains
// contribute nothing; an unpause re-reads the guest's load.
func (d *Domain) onLoadChange(load float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.paused || d.destroyed.Load() {
		return
	}
	part := demandMicro(load, d.VCPUs)
	d.hv.demand.Add(part - d.demandPart)
	d.demandPart = part
}

// noteControl records one control-plane outcome for the breaker counter.
func (d *Domain) noteControl(err error) {
	if err != nil {
		d.controlFails.Add(1)
	} else {
		d.controlFails.Store(0)
	}
}

// ControlFailures returns how many control-plane operations in a row have
// failed on this domain.
func (d *Domain) ControlFailures() int { return int(d.controlFails.Load()) }

// ResetControlFailures clears the consecutive-failure counter; the scanner
// calls it when a readmission probe closes the breaker.
func (d *Domain) ResetControlFailures() { d.controlFails.Store(0) }

// New creates a hypervisor with the given number of virtual cores
// (DefaultCores if zero).
func New(cores int) *Hypervisor {
	if cores <= 0 {
		cores = DefaultCores
	}
	return &Hypervisor{
		cores:   cores,
		domains: make(map[string]*Domain),
	}
}

// Cores returns the number of virtual cores.
func (h *Hypervisor) Cores() int { return h.cores }

// Clock returns the hypervisor's simulated clock.
func (h *Hypervisor) Clock() *Clock { return &h.clock }

// Bind publishes the hypervisor's charge accounting through the registry
// under the hv/ prefix, plus the simulated clock itself (in nanoseconds).
func (h *Hypervisor) Bind(r *metrics.Registry) {
	r.RegisterFunc("hv/charges", h.charges.Load)
	r.RegisterFunc("hv/nominal_ns", h.nominalNs.Load)
	r.RegisterFunc("hv/stretched_ns", h.stretchedNs.Load)
	r.RegisterFunc("hv/clock_ns", func() uint64 { return uint64(h.clock.Now()) })
}

// SetTracer installs the tracer that receives domain lifecycle events (nil
// uninstalls it). Install before starting checks; the pointer is read on
// every lifecycle call.
func (h *Hypervisor) SetTracer(tr *trace.Tracer) { h.tracer.Store(tr) }

// traceLifecycle defers one lifecycle event onto the cloud-events track.
// Deferred (not emitted) because lifecycle calls fire from fault-plan hooks
// inside racing pipeline workers; the tracer sequences them at the next
// deterministic flush point.
func (h *Hypervisor) traceLifecycle(event, vm string) {
	h.tracer.Load().Defer(event, "lifecycle", trace.Arg{Key: "vm", Val: vm})
}

// CreateDomain boots a new guest domain. The domain name must be unique.
func (h *Hypervisor) CreateDomain(cfg guest.Config) (*Domain, error) {
	if err := h.control(cfg.Name, faults.OpCreate); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.domains[cfg.Name]; dup {
		return nil, fmt.Errorf("hypervisor: domain %q exists", cfg.Name)
	}
	g, err := guest.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("hypervisor: booting %q: %w", cfg.Name, err)
	}
	return h.adoptLocked(cfg.Name, g), nil
}

// adoptLocked wraps a freshly built guest in a Domain, folds its demand
// into the contention counter, and publishes it. Caller holds h.mu.
func (h *Hypervisor) adoptLocked(name string, g *guest.Guest) *Domain {
	d := &Domain{
		ID:        h.nextID,
		Name:      name,
		VCPUs:     1,
		hv:        h,
		guest:     g,
		snapshots: make(map[string]*guest.Snapshot),
	}
	d.demandPart = demandMicro(g.Load(), d.VCPUs)
	h.demand.Add(d.demandPart)
	g.SetLoadObserver(d.onLoadChange)
	h.nextID++
	h.domains[name] = d
	return d
}

// ForkDomain instantiates a copy-on-write clone of an existing domain's
// guest (guest.Fork), modeling a VM created by snapshotting a running
// golden template instead of booting from disk. The clone shares all of
// the template's physical frames until either side writes, so its up-front
// cost is O(1) frames — the mechanism that makes 100k-domain fleets
// affordable. The control-plane gate rules on it as a clone operation.
func (h *Hypervisor) ForkDomain(src, name string, seed int64) (*Domain, error) {
	if err := h.control(name, faults.OpClone); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.domains[src]
	if !ok {
		return nil, fmt.Errorf("hypervisor: no domain %q to fork", src)
	}
	if _, dup := h.domains[name]; dup {
		return nil, fmt.Errorf("hypervisor: domain %q exists", name)
	}
	return h.adoptLocked(name, s.guest.Fork(name, seed)), nil
}

// CloneDomains instantiates n guests named <prefix>1..<prefix>n from one
// golden disk, each with a distinct boot seed — modeling the paper's 15
// DomU clones of a single Windows XP installation. The guests run the same
// OS (same disk, same kernel globals) but acquire their own module load
// addresses and physical layouts, exactly the situation ModChecker's RVA
// normalization exists for.
func (h *Hypervisor) CloneDomains(prefix string, n int, disk map[string][]byte, memBytes uint64, baseSeed int64) ([]*Domain, error) {
	out := make([]*Domain, 0, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if err := h.control(name, faults.OpClone); err != nil {
			return nil, err
		}
		d, err := h.CreateDomain(guest.Config{
			Name:     name,
			MemBytes: memBytes,
			BootSeed: baseSeed + int64(i)*0x9E3779B9,
			Disk:     disk,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// CloneFleet instantiates n guests named <prefix>1..<prefix>n from one
// golden disk, booting only the first `templates` of them classically
// (distinct boot seeds, like CloneDomains) and creating the rest as
// copy-on-write forks of those templates, round-robin. Templates preserve
// the cross-VM layout diversity that exercises RVA normalization; forks
// share their template's frozen memory image until first write, so the
// fleet's memory and boot cost are O(templates), not O(n). Each template is
// sealed once booted, through one mm.FrameSet, so the templates keep one
// copy of every frame they share byte for byte. templates <= 0 (or >= n)
// degenerates to CloneDomains.
func (h *Hypervisor) CloneFleet(prefix string, n, templates int, disk map[string][]byte, memBytes uint64, baseSeed int64) ([]*Domain, error) {
	if templates <= 0 || templates >= n {
		return h.CloneDomains(prefix, n, disk, memBytes, baseSeed)
	}
	var frames mm.FrameSet
	out := make([]*Domain, 0, n)
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		seed := baseSeed + int64(i)*0x9E3779B9
		var (
			d   *Domain
			err error
		)
		if i <= templates {
			if err = h.control(name, faults.OpClone); err != nil {
				return nil, err
			}
			d, err = h.CreateDomain(guest.Config{
				Name:     name,
				MemBytes: memBytes,
				BootSeed: seed,
				Disk:     disk,
			})
			if err == nil {
				d.Guest().Phys().SealInto(&frames)
			}
		} else {
			src := out[(i-templates-1)%templates]
			d, err = h.ForkDomain(src.Name, name, seed)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Domain returns the named domain, or nil.
func (h *Hypervisor) Domain(name string) *Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.domains[name]
}

// Domains returns all domains sorted by ID.
func (h *Hypervisor) Domains() []*Domain {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Domain, 0, len(h.domains))
	for _, d := range h.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DestroyDomain removes a domain. Any Domain handles still held (e.g. by an
// in-flight check) see Destroyed() flip and their guarded physical readers
// start failing with ErrDomainGone — destruction mid-check is an error the
// pipeline must absorb, not a crash.
func (h *Hypervisor) DestroyDomain(name string) error {
	if err := h.control(name, faults.OpDestroy); err != nil {
		if d := h.Domain(name); d != nil {
			d.noteControl(err)
		}
		return err
	}
	h.mu.Lock()
	d, ok := h.domains[name]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("hypervisor: no domain %q", name)
	}
	delete(h.domains, name)
	h.mu.Unlock()
	d.mu.Lock()
	d.destroyed.Store(true)
	h.demand.Add(-d.demandPart)
	d.demandPart = 0
	d.mu.Unlock()
	h.traceLifecycle("domain destroy", name)
	return nil
}

// Slowdown returns the factor by which contention stretches Dom0 work
// right now. With runnable vCPU demand (including one vCPU of Dom0 work)
// at or below the core count the factor is 1; past that, the credit
// scheduler time-slices and Dom0 receives cores/demand of a core, with an
// additional quadratic overcommit penalty for context-switch and cache
// pressure — the source of Figure 8's super-linear growth.
//
// The demand sum is maintained incrementally (see Hypervisor.demand), so
// this is one atomic load regardless of fleet size — it sits on the path
// of every single charge.
func (h *Hypervisor) Slowdown() float64 {
	demand := 1.0 + float64(h.demand.Load())/demandScale // 1.0: the Dom0 vCPU doing the introspection work
	if demand <= float64(h.cores) {
		return 1
	}
	over := demand / float64(h.cores)
	return over * (1 + 0.35*(over-1)*(over-1))
}

// ChargeDom0 accounts simulated Dom0 CPU time: the nominal work duration is
// stretched by the current contention factor, added to the clock, and
// returned.
//
//modsafe:charges advances the simulated Dom0 clock
func (h *Hypervisor) ChargeDom0(work time.Duration) time.Duration {
	stretched := time.Duration(float64(work) * h.Slowdown())
	h.clock.Advance(stretched)
	h.charges.Inc()
	if work > 0 {
		h.nominalNs.Add(uint64(work))
	}
	if stretched > 0 {
		h.stretchedNs.Add(uint64(stretched))
	}
	return stretched
}

// Guest exposes the domain's guest for in-guest operations (infection,
// monitoring, ground-truth checks).
func (d *Domain) Guest() *guest.Guest { return d.guest }

// Pause marks the domain descheduled; paused domains add no load. It fails
// on a destroyed domain or when the installed control-plane fault gate
// rejects the request; a failed pause leaves the schedule state unchanged.
//
//modsafe:acquires domain-pause
func (d *Domain) Pause() error {
	if err := d.hv.control(d.Name, faults.OpPause); err != nil {
		d.noteControl(err)
		return err
	}
	d.mu.Lock()
	if d.destroyed.Load() {
		d.mu.Unlock()
		err := fmt.Errorf("hypervisor %s: pause: %w", d.Name, ErrDomainGone)
		d.noteControl(err)
		return err
	}
	d.paused = true
	d.hv.demand.Add(-d.demandPart)
	d.demandPart = 0
	d.mu.Unlock()
	d.noteControl(nil)
	d.hv.traceLifecycle("domain pause", d.Name)
	return nil
}

// Unpause reschedules the domain. Fallible for the same reasons as Pause.
//
//modsafe:releases domain-pause
func (d *Domain) Unpause() error {
	if err := d.hv.control(d.Name, faults.OpUnpause); err != nil {
		d.noteControl(err)
		return err
	}
	// Re-read the guest's demand outside d.mu: Load takes the guest's
	// resource lock, which must never nest inside the domain lock.
	load := d.guest.Load()
	d.mu.Lock()
	if d.destroyed.Load() {
		d.mu.Unlock()
		err := fmt.Errorf("hypervisor %s: unpause: %w", d.Name, ErrDomainGone)
		d.noteControl(err)
		return err
	}
	if d.paused {
		d.paused = false
		d.demandPart = demandMicro(load, d.VCPUs)
		d.hv.demand.Add(d.demandPart)
	}
	d.mu.Unlock()
	d.noteControl(nil)
	d.hv.traceLifecycle("domain unpause", d.Name)
	return nil
}

// Paused reports whether the domain is descheduled.
func (d *Domain) Paused() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.paused
}

// Destroyed reports whether the domain has been torn down.
func (d *Domain) Destroyed() bool { return d.destroyed.Load() }

// PhysReader exposes the domain's physical memory guarded by its lifecycle:
// once the domain is destroyed every read fails with ErrDomainGone. The
// check is per read, so a destruction landing in the middle of a module copy
// fails the copy's next page — the torn-down-mid-check case the pipeline's
// error isolation exists for.
func (d *Domain) PhysReader() mm.FrameViewer {
	return guardedReader{d: d}
}

type guardedReader struct{ d *Domain }

// ReadPhys reads guest physical memory, failing once the domain is gone.
//
//modsafe:spends guarded physical read
func (r guardedReader) ReadPhys(pa uint32, b []byte) error {
	if r.d.Destroyed() {
		return fmt.Errorf("hypervisor %s: %w", r.d.Name, ErrDomainGone)
	}
	return r.d.guest.Phys().ReadPhys(pa, b)
}

// ViewPhys lends guest physical bytes in place (mm.FrameViewer), failing
// once the domain is gone.
//
//modsafe:spends guarded physical read
func (r guardedReader) ViewPhys(pa uint32, n int, fn func([]byte)) error {
	if r.d.Destroyed() {
		return fmt.Errorf("hypervisor %s: %w", r.d.Name, ErrDomainGone)
	}
	return r.d.guest.Phys().ViewPhys(pa, n, fn)
}

// TakeSnapshot captures the guest state under the given tag, overwriting
// any previous snapshot with the same tag. It fails on a destroyed domain
// or when the control-plane fault gate rejects or times out the request —
// snapshots are the flakiest operation of real management APIs.
func (d *Domain) TakeSnapshot(tag string) error {
	if err := d.hv.control(d.Name, faults.OpSnapshot); err != nil {
		d.noteControl(err)
		return err
	}
	if d.Destroyed() {
		err := fmt.Errorf("hypervisor %s: snapshot: %w", d.Name, ErrDomainGone)
		d.noteControl(err)
		return err
	}
	s := d.guest.Snapshot()
	d.mu.Lock()
	d.snapshots[tag] = s
	d.mu.Unlock()
	d.noteControl(nil)
	d.hv.traceLifecycle("snapshot take", d.Name)
	return nil
}

// Revert rewinds the guest to the tagged snapshot — the paper's
// recommended remediation once ModChecker flags a discrepancy.
func (d *Domain) Revert(tag string) error {
	if err := d.hv.control(d.Name, faults.OpRevert); err != nil {
		d.noteControl(err)
		return err
	}
	if d.Destroyed() {
		err := fmt.Errorf("hypervisor %s: revert: %w", d.Name, ErrDomainGone)
		d.noteControl(err)
		return err
	}
	d.mu.Lock()
	s, ok := d.snapshots[tag]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("hypervisor: domain %q has no snapshot %q", d.Name, tag)
	}
	d.noteControl(nil)
	d.guest.Restore(s)
	d.mmEpoch.Add(1)
	d.hv.traceLifecycle("snapshot revert", d.Name)
	return nil
}

// MappingEpoch returns the domain's memory-mapping epoch. It changes every
// time guest physical memory may have been rewritten behind the back of an
// open introspection handle, so handles can cheaply detect staleness.
func (d *Domain) MappingEpoch() uint64 { return d.mmEpoch.Load() }

// InvalidateMappings bumps the mapping epoch, forcing every VMI handle on
// this domain to drop cached translations before its next access. Called on
// fault-plan lifecycle events (pause/resume/destroy) where the simulated
// guest may have been perturbed.
func (d *Domain) InvalidateMappings() { d.mmEpoch.Add(1) }

// Snapshots lists the domain's snapshot tags, sorted.
func (d *Domain) Snapshots() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	tags := make([]string, 0, len(d.snapshots))
	for t := range d.snapshots {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}
