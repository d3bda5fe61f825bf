package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"modchecker/internal/mm"
)

// Event is a domain-lifecycle action the plan fires at a scheduled point of
// a VM's read stream. The plan itself only *announces* events; whoever
// installed the OnEvent hook (the cloud facade) performs the actual
// pause/resume/destroy against the hypervisor.
type Event int

const (
	// EventPause deschedules the domain (it stops adding load; its memory
	// stays readable, as on real Xen).
	EventPause Event = iota
	// EventResume reschedules a paused domain.
	EventResume
	// EventDestroy tears the domain down mid-check; subsequent reads
	// through a hypervisor-guarded reader fail permanently.
	EventDestroy
)

// String renders the event.
func (e Event) String() string {
	switch e {
	case EventPause:
		return "PAUSE"
	case EventResume:
		return "RESUME"
	case EventDestroy:
		return "DESTROY"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// tearThreshold is the minimum read size the torn-read mutator touches.
// Small reads are structure and page-table fetches; corrupting those models
// a *hostile* guest (pointer chases into garbage), not the benign
// page-churn case tearing exists for. Bulk page copies — the reads the
// Module-Searcher spends its time on — are all larger.
const tearThreshold = 256

// window is a half-open interval of a VM's read counter.
type window struct{ from, to uint64 }

func (w window) contains(i uint64) bool { return i >= w.from && i < w.to }

// pageWindow scopes a window to one guest-physical page.
type pageWindow struct {
	pfn uint32
	w   window
}

// eventAt schedules a one-shot lifecycle event at a read index.
type eventAt struct {
	at    uint64
	ev    Event
	fired bool
}

// vmPlan is one VM's schedule plus its deterministic per-VM state.
type vmPlan struct {
	rng           *rand.Rand // derived from plan seed + VM name; never host-seeded
	reads         uint64     // monotonically increasing read counter
	flakyRate     float64
	failWindows   []window
	tearWindows   []window
	notPresent    []pageWindow
	permanentFrom uint64
	hasPermanent  bool
	events        []eventAt
}

// Plan is a deterministic fault-injection plan for a pool of VMs: explicit
// per-VM schedules (read-index windows, one-shot lifecycle events) plus a
// seeded PRNG for rate-based flakiness. A Plan is safe for concurrent use
// by the parallel driver; decisions for one VM depend only on that VM's own
// read counter, so cross-VM goroutine interleaving cannot change outcomes.
type Plan struct {
	seed int64

	mu          sync.Mutex
	vms         map[string]*vmPlan                              // guarded by mu
	ctl         map[string]*vmControl                           // guarded by mu
	hangLatency time.Duration                                   // guarded by mu
	onEvent     func(vm string, ev Event)                       // guarded by mu
	onInject    func(vm string, idx uint64, kind string)        // guarded by mu
	onControl   func(vm string, op Op, idx uint64, kind string) // guarded by mu
}

// NewPlan creates an empty plan. All rate-based decisions derive from seed;
// two plans with equal seeds and equal schedules behave identically.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:        seed,
		vms:         make(map[string]*vmPlan),
		ctl:         make(map[string]*vmControl),
		hangLatency: DefaultHangLatency,
	}
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// OnEvent installs the lifecycle hook invoked (outside the plan's lock)
// whenever a scheduled event fires. The cloud facade points this at the
// hypervisor's pause/unpause/destroy operations.
func (p *Plan) OnEvent(f func(vm string, ev Event)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onEvent = f
}

// OnInject installs an observability hook invoked (outside the plan's lock)
// whenever the plan injects a fault into a read: the VM, the read index it
// fired on, and the fault kind ("transient", "permanent", "page_not_present",
// "flaky", "torn"). The cloud facade points this at the tracer's fault
// track.
func (p *Plan) OnInject(f func(vm string, idx uint64, kind string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onInject = f
}

// fnv1a is the stable name hash that derives per-VM PRNG seeds from the
// plan seed, so each VM's fault streams are independent and reproducible
// regardless of pool composition.
func fnv1a(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// vm returns (creating on demand) the named VM's schedule. Caller holds mu.
func (p *Plan) vm(name string) *vmPlan {
	v, ok := p.vms[name]
	if !ok {
		v = &vmPlan{rng: rand.New(rand.NewSource(p.seed ^ int64(fnv1a(name))))}
		p.vms[name] = v
	}
	return v
}

// FailReads schedules transient read failures for vm on read indices
// [from, to) — a brief outage (narrow window) or a sweep-long one (wide
// window) that clears once the counter passes to.
func (p *Plan) FailReads(vm string, from, to uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.vm(vm)
	v.failWindows = append(v.failWindows, window{from, to})
}

// FailForever schedules a permanent failure: every read of vm from index
// `from` on fails with ErrInjectedPermanent — the VM is gone for good.
func (p *Plan) FailForever(vm string, from uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.vm(vm)
	if !v.hasPermanent || from < v.permanentFrom {
		v.permanentFrom, v.hasPermanent = from, true
	}
}

// FlakyReads makes each read of vm fail transiently with probability rate,
// drawn from the VM's seeded PRNG (deterministic per plan seed).
func (p *Plan) FlakyReads(vm string, rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vm(vm).flakyRate = rate
}

// TornWindow schedules silent corruption: bulk reads of vm on indices
// [from, to) return bytes mutated by a per-read mask — the model of a guest
// rewriting a page *between* two Searcher reads. Two reads of the same data
// inside the window never agree, which is exactly what a read-verify pass
// detects.
func (p *Plan) TornWindow(vm string, from, to uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.vm(vm)
	v.tearWindows = append(v.tearWindows, window{from, to})
}

// PageNotPresent marks one guest-physical page of vm temporarily not
// present on read indices [from, to): reads touching that page fail with
// ErrPageNotPresent (transient).
func (p *Plan) PageNotPresent(vm string, pfn uint32, from, to uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.vm(vm)
	v.notPresent = append(v.notPresent, pageWindow{pfn: pfn, w: window{from, to}})
}

// PauseAt schedules a one-shot EventPause when vm's read counter reaches at.
func (p *Plan) PauseAt(vm string, at uint64) { p.scheduleEvent(vm, at, EventPause) }

// ResumeAt schedules a one-shot EventResume when vm's read counter reaches at.
func (p *Plan) ResumeAt(vm string, at uint64) { p.scheduleEvent(vm, at, EventResume) }

// DestroyAt schedules a one-shot EventDestroy when vm's read counter
// reaches at.
func (p *Plan) DestroyAt(vm string, at uint64) { p.scheduleEvent(vm, at, EventDestroy) }

func (p *Plan) scheduleEvent(vm string, at uint64, ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.vm(vm).events = append(p.vm(vm).events, eventAt{at: at, ev: ev})
}

// Reads returns how many reads the plan has observed for vm.
func (p *Plan) Reads(vm string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vm(vm).reads
}

// decision is the outcome of consulting the plan for one read.
type decision struct {
	idx    uint64
	err    error
	tear   bool
	kind   string // fault kind for the OnInject hook; "" when clean
	events []Event
}

// next advances vm's read counter and evaluates the schedule for this read.
func (p *Plan) next(vm string, pa uint32, n int) (decision, func(string, Event), func(string, uint64, string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.vm(vm)
	d := decision{idx: v.reads}
	v.reads++
	for i := range v.events {
		e := &v.events[i]
		if !e.fired && d.idx >= e.at {
			e.fired = true
			d.events = append(d.events, e.ev)
		}
	}
	switch {
	case v.hasPermanent && d.idx >= v.permanentFrom:
		d.err, d.kind = ErrInjectedPermanent, "permanent"
	case inWindows(v.failWindows, d.idx):
		d.err, d.kind = ErrInjectedTransient, "transient"
	case notPresentAt(v.notPresent, d.idx, pa, n):
		d.err, d.kind = ErrPageNotPresent, "page_not_present"
	case v.flakyRate > 0 && v.rng.Float64() < v.flakyRate:
		d.err, d.kind = ErrInjectedTransient, "flaky"
	case n >= tearThreshold && inWindows(v.tearWindows, d.idx):
		d.tear, d.kind = true, "torn"
	}
	return d, p.onEvent, p.onInject
}

func inWindows(ws []window, i uint64) bool {
	for _, w := range ws {
		if w.contains(i) {
			return true
		}
	}
	return false
}

func notPresentAt(ps []pageWindow, i uint64, pa uint32, n int) bool {
	first := pa >> mm.PageShift
	last := (pa + uint32(n) - 1) >> mm.PageShift
	for _, pw := range ps {
		if pw.w.contains(i) && pw.pfn >= first && pw.pfn <= last {
			return true
		}
	}
	return false
}

// tearMutate XORs b with the 8 little-endian bytes of idx+1, repeated. Any
// two distinct read indices produce distinct corruptions of the same data,
// so consecutive reads inside a torn window can never agree — the property
// the Searcher's read-verify pass relies on.
func tearMutate(b []byte, idx uint64) {
	seq := idx + 1 // never the all-zero mask
	for i := range b {
		b[i] ^= byte(seq >> ((uint(i) % 8) * 8))
	}
}

// Reader wraps a VM's physical memory with this plan's schedule for that
// VM. All readers obtained for the same VM share one read counter, so
// windows span handle re-opens (e.g. consecutive scanner sweeps). The
// returned reader is safe for concurrent use.
func (p *Plan) Reader(vm string, inner mm.PhysReader) mm.PhysReader {
	return &reader{plan: p, vm: vm, inner: inner}
}

type reader struct {
	plan  *Plan
	vm    string
	inner mm.PhysReader
}

// ReadPhys implements mm.PhysReader: consult the plan, fire due lifecycle
// events, then either fail, pass through, or pass through with torn bytes.
func (r *reader) ReadPhys(pa uint32, b []byte) error {
	d, hook, inject := r.plan.next(r.vm, pa, len(b))
	// Events fire outside the plan lock: the hook reaches into the
	// hypervisor, which must be free to take its own locks.
	if hook != nil {
		for _, ev := range d.events {
			hook(r.vm, ev)
		}
	}
	if inject != nil && d.kind != "" {
		inject(r.vm, d.idx, d.kind)
	}
	if d.err != nil {
		return fmt.Errorf("faults %s: read %d at %#x: %w", r.vm, d.idx, pa, d.err)
	}
	if err := r.inner.ReadPhys(pa, b); err != nil {
		return err
	}
	if d.tear {
		tearMutate(b, d.idx)
	}
	return nil
}
