package guest

import (
	"math/rand"
	"sync"
)

// ResourceSample is one reading of the guest-internal performance counters,
// mirroring the fields the paper's in-guest recording tool collects
// (Section V-C.2): CPU state, memory state, disk state and network state.
type ResourceSample struct {
	TimeMS uint64 // guest uptime at sampling, milliseconds

	CPUIdlePct       float64
	CPUUserPct       float64
	CPUPrivilegedPct float64

	FreePhysMemPct float64
	FreeVirtMemPct float64
	PageFaultsPerS float64

	DiskQueueLen   float64
	DiskReadsPerS  float64
	DiskWritesPerS float64

	NetPacketsSentPerS float64
	NetPacketsRecvPerS float64
}

// resourceState models the guest's internal resource accounting. It only
// ever changes in response to in-guest activity (workload ticks, module
// loads); out-of-band VMI reads of guest-physical memory do not touch it —
// which is precisely the property Figure 9 demonstrates.
type resourceState struct {
	seed int64 // set at construction, immutable after

	mu  sync.Mutex
	rng *rand.Rand // guarded by mu; lazily created from seed on first Sample (~5 KiB each)

	uptimeMS uint64  // guarded by mu
	cpuLoad  float64 // guarded by mu; demanded CPU fraction [0,1]
	memLoad  float64 // guarded by mu; fraction of memory the workload claims
	diskLoad float64 // guarded by mu; disk demand fraction [0,1]
	netLoad  float64 // guarded by mu

	faultBurst float64 // guarded by mu; transient page-fault pressure (decays per tick)
}

// idleResources returns the resource state of a freshly started guest,
// which keeps small default demand levels until a workload sets them.
func idleResources(seed int64) resourceState {
	return resourceState{seed: seed, cpuLoad: 0.01, memLoad: 0.05, diskLoad: 0.01, netLoad: 0.01}
}

// SetLoad sets the workload demand levels (clamped to [0,1]). The stress
// package drives this; idle guests keep the small defaults.
func (g *Guest) SetLoad(cpu, mem, disk, net float64) {
	r := &g.res
	r.mu.Lock()
	r.cpuLoad = clamp01(cpu)
	r.memLoad = clamp01(mem)
	r.diskLoad = clamp01(disk)
	r.netLoad = clamp01(net)
	load := r.cpuLoad
	r.mu.Unlock()
	// Notify outside the resource lock: the observer takes hypervisor
	// locks of its own and must never nest inside r.mu.
	if g.loadObs != nil {
		g.loadObs(load)
	}
}

// SetLoadObserver registers a callback invoked with the new CPU demand
// after every SetLoad. It must be installed before the guest is visible to
// other goroutines (the hypervisor does so at domain creation); the field
// is not otherwise synchronized.
func (g *Guest) SetLoadObserver(fn func(float64)) { g.loadObs = fn }

// Load returns the guest's current demanded CPU fraction; the hypervisor
// scheduler uses it to compute contention.
func (g *Guest) Load() float64 {
	r := &g.res
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cpuLoad
}

// Tick advances guest-internal time by dtMS milliseconds of activity.
func (g *Guest) Tick(dtMS uint64) {
	r := &g.res
	r.mu.Lock()
	defer r.mu.Unlock()
	r.uptimeMS += dtMS
	r.faultBurst *= 0.5
}

// noteModuleEvent records the transient disk/fault activity of a module
// load or unload.
func (r *resourceState) noteModuleEvent() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faultBurst += 50
}

// Sample reads the current counters. Values carry small seeded noise so
// idle traces look like real perfmon output rather than flat lines.
func (g *Guest) Sample() ResourceSample {
	r := &g.res
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed ^ 0x5EED))
	}
	n := func(scale float64) float64 { return (r.rng.Float64() - 0.5) * 2 * scale }

	busy := clamp01(r.cpuLoad + n(0.01))
	user := busy * 0.8
	priv := busy * 0.2
	s := ResourceSample{
		TimeMS:           r.uptimeMS,
		CPUIdlePct:       100 * (1 - busy),
		CPUUserPct:       100 * user,
		CPUPrivilegedPct: 100 * priv,

		FreePhysMemPct: 100 * clamp01(1-r.memLoad+n(0.005)),
		FreeVirtMemPct: 100 * clamp01(1-r.memLoad*0.6+n(0.005)),
		PageFaultsPerS: r.memLoad*2000 + r.faultBurst + 5 + n(2),

		DiskQueueLen:   r.diskLoad*4 + n(0.05),
		DiskReadsPerS:  r.diskLoad*400 + 1 + n(0.5),
		DiskWritesPerS: r.diskLoad*300 + 1 + n(0.5),

		NetPacketsSentPerS: r.netLoad*5000 + 2 + n(1),
		NetPacketsRecvPerS: r.netLoad*5000 + 2 + n(1),
	}
	if s.PageFaultsPerS < 0 {
		s.PageFaultsPerS = 0
	}
	if s.DiskQueueLen < 0 {
		s.DiskQueueLen = 0
	}
	return s
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
