// Package modchecker is a from-scratch reproduction of "ModChecker: Kernel
// Module Integrity Checking in the Cloud Environment" (Ahmed, Zoranic,
// Javaid, Richard — ICPP 2012): an integrity checker that verifies
// in-memory kernel modules *without a database of known-good hashes* by
// cross-comparing the same module across a pool of identical VMs via
// virtual machine introspection.
//
// Because the original system requires a Xen host with Windows XP guests,
// this package ships its own simulated cloud: a hypervisor with
// credit-scheduler contention, guests with real page tables and an
// authentic PsLoadedModuleList, PE32 kernel modules with relocations, a
// libVMI-like introspection layer, and the rootkit techniques the paper
// uses for evaluation. See DESIGN.md for the substitution map.
//
// Typical use:
//
//	cloud, _ := modchecker.NewCloud(modchecker.CloudConfig{VMs: 15})
//	checker := cloud.NewChecker()
//	report, _ := checker.CheckModule("hal.dll", "Dom1")
//	fmt.Println(report.Verdict)
package modchecker

import (
	"fmt"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/core"
	"modchecker/internal/faults"
	"modchecker/internal/guest"
	"modchecker/internal/hypervisor"
	"modchecker/internal/metrics"
	"modchecker/internal/mm"
	"modchecker/internal/trace"
	"modchecker/internal/vmi"
)

// Re-exported result and configuration types; the full definitions live in
// internal/core.
type (
	// ModuleReport is the outcome of checking one module on one VM.
	ModuleReport = core.ModuleReport
	// PoolReport is the outcome of sweeping one module across all VMs.
	PoolReport = core.PoolReport
	// ModuleInfo describes one loaded-module-list entry.
	ModuleInfo = core.ModuleInfo
	// Verdict is the majority-vote conclusion.
	Verdict = core.Verdict
	// PhaseTiming is the Searcher/Parser/Checker time breakdown.
	PhaseTiming = core.PhaseTiming
	// ClusterReport is the version-aware pool analysis.
	ClusterReport = core.ClusterReport
	// PoolSweep is a sweep-scoped session: one module-table snapshot per VM,
	// reused for every module checked through it.
	PoolSweep = core.PoolSweep
	// RetryPolicy bounds the Searcher's response to transient faults.
	RetryPolicy = core.RetryPolicy
	// QuorumPolicy sets the minimum healthy comparisons for a verdict.
	QuorumPolicy = core.QuorumPolicy
	// FaultPlan is a deterministic, seeded fault-injection schedule.
	FaultPlan = faults.Plan
	// FaultClass classifies a failure as transient or permanent.
	FaultClass = faults.Class
	// FaultEvent is a scheduled domain-lifecycle action (pause/resume/destroy).
	FaultEvent = faults.Event
	// FaultOp identifies a control-plane lifecycle operation a fault plan
	// can schedule failures, hangs, or latency against.
	FaultOp = faults.Op
	// StageTiming is the per-stage (fetch/digest/compare) elapsed breakdown.
	StageTiming = core.StageTiming
	// Tracer records deterministic sim-clock trace events; see
	// internal/trace and docs/observability.md.
	Tracer = trace.Tracer
	// MetricsRegistry is the cloud-wide counter/gauge/histogram registry.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a deterministically ordered metrics export.
	MetricsSnapshot = metrics.Snapshot
)

// Verdict values.
const (
	VerdictClean        = core.VerdictClean
	VerdictAltered      = core.VerdictAltered
	VerdictInconclusive = core.VerdictInconclusive
	VerdictError        = core.VerdictError
)

// Fault classes.
const (
	FaultNone      = faults.ClassNone
	FaultTransient = faults.ClassTransient
	FaultPermanent = faults.ClassPermanent
)

// Control-plane operations a fault plan can target.
const (
	OpCreate   = faults.OpCreate
	OpClone    = faults.OpClone
	OpSnapshot = faults.OpSnapshot
	OpRevert   = faults.OpRevert
	OpDestroy  = faults.OpDestroy
	OpPause    = faults.OpPause
	OpUnpause  = faults.OpUnpause
)

// ErrVMBudget marks per-VM work skipped because the VM exhausted its sweep
// time budget; see Scanner.SetBudget.
var ErrVMBudget = core.ErrVMBudget

// NewFaultPlan creates an empty deterministic fault plan. Schedule faults on
// it, then install it on a Cloud with InstallFaultPlan.
func NewFaultPlan(seed int64) *FaultPlan { return faults.NewPlan(seed) }

// DefaultRetryPolicy returns the recommended retry configuration: a few
// attempts with simulated-clock backoff and verified reads.
func DefaultRetryPolicy() RetryPolicy { return core.DefaultRetryPolicy() }

// CloudConfig describes the simulated testbed. The zero value of each field
// defaults to the paper's setup: 15 Windows XP SP2 clones on an 8-thread
// host, 64 MiB guests.
type CloudConfig struct {
	VMs           int
	Cores         int
	GuestMemBytes uint64
	// Seed makes the whole cloud deterministic; distinct seeds give
	// different module load addresses in every guest.
	Seed int64
	// Templates switches cloning to the copy-on-write fleet path: Templates
	// guests boot fully (each with its own derived seed), and the remaining
	// VMs-Templates guests are forked from them round-robin, sharing every
	// untouched frame with their template. Zero keeps the paper's behavior
	// of booting each clone independently. Fleet-scale configurations
	// (thousands of VMs) want a small Templates so pool memory stays
	// O(Templates·guest), not O(VMs·guest).
	Templates int
	// Disk overrides the golden disk image set; nil builds the standard
	// catalog (hal.dll, http.sys, dummy.sys, ...).
	Disk map[string][]byte
	// NoTranslationCache disables the per-handle software TLB on every
	// introspection handle this cloud opens: each translation pays a full
	// external page-table walk, the paper-faithful behavior. Used as the
	// benchmark baseline.
	NoTranslationCache bool
}

// Cloud is a running testbed: a hypervisor with a privileged view plus a
// pool of identical guests, with introspection wired to the contention
// model.
type Cloud struct {
	hv      *hypervisor.Hypervisor
	domains []*hypervisor.Domain
	profile vmi.Profile
	plan    *faults.Plan
	stats   *vmi.SharedStats
	reg     *metrics.Registry
	tracer  *trace.Tracer
	noTLB   bool
	// mOpened counts introspection handles opened (vmi/handles_opened).
	mOpened *metrics.Counter
}

// NewCloud builds and boots the testbed.
func NewCloud(cfg CloudConfig) (*Cloud, error) {
	if cfg.VMs <= 0 {
		cfg.VMs = 15
	}
	if cfg.GuestMemBytes == 0 {
		cfg.GuestMemBytes = 64 << 20
	}
	disk := cfg.Disk
	if disk == nil {
		var err error
		disk, err = guest.BuildStandardDisk()
		if err != nil {
			return nil, fmt.Errorf("modchecker: building golden disk: %w", err)
		}
	}
	hv := hypervisor.New(cfg.Cores)
	var domains []*hypervisor.Domain
	var err error
	if cfg.Templates > 0 {
		domains, err = hv.CloneFleet("Dom", cfg.VMs, cfg.Templates, disk, cfg.GuestMemBytes, cfg.Seed)
	} else {
		domains, err = hv.CloneDomains("Dom", cfg.VMs, disk, cfg.GuestMemBytes, cfg.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("modchecker: cloning domains: %w", err)
	}
	c := &Cloud{
		hv:      hv,
		domains: domains,
		profile: vmi.XPSP2Profile(guest.PsLoadedModuleListVA),
		stats:   &vmi.SharedStats{},
		reg:     &metrics.Registry{},
		noTLB:   cfg.NoTranslationCache,
	}
	c.stats.Bind(c.reg)
	c.hv.Bind(c.reg)
	c.mOpened = c.reg.Counter("vmi/handles_opened")
	return c, nil
}

// Metrics returns the cloud-wide metrics registry. Every layer publishes
// into it: VMI work counters (vmi/*), hypervisor charge accounting (hv/*),
// and scanner sweep counters (scanner/*). Snapshot it for a deterministic,
// name-sorted export.
func (c *Cloud) Metrics() *MetricsRegistry { return c.reg }

// EnableTrace switches on deterministic sim-clock tracing for this cloud
// (capacity 0 means the default ring size) and returns the tracer. Call it
// before creating checkers or scanners and before starting checks — those
// capture the tracer at creation time. Export with Tracer().WriteChromeJSON.
func (c *Cloud) EnableTrace(capacity int) *Tracer {
	c.tracer = trace.New(capacity)
	c.hv.SetTracer(c.tracer)
	return c.tracer
}

// Tracer returns the cloud's tracer, or nil when tracing is not enabled.
func (c *Cloud) Tracer() *Tracer { return c.tracer }

// IntrospectionStats returns the aggregate VMI work counters of every handle
// this cloud has opened — PTWalks, TLB hits, pages read — the counters the
// benchmark harness reports per sweep.
func (c *Cloud) IntrospectionStats() vmi.Stats { return c.stats.Snapshot() }

// Hypervisor exposes the underlying hypervisor (clock, scheduler,
// snapshots).
func (c *Cloud) Hypervisor() *hypervisor.Hypervisor { return c.hv }

// VMNames returns the guest VM names in creation order (Dom1..DomN).
func (c *Cloud) VMNames() []string {
	out := make([]string, len(c.domains))
	for i, d := range c.domains {
		out[i] = d.Name
	}
	return out
}

// Domain returns the named domain, or nil.
func (c *Cloud) Domain(name string) *hypervisor.Domain { return c.hv.Domain(name) }

// Guest returns the named VM's guest, or nil. Guest access models code
// running *inside* the VM (infections, the resource monitor); ModChecker
// itself only ever uses introspection targets.
func (c *Cloud) Guest(name string) *guest.Guest {
	d := c.hv.Domain(name)
	if d == nil {
		return nil
	}
	return d.Guest()
}

// Guests returns all guests in creation order.
func (c *Cloud) Guests() []*guest.Guest {
	out := make([]*guest.Guest, len(c.domains))
	for i, d := range c.domains {
		out[i] = d.Guest()
	}
	return out
}

// InstallFaultPlan routes every subsequently opened introspection target
// through the plan's per-VM fault schedules, and wires the plan's lifecycle
// events to the hypervisor: scheduled pauses/resumes hit the scheduler, a
// scheduled destroy tears the domain down mid-check. Installing nil removes
// the plan. Targets opened before the call keep their old reader chain.
func (c *Cloud) InstallFaultPlan(p *FaultPlan) {
	c.plan = p
	if p == nil {
		c.hv.SetControlGate(nil)
		return
	}
	// Control-plane schedules gate every hypervisor lifecycle operation
	// (create/clone/snapshot/revert/destroy/pause/unpause): injected latency
	// is charged to the simulated clock, injected failures surface as
	// classified errors to the caller. Observability mirrors OnInject.
	c.hv.SetControlGate(p.ControlOp)
	p.OnControl(func(vm string, op faults.Op, idx uint64, kind string) {
		c.tracer.Defer("control fault", "fault",
			trace.Arg{Key: "vm", Val: vm},
			trace.Arg{Key: "op", Val: op.String()},
			trace.Arg{Key: "kind", Val: kind},
			trace.Arg{Key: "invocation", Val: fmt.Sprintf("%d", idx)})
		c.reg.Counter("faults/control_injected").Inc()
	})
	// Injections land inside racing pipeline workers, so they go to the
	// tracer's deferred fault track (sequenced at the next flush point) and
	// to a commutative counter — both interleaving-independent.
	p.OnInject(func(vm string, idx uint64, kind string) {
		c.tracer.Defer("fault inject", "fault",
			trace.Arg{Key: "vm", Val: vm},
			trace.Arg{Key: "kind", Val: kind},
			trace.Arg{Key: "read", Val: fmt.Sprintf("%d", idx)})
		c.reg.Counter("faults/injected").Inc()
	})
	p.OnEvent(func(vm string, ev faults.Event) {
		// Every lifecycle event invalidates the domain's cached VMI
		// translations: the guest may have been perturbed while the handle
		// was not looking (paused, rescheduled, torn down).
		switch ev {
		case faults.EventPause:
			if d := c.hv.Domain(vm); d != nil {
				//modlint:ignore releasetrack the plan's scheduled EventResume unpauses the domain
				if err := d.Pause(); err == nil {
					d.InvalidateMappings()
				}
			}
		case faults.EventResume:
			if d := c.hv.Domain(vm); d != nil {
				if err := d.Unpause(); err == nil {
					d.InvalidateMappings()
				}
			}
		case faults.EventDestroy:
			if d := c.hv.Domain(vm); d != nil {
				d.InvalidateMappings()
			}
			// Best effort: a double destroy is a no-op.
			_ = c.hv.DestroyDomain(vm)
		}
	})
}

// FaultPlan returns the installed fault plan, or nil.
func (c *Cloud) FaultPlan() *FaultPlan { return c.plan }

// reader builds a domain's physical-read chain: the lifecycle guard (reads
// fail permanently once the domain is destroyed) wrapped by the installed
// fault plan, if any.
func (c *Cloud) reader(d *hypervisor.Domain) mm.PhysReader {
	var mem mm.PhysReader = d.PhysReader()
	if c.plan != nil {
		mem = c.plan.Reader(d.Name, mem)
	}
	return mem
}

// handleOptions are the options every cloud-opened handle shares: the
// pool-wide stats sink, the domain's mapping-epoch source (snapshot reverts
// and fault-plan lifecycle events flush the translation cache), and the
// cloud-level TLB switch.
func (c *Cloud) handleOptions(d *hypervisor.Domain) []vmi.Option {
	opts := []vmi.Option{
		vmi.WithSharedStats(c.stats),
		vmi.WithInvalidation(d.MappingEpoch),
	}
	if c.noTLB {
		opts = append(opts, vmi.WithoutTranslationCache())
	}
	return opts
}

// Target opens an introspection target on the named VM: physical memory +
// CR3 + the shared XP profile. Work done through a Target is accounted on
// the hypervisor clock by the Checker (which charges aggregate phase
// costs); open a handle with OpenVMI for raw introspection that should
// charge per operation.
func (c *Cloud) Target(name string) (core.Target, error) {
	d := c.hv.Domain(name)
	if d == nil {
		return core.Target{}, fmt.Errorf("modchecker: no VM %q", name)
	}
	t := c.target(d)
	t.Introspect()
	return t, nil
}

// target describes an already resolved domain as a lazy introspection
// target: the handle (and with it the vCPU's CR3) is taken only when the
// checker first opens it, so a sweep pays for the VMs it reads, not for
// the whole fleet.
func (c *Cloud) target(d *hypervisor.Domain) core.Target {
	g := d.Guest()
	t := core.Target{Name: d.Name, Open: func() *vmi.Handle {
		c.mOpened.Inc()
		return vmi.Open(d.Name, c.reader(d), g.CR3(), c.profile, c.handleOptions(d)...)
	}}
	if c.plan == nil {
		// Identity lets WithIdentityDedup treat copy-on-write forks that
		// still share their template's frozen image as one VM. A fault plan
		// breaks the "same frames, same reads" equivalence (faults are
		// per-VM), so targets opened under a plan advertise no identity.
		// The guest's physical memory is read live on every sample — a
		// snapshot Restore swaps the backing object, and an identity pinned
		// to the pre-revert memory would keep reporting the old frozen
		// layer's stable ID while the actual image diverges. ContentID
		// (a fingerprint of the frozen frames, not an allocation counter)
		// keeps tokens stable across process runs, so a persistent digest
		// store reopened against an identically built cloud still hits.
		t.Identity = func() (uint64, bool) {
			if d.Destroyed() {
				return 0, false
			}
			return g.Phys().ContentID()
		}
		// Epoch folds the domain's mapping epoch into content-cache tokens:
		// lifecycle events that invalidate mappings (pause/resume, revert,
		// fault-plan installation hooks) bump it, retiring stale entries.
		t.Epoch = d.MappingEpoch
	}
	return t
}

// OpenVMI opens a raw introspection handle on the named VM with every
// primitive charged to the hypervisor's contention-aware clock. Used by
// harnesses (e.g. the Figure 9 guest-impact experiment) that introspect
// outside the Checker pipeline.
func (c *Cloud) OpenVMI(name string) (*vmi.Handle, error) {
	d := c.hv.Domain(name)
	if d == nil {
		return nil, fmt.Errorf("modchecker: no VM %q", name)
	}
	g := d.Guest()
	opts := append(c.handleOptions(d),
		vmi.WithCharge(func(d time.Duration) { c.hv.ChargeDom0(d) }))
	c.mOpened.Inc()
	return vmi.Open(name, c.reader(d), g.CR3(), c.profile, opts...), nil
}

// Targets opens introspection targets for the named VMs (all VMs when none
// are named).
func (c *Cloud) Targets(names ...string) ([]core.Target, error) {
	if len(names) == 0 {
		names = c.VMNames()
	}
	out := make([]core.Target, 0, len(names))
	for _, n := range names {
		t, err := c.Target(n)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// Checker runs ModChecker against this cloud.
type Checker struct {
	cloud *Cloud
	inner *core.Checker
}

// CheckerOption configures a Checker.
type CheckerOption func(*core.Config)

// WithParallel fetches VM memory concurrently — the enhancement the paper's
// Section V-C.1 proposes; the measured configuration is sequential.
func WithParallel() CheckerOption {
	return func(c *core.Config) { c.Parallel = true }
}

// WithFullPairwise runs every pool check — CheckPool, ClusterPool and
// scanner sweeps — as the paper's O(n²) oracle, comparing every healthy
// pair instead of digest clusters. Results are identical; this exists as
// the paper-faithful reference and for benchmarking the two against each
// other. The sweep engine's settings (WithShardSize, WithIdentityDedup,
// WithDigestCache) do not apply to the oracle. Lean report derivation
// still does: scanner sweeps always derive lean, and WithLeanReports
// applies to direct NewPoolSweep sessions, oracle or not.
func WithFullPairwise() CheckerOption {
	return func(c *core.Config) { c.FullPairwise = true }
}

// WithMappedCopy switches Module-Searcher from the paper's page-wise copy
// to a bulk mapping (ablation A3).
func WithMappedCopy() CheckerOption {
	return func(c *core.Config) { c.Strategy = core.CopyMapped }
}

// WithRelocNormalizer switches RVA adjustment from the paper's Algorithm 2
// diff scan to the module's own relocation table (ablation A2).
func WithRelocNormalizer() CheckerOption {
	return func(c *core.Config) { c.Normalizer = core.NormalizeRelocTable }
}

// WithRetry makes the Searcher retry transient faults with backoff charged
// to the simulated clock (and, if the policy asks, verify reads against
// concurrent guest mutation).
func WithRetry(p RetryPolicy) CheckerOption {
	return func(c *core.Config) { c.Retry = p }
}

// WithQuorum degrades verdicts to Inconclusive when fewer than
// q.MinPeers healthy peer comparisons are available.
func WithQuorum(q QuorumPolicy) CheckerOption {
	return func(c *core.Config) { c.Quorum = q }
}

// WithShardSize sets the sweep engine's shard size: it fetches and digests
// VMs in shards of at most n, bounding resident module copies to
// O(n + clusters) instead of O(pool). Every shard digests against the same
// pool-wide reference, so reports, traces and simulated costs are
// byte-identical for any n (the default is the whole pool, one shard); n
// only caps memory and intra-shard parallelism.
func WithShardSize(n int) CheckerOption {
	return func(c *core.Config) { c.ShardSize = n }
}

// WithLeanReports makes sweep sessions opened directly with
// Checker.NewPoolSweep derive their reports from digest-cluster structure
// in O(clusters² + pool), materializing ModuleReports only for non-clean
// VMs. The engine's work is unchanged: verdicts, alerts, counts and
// simulated costs stay the same, and only the per-pair detail lists (Pairs,
// MismatchedVMs) that grow O(pool) per VM are omitted. Scanner sweeps
// always derive lean reports, with or without this option.
func WithLeanReports() CheckerOption {
	return func(c *core.Config) { c.LeanReports = true }
}

// WithIdentityDedup introspects one leader per identity group — copy-on-write
// forks still sharing their template's frozen image report the same
// Target.Identity — and shares the leader's verdict with the group. This
// deliberately changes the simulated cost model (the deduped VMs' fetches
// cost nothing), so it is an explicit opt-in, never byte-identical to the
// flat path, and inert under a fault plan (no identities are advertised).
func WithIdentityDedup() CheckerOption {
	return func(c *core.Config) { c.DedupIdentical = true }
}

// DigestStore is the content-addressed digest store behind WithDigestCache:
// digest-cluster keys and representative-comparison outcomes, addressed by
// content tokens (copy-on-write base-layer identity + mapping epoch) rather
// than by VM. Token equality proves the guest image is bit-identical to when
// an entry was written, so replaying a hit is sound by construction; a guest
// write, snapshot revert, or fault-plan lifecycle event changes the token
// and the old entries simply stop being addressable. Clones sharing a frozen
// template image share entries, so one store deduplicates digest work across
// sweeps, across checkers, and across pools.
type DigestStore = cas.Store

// NewDigestStore creates an in-memory digest store. maxEntries bounds the
// entry count (FIFO eviction); zero selects the default bound.
func NewDigestStore(maxEntries int) *DigestStore { return cas.NewStore(maxEntries) }

// OpenDigestStore opens (or creates) a digest store persisted at path: a
// single-file, crash-safe append-only log replayed into the in-memory index
// on open. fingerprint must identify the content universe the store's
// tokens come from — use CloudConfig.CacheFingerprint for stores shared
// across runs of the same deterministic cloud; a file written under a
// different fingerprint is reset rather than trusted. Close the store to
// flush the log.
func OpenDigestStore(path, fingerprint string, maxEntries int) (*DigestStore, error) {
	return cas.Open(path, fingerprint, maxEntries)
}

// CacheFingerprint derives the persistent digest store fingerprint for this
// configuration. Two runs with equal fingerprints build bit-identical clouds
// (the simulation is seed-deterministic), so their content tokens name the
// same images and a store written by one run is valid in the other.
func (cfg CloudConfig) CacheFingerprint() string {
	vms := cfg.VMs
	if vms <= 0 {
		vms = 15
	}
	mem := cfg.GuestMemBytes
	if mem == 0 {
		mem = 64 << 20
	}
	return fmt.Sprintf("modcas/v1 vms=%d templates=%d seed=%d mem=%d", vms, cfg.Templates, cfg.Seed, mem)
}

// WithDigestCache gives the sweep engine a cross-sweep digest store, looked
// up when VMs are classified and filled at the end of each module: a VM
// whose content token matches a stored entry replays its digest cluster
// key for the cost of one index probe instead of a fetch+parse+digest, and
// cluster pairs whose comparison outcome is cached skip the comparison. A
// steady-state sweep over an unchanged pool fetches nothing; an infected VM
// costs O(changed modules) fetches. A cold store changes nothing — reports
// and simulated costs are byte-identical to the uncached sweep (the
// differential tests pin this); warm sweeps report less simulated time.
// Ignored by the per-call CheckModule/CheckPool forms and under
// WithFullPairwise, and inert under a fault plan (faulted targets advertise
// no identity, so faulted reads never populate the store).
func WithDigestCache(s *DigestStore) CheckerOption {
	return func(c *core.Config) { c.DigestCache = s }
}

// NewChecker creates a checker wired to this cloud's cost model and — when
// EnableTrace was called first — its tracer.
func (c *Cloud) NewChecker(opts ...CheckerOption) *Checker {
	cfg := core.Config{
		Charge: func(d time.Duration) time.Duration { return c.hv.ChargeDom0(d) },
		Tracer: c.tracer,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.DigestCache != nil {
		// Content-cache tokens only exist for memory sitting unmodified on a
		// frozen copy-on-write layer. Fleet clones are born that way;
		// independently booted guests are sealed here once, so enabling the
		// cache gives every live domain a stable identity. Sealing changes
		// nothing observable — reads see the same bytes at the same cost —
		// and the first later guest write lands in a fresh overlay, which is
		// exactly what retires the VM's token.
		for _, d := range c.domains {
			if !d.Destroyed() {
				d.Guest().Phys().Seal()
			}
		}
	}
	return &Checker{cloud: c, inner: core.NewChecker(cfg)}
}

// ListModules walks the named VM's loaded-module list via introspection and
// charges the walk to the hypervisor's Dom0 clock. Targets do not charge per
// primitive (see Cloud.Target), so the checker must account the cost itself;
// the partial cost of a failed walk is still charged, matching the sweep's
// list stage.
//
//modsafe:charged
func (c *Checker) ListModules(vm string) ([]ModuleInfo, error) {
	t, err := c.cloud.Target(vm)
	if err != nil {
		return nil, err
	}
	mods, cost, err := core.NewSearcher(t.Handle, core.CopyPageWise).ListModulesCosted()
	c.cloud.Hypervisor().ChargeDom0(cost)
	return mods, err
}

// CheckModule verifies module on targetVM against the given peers (all
// other VMs when none are named), applying the paper's majority vote.
func (c *Checker) CheckModule(module, targetVM string, peerVMs ...string) (*ModuleReport, error) {
	target, err := c.cloud.Target(targetVM)
	if err != nil {
		return nil, err
	}
	if len(peerVMs) == 0 {
		for _, n := range c.cloud.VMNames() {
			if n != targetVM {
				peerVMs = append(peerVMs, n)
			}
		}
	}
	peers, err := c.cloud.Targets(peerVMs...)
	if err != nil {
		return nil, err
	}
	return c.inner.CheckModule(module, target, peers)
}

// CheckPool sweeps module across the named VMs (all when none named),
// flagging the copies a majority of peers dispute.
func (c *Checker) CheckPool(module string, vms ...string) (*PoolReport, error) {
	targets, err := c.cloud.Targets(vms...)
	if err != nil {
		return nil, err
	}
	return c.inner.CheckPool(module, targets)
}

// NewPoolSweep opens a sweep session over the named VMs (all when none
// named): each VM's loaded-module list is walked once and the snapshot plus
// the open introspection handles are reused for every module checked through
// the session — the Scanner's per-sweep fast path. The caller owns the
// session and must Close it once the sweep is done.
//
//modsafe:acquires sweep-session
func (c *Checker) NewPoolSweep(vms ...string) (*PoolSweep, error) {
	targets, err := c.cloud.Targets(vms...)
	if err != nil {
		return nil, err
	}
	return c.inner.NewPoolSweep(targets)
}

// ClusterPool groups the named VMs' copies of module into equivalence
// clusters — the version-aware generalization of the majority vote that
// stays useful mid rolling-update (see core.ClusterPool).
func (c *Checker) ClusterPool(module string, vms ...string) (*ClusterReport, error) {
	targets, err := c.cloud.Targets(vms...)
	if err != nil {
		return nil, err
	}
	return c.inner.ClusterPool(module, targets)
}
