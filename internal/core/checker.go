package core

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"sort"
	"strings"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/faults"
	"modchecker/internal/trace"
	"modchecker/internal/vmi"
)

// Normalizer selects how Integrity-Checker reverses relocation before
// hashing.
type Normalizer int

const (
	// NormalizeDiffScan is the paper's Algorithm 2: pairwise byte
	// comparison locates absolute addresses.
	NormalizeDiffScan Normalizer = iota
	// NormalizeRelocTable recovers fixup sites from the module's own
	// .reloc table (ablation A2).
	NormalizeRelocTable
)

// Verdict is the integrity conclusion for one module on one VM.
type Verdict int

const (
	// VerdictClean: the module matched a majority of its peers
	// (n > (t-1)/2, paper Section III-B discussion).
	VerdictClean Verdict = iota
	// VerdictAltered: a majority of peers disagree with this copy.
	VerdictAltered
	// VerdictInconclusive: no majority either way (e.g. a widely spread
	// infection, or fewer healthy peers than the quorum policy demands);
	// the paper's guidance is to escalate to deeper analysis.
	VerdictInconclusive
	// VerdictError: the VM could not be checked at all — its own fetch
	// failed (unreadable memory, domain destroyed mid-check). Distinct from
	// VerdictInconclusive: the copy was compared and split the vote there,
	// here there was nothing to compare.
	VerdictError
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "CLEAN"
	case VerdictAltered:
		return "ALTERED"
	case VerdictInconclusive:
		return "INCONCLUSIVE"
	case VerdictError:
		return "ERROR"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Nominal CPU costs of Integrity-Checker work, per KiB processed. MD5 on
// the paper's hardware runs at a few hundred MB/s; the scan is a simple
// byte compare.
const (
	hashCostPerKB = 800 * time.Nanosecond
	scanCostPerKB = 500 * time.Nanosecond
)

// CostCASLookup is the nominal cost of consulting the content-addressed
// digest store for one cached conclusion: a Dom0-side index probe, orders
// of magnitude below the page-wise module copy it replaces. It is charged
// only on hits — a cold cached sweep does exactly the uncached sweep's work
// and nothing else, which is what lets the differential tests demand full
// byte-identity (simulated time included) between a cold cached sweep and
// an uncached one.
const CostCASLookup = 1 * time.Microsecond

// Target identifies one VM to the checker: its name and its introspection
// handle — open already, or opened on first use through Open.
type Target struct {
	Name string
	// Handle is the VM's open introspection handle; nil for a lazy target
	// whose handle Open has not produced yet (see Introspect).
	Handle *vmi.Handle
	// Open, when set, opens the VM's introspection handle. It lets a caller
	// name a whole fleet without paying for a handle per VM: a sweep session
	// opens only the VMs it lists (identity-group leaders under dedup).
	// Opening charges no simulated time.
	Open func() *vmi.Handle
	// Identity, when set, returns a content-identity token for the VM's
	// entire guest-physical memory. Two targets reporting the same token are
	// bit-identical (copy-on-write clones that have not diverged from their
	// shared golden image), so a fleet sweep running with
	// Config.DedupIdentical introspects one member of each identity group
	// and shares the outcome — the Dom0-side frame-table consultation that
	// makes 100k-VM sweeps tractable. ok=false means no token is available
	// (the VM has private memory, or identity tracking is off); such VMs are
	// always introspected individually. The facade leaves Identity nil when
	// a fault plan is installed: injected per-VM read faults must be
	// observed by real reads, never skipped by dedup.
	Identity func() (uint64, bool)
	// Epoch, when set, returns the VM's mapping epoch — bumped by snapshot
	// reverts and fault-plan lifecycle events. The digest cache folds it
	// into the VM's content token, so conclusions cached before such an
	// event stop being addressable after it even if the memory image's
	// ContentID reads the same.
	Epoch func() uint64
}

// Introspect returns the target's introspection handle, opening a lazy
// target first and keeping the handle in t.Handle. It returns nil for a
// target with neither a handle nor an opener.
func (t *Target) Introspect() *vmi.Handle {
	if t.Handle == nil && t.Open != nil {
		t.Handle = t.Open()
	}
	return t.Handle
}

// QuorumPolicy sets how many healthy peer comparisons a verdict needs.
// With fewer comparisons than MinPeers the verdict degrades to
// VerdictInconclusive rather than trusting a too-small majority — a pool
// where most peers errored must not flag (or clear) a VM on one opinion.
type QuorumPolicy struct {
	// MinPeers is the minimum number of successful peer comparisons for a
	// conclusive verdict (values below 1 behave as 1).
	MinPeers int
}

// Config configures a Checker.
type Config struct {
	// Strategy selects Module-Searcher's copy mode.
	Strategy CopyStrategy
	// Normalizer selects the RVA-adjustment method.
	Normalizer Normalizer
	// Parallel fetches peer VMs' modules concurrently and runs the pool
	// comparison stage on a bounded worker pool (the enhancement the
	// paper's Section V-C.1 suggests); the paper's measured configuration
	// is sequential.
	Parallel bool
	// FullPairwise runs every pool check (CheckPool, ClusterPool, sweep
	// sessions) as the paper's O(n²) oracle: every healthy pair normalized
	// and hashed independently instead of digest clusters. The results are
	// identical — the differential tests pin that — so this exists as the
	// paper-faithful reference and for benchmarking. ShardSize,
	// DedupIdentical and DigestCache do not apply to it; LeanReports does,
	// since it only chooses how reports are derived from the result.
	FullPairwise bool
	// Retry governs how fetches respond to transient introspection faults.
	// The zero value means one attempt, no verification.
	Retry RetryPolicy
	// Quorum governs how many healthy comparisons a verdict requires.
	Quorum QuorumPolicy
	// ShardSize, when positive, makes sweep sessions fetch and digest in
	// shards of at most this many VMs, bounding resident module copies to
	// O(ShardSize + clusters) instead of O(pool). It only caps memory and
	// intra-shard parallelism: every shard digests against the same
	// reference, so reports, traces and simulated costs are byte-identical
	// for any shard size (the differential tests pin this).
	ShardSize int
	// LeanReports makes sweep sessions derive verdicts from cluster sizes
	// in O(clusters² + pool) and give only non-clean VMs (flagged,
	// inconclusive, errored) a ModuleReport — without the Pairs and
	// MismatchedVMs lists, which are O(pool) each. Simulated costs, alerts
	// and verdicts are unchanged; only the host-side report size shrinks.
	// The facade's Scanner always sets it; it matters only to callers
	// that open sessions with NewPoolSweep directly.
	LeanReports bool
	// DedupIdentical lets sweep sessions consult Target.Identity and
	// introspect only one VM of each content-identity group, sharing its
	// list walk, fetch, digest and verdict with the group. Deduped VMs are
	// charged nothing — this intentionally changes the simulated cost model
	// (it is the optimization, not a refactoring), so it is never enabled
	// on the paper-faithful paths or under fault injection.
	DedupIdentical bool
	// DigestCache, when set, gives sweep sessions a content-addressed
	// digest store: a VM whose content token matches a stored conclusion
	// skips its fetch and is charged only CostCASLookup; misses do the full
	// fetch+digest and populate the store. Verdicts are provably unchanged
	// (tokens only hit when the guest image is bit-identical to when the
	// entry was written — the differential tests pin cached ≡ uncached
	// reports), and a cold store changes nothing at all, simulated time
	// included.
	DigestCache *cas.Store
	// Charge, if set, is invoked with the nominal duration of each unit of
	// work and returns the effective (contention-stretched) duration. The
	// cloud facade wires this to the hypervisor clock.
	Charge func(time.Duration) time.Duration
	// Tracer, if set, records every pipeline stage on the simulated
	// timeline (see internal/trace). The cloud facade wires this to the
	// cloud-wide tracer when tracing is enabled; nil disables recording at
	// the cost of one pointer check per stage.
	Tracer *trace.Tracer
}

// Checker is ModChecker's Integrity-Checker plus the driver that runs the
// full Searcher -> Parser -> Checker pipeline across a VM pool.
type Checker struct {
	cfg Config
}

// NewChecker creates a Checker.
func NewChecker(cfg Config) *Checker {
	return &Checker{cfg: cfg}
}

// charge accounts nominal work and returns the stretched duration.
//
//modsafe:charges forwards cost to Config.Charge
func (c *Checker) charge(d time.Duration) time.Duration {
	if c.cfg.Charge == nil {
		return d
	}
	return c.cfg.Charge(d)
}

// PhaseTiming records the effective time each ModChecker component spent,
// the per-component breakdown Figures 7 and 8 plot. In parallel mode the
// values are aggregate work, not wall time.
type PhaseTiming struct {
	Searcher time.Duration
	Parser   time.Duration
	Checker  time.Duration
}

// Total returns the summed component time.
func (t PhaseTiming) Total() time.Duration { return t.Searcher + t.Parser + t.Checker }

// Add accumulates another breakdown into this one.
func (t *PhaseTiming) Add(o PhaseTiming) {
	t.Searcher += o.Searcher
	t.Parser += o.Parser
	t.Checker += o.Checker
}

// PairResult is the outcome of comparing the target's module against one
// peer VM's copy.
type PairResult struct {
	PeerVM string
	// Match is true when every component hash agreed.
	Match bool
	// MismatchedComponents lists the component names whose hashes
	// disagreed.
	MismatchedComponents []string
	// Err records a peer that could not be checked (module missing,
	// unreadable memory); such peers do not count as comparisons.
	Err error
	// ErrClass classifies Err (transient faults may clear on the next
	// sweep; permanent ones will not). ClassNone when Err is nil.
	ErrClass faults.Class
}

// ComponentTally aggregates per-component agreement across all peers, the
// form the paper's detection experiments report ("hash mismatches were
// detected in IMAGE_NT_HEADER, IMAGE_OPTIONAL_HEADER, ...").
type ComponentTally struct {
	Name          string
	Matches       int
	Mismatches    int
	MismatchedVMs []string
}

// ModuleReport is the result of checking one module on one target VM
// against a pool of peers.
type ModuleReport struct {
	ModuleName string
	TargetVM   string
	Base       uint32

	Pairs      []PairResult
	Components []ComponentTally

	// Successes counts peers whose copy fully matched; Comparisons counts
	// peers actually compared. Verdict applies the paper's majority rule
	// under the configured quorum.
	Successes   int
	Comparisons int
	Verdict     Verdict

	// Err is set (with its classification in ErrClass) when the verdict is
	// VerdictError: the target's own fetch failed and nothing was compared.
	Err      error
	ErrClass faults.Class

	// Timing is total work per component (the sum over all VMs touched).
	Timing PhaseTiming
	// Elapsed is the simulated wall-clock of the check: equal to
	// Timing.Total() for the paper's sequential driver, but under the
	// parallel driver concurrent fetches overlap and only the slowest
	// VM's fetch contributes (ablation A1 measures exactly this gap).
	Elapsed time.Duration
}

// Reason explains a non-clean verdict in one line, for report text/JSON and
// scanner alerts: why this VM is errored, inconclusive, or altered.
func (r *ModuleReport) Reason() string {
	switch r.Verdict {
	case VerdictError:
		if r.Err != nil {
			return fmt.Sprintf("%s fault: %v", strings.ToLower(r.ErrClass.String()), r.Err)
		}
		return "check failed"
	case VerdictInconclusive:
		if r.Comparisons == 0 {
			return "no healthy peers to compare against"
		}
		if 2*r.Successes > r.Comparisons {
			// A matching majority that was still inconclusive means the
			// quorum policy rejected the sample size.
			return fmt.Sprintf("below quorum: only %d peer(s) compared", r.Comparisons)
		}
		return fmt.Sprintf("no majority: %d of %d peer comparisons matched", r.Successes, r.Comparisons)
	case VerdictAltered:
		return fmt.Sprintf("%d of %d peers dispute this copy", r.Comparisons-r.Successes, r.Comparisons)
	default:
		return ""
	}
}

// MismatchedComponents returns the names of components that mismatched
// against at least one peer, sorted.
func (r *ModuleReport) MismatchedComponents() []string {
	var out []string
	for _, t := range r.Components {
		if t.Mismatches > 0 {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// fetched is one VM's copy of the module after search + parse, with
// per-phase effective costs.
type fetched struct {
	target Target
	info   *ModuleInfo
	parsed *ParsedModule
	timing PhaseTiming
	// relocSites holds the module's own fixup sites when the reloc-table
	// normalizer is active; normalized caches per-component normalized
	// hashes.
	relocSites []uint32
	normHashes map[string][md5.Size]byte
	// buf is the raw module copy backing parsed.Raw and every component's
	// Data. Page-wise copies draw it from the fetch-buffer pool; once a
	// report no longer needs the bytes, releaseFetched recycles it.
	buf []byte
	err error
}

// releaseFetched recycles a fetch's module buffer once nothing derived from
// the report aliases it (reports hold only fresh strings and scalars).
// Mapped copies are not pooled: their buffers come from the handle's
// MapRange, not the fetch pool.
//
//modown:pool module-fetch put
func (c *Checker) releaseFetched(f *fetched) {
	if f == nil || f.buf == nil {
		return
	}
	if c.cfg.Strategy != CopyMapped {
		putFetchBuf(f.buf)
	}
	f.buf = nil
	f.parsed = nil
}

// fetchAndParse runs Module-Searcher and Module-Parser for one VM. The
// returned fetch owns a pooled module buffer until releaseFetched runs.
//
//modown:pool module-fetch get
func (c *Checker) fetchAndParse(t Target, module string) *fetched {
	h := t.Introspect() // a lazy target opens per call
	f := &fetched{target: t}
	info, buf, searchCost, err := NewSearcher(h, c.cfg.Strategy).WithRetry(c.cfg.Retry).FetchModule(module)
	f.timing.Searcher = c.charge(searchCost)
	if err != nil {
		f.err = err
		return f
	}
	c.parseFetched(f, t, module, info, buf)
	return f
}

// parseFetched runs Module-Parser (and, under the reloc normalizer, the
// per-VM normalization hashing) on an already-copied module image, filling
// in the fetch. Shared by the per-call fetch path and the sweep session,
// which copies the module itself from its module-table snapshot. Ownership
// of buf moves into the fetch record; releaseFetched recycles it.
//
//modown:transfer fetch-buf
func (c *Checker) parseFetched(f *fetched, t Target, module string, info *ModuleInfo, buf []byte) {
	f.info = info
	f.buf = buf
	parsed, parseCost, err := ParseModule(t.Name, module, info.Base, buf)
	f.timing.Parser = c.charge(parseCost)
	if err != nil {
		f.err = err
		return
	}
	f.parsed = parsed
	if c.cfg.Normalizer == NormalizeRelocTable {
		sites, err := NormalizeWithRelocs(parsed.Raw)
		if err != nil {
			f.err = fmt.Errorf("core: reloc table of %s on %s: %w", module, t.Name, err)
			return
		}
		f.relocSites = sites
		f.normHashes = make(map[string][md5.Size]byte, len(parsed.Components))
		var cost time.Duration
		for i := range parsed.Components {
			comp := &parsed.Components[i]
			data := comp.Data
			if comp.Normalize {
				data = ApplyRelocNormalization(comp, sites, info.Base)
				cost += perKB(len(data), scanCostPerKB)
			}
			f.normHashes[comp.Name] = md5.Sum(data)
			cost += perKB(len(data), hashCostPerKB)
		}
		f.timing.Checker = c.charge(cost)
	}
}

func perKB(n int, c time.Duration) time.Duration {
	return time.Duration(n/1024+1) * c
}

// CheckModule verifies one module on the target VM by comparing it against
// every peer and applying the majority vote. Peers that fail to produce the
// module are reported in Pairs but excluded from the vote denominator.
//
//modsafe:charged
func (c *Checker) CheckModule(module string, target Target, peers []Target) (*ModuleReport, error) {
	tf := c.fetchAndParse(target, module)
	if err := tf.err; err != nil {
		// A parse failure happens after the copy buffer is attached; the
		// buffer must still go back to the pool.
		c.releaseFetched(tf)
		return nil, err
	}
	rep := &ModuleReport{
		ModuleName: module,
		TargetVM:   target.Name,
		Base:       tf.info.Base,
	}
	rep.Timing.Add(tf.timing)

	rep.Elapsed = tf.timing.Searcher + tf.timing.Parser + tf.timing.Checker

	peerFetches, fetchElapsed := c.fetchStage(module, peers)
	rep.Elapsed += fetchElapsed

	tallies := make(map[string]*ComponentTally)
	order := make([]string, 0, len(tf.parsed.Components))
	for _, comp := range tf.parsed.Components {
		tallies[comp.Name] = &ComponentTally{Name: comp.Name}
		order = append(order, comp.Name)
	}

	for _, pf := range peerFetches {
		rep.Timing.Add(pf.timing)
		if pf.err != nil {
			rep.Pairs = append(rep.Pairs, PairResult{
				PeerVM: pf.target.Name, Err: pf.err, ErrClass: faults.Classify(pf.err),
			})
			continue
		}
		mismatched, cost := c.compare(tf, pf)
		charged := c.charge(cost)
		rep.Timing.Checker += charged
		rep.Elapsed += charged // target-vs-peer comparisons run serially on Dom0
		pr := PairResult{
			PeerVM:               pf.target.Name,
			Match:                len(mismatched) == 0,
			MismatchedComponents: mismatched,
		}
		rep.Pairs = append(rep.Pairs, pr)
		rep.Comparisons++
		if pr.Match {
			rep.Successes++
		}
		seen := make(map[string]bool, len(mismatched))
		for _, name := range mismatched {
			seen[name] = true
			t, ok := tallies[name]
			if !ok { // component present on peer but absent on target
				t = &ComponentTally{Name: name}
				tallies[name] = t
				order = append(order, name)
			}
			t.Mismatches++
			t.MismatchedVMs = append(t.MismatchedVMs, pf.target.Name)
		}
		for _, name := range order {
			if !seen[name] {
				tallies[name].Matches++
			}
		}
	}

	for _, name := range order {
		rep.Components = append(rep.Components, *tallies[name])
	}
	rep.Verdict = c.verdict(rep.Successes, rep.Comparisons)
	c.releaseFetched(tf)
	for _, pf := range peerFetches {
		c.releaseFetched(pf)
	}
	return rep, nil
}

// verdict applies the majority vote under the configured quorum: with fewer
// comparisons than MinPeers the result degrades to VerdictInconclusive.
func (c *Checker) verdict(successes, comparisons int) Verdict {
	min := c.cfg.Quorum.MinPeers
	if min < 1 {
		min = 1
	}
	if comparisons < min {
		return VerdictInconclusive
	}
	return vote(successes, comparisons)
}

// vote applies the paper's majority rule: clean when successes n satisfy
// n > (t-1)/2 where t-1 is the number of comparisons; altered when
// failures hold a strict majority; inconclusive otherwise (including the
// degenerate zero-comparison case).
func vote(successes, comparisons int) Verdict {
	if comparisons == 0 {
		return VerdictInconclusive
	}
	failures := comparisons - successes
	switch {
	case 2*successes > comparisons:
		return VerdictClean
	case 2*failures > comparisons:
		return VerdictAltered
	default:
		return VerdictInconclusive
	}
}

// compare hashes every component of the two copies and returns the names
// that disagree plus the nominal CPU cost of the comparison.
func (c *Checker) compare(a, b *fetched) (mismatched []string, cost time.Duration) {
	names := make(map[string]bool)
	for _, comp := range a.parsed.Components {
		names[comp.Name] = true
	}
	for _, comp := range b.parsed.Components {
		names[comp.Name] = true
	}
	for _, compA := range a.parsed.Components {
		delete(names, compA.Name)
		compB := b.parsed.Component(compA.Name)
		if compB == nil {
			mismatched = append(mismatched, compA.Name)
			continue
		}
		eq, d := c.compareComponent(a, b, &compA, compB)
		cost += d
		if !eq {
			mismatched = append(mismatched, compA.Name)
		}
	}
	// Components only the peer has.
	for name := range names {
		mismatched = append(mismatched, name)
	}
	sort.Strings(mismatched)
	return mismatched, cost
}

// compareComponent hashes one component pair under the configured
// normalizer.
func (c *Checker) compareComponent(a, b *fetched, compA, compB *Component) (bool, time.Duration) {
	if c.cfg.Normalizer == NormalizeRelocTable {
		// Hashes were precomputed per VM at parse time; comparing is free.
		return a.normHashes[compA.Name] == b.normHashes[compB.Name], 0
	}
	var cost time.Duration
	dataA, dataB := compA.Data, compB.Data
	if compA.Normalize && compB.Normalize {
		cost += perKB(len(dataA)+len(dataB), scanCostPerKB)
		// Normalize on pooled scratch buffers: a pool sweep runs O(t²)
		// comparisons over multi-hundred-KiB sections, and per-pair copies
		// would dominate the allocator.
		sa := getScratch(len(dataA))
		sb := getScratch(len(dataB))
		copy(*sa, dataA)
		copy(*sb, dataB)
		normalizePairInPlace(*sa, *sb, a.info.Base, b.info.Base, nil)
		dataA, dataB = *sa, *sb
		defer putScratch(sa)
		defer putScratch(sb)
	}
	// The charge is the nominal hashing of both sides; the host hashes only
	// when the verdict depends on it. Unequal lengths never match, and
	// equal bytes always do; only unequal bytes of equal length need the
	// MD5 comparison, which keeps its semantics exact, collisions included.
	cost += perKB(len(dataA)+len(dataB), hashCostPerKB)
	if len(compA.Data) != len(compB.Data) {
		return false, cost
	}
	if bytes.Equal(dataA, dataB) {
		return true, cost
	}
	return md5.Sum(dataA) == md5.Sum(dataB), cost
}
