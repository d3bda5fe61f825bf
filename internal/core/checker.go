package core

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Target identifies one VM to the checker by name and open introspection
// handle. Callers that name a whole fleet describe it as a Pool instead,
// which costs no Target value per VM.
type Target struct {
	Name   string
	Handle *vmi.Handle
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

// Pool describes the VMs of a pool check by index, in pool order: what a
// Target says about one VM, asked of VM i only when the check needs it. A
// sweep session opens only the VMs it lists — one per identity group under
// Config.DedupIdentical — so a fleet described as a Pool pays for the VMs
// a sweep reads, not for a Target (and its closures) per VM.
type Pool interface {
	// Len is the number of VMs in the pool.
	Len() int
	// Name returns VM i's name.
	Name(i int) string
	// Open returns an open introspection handle on VM i. Opening charges
	// no simulated time; a session opens each VM it lists once.
	Open(i int) *vmi.Handle
	// Identity returns VM i's content-identity token, as Target.Identity;
	// ok=false when it has none.
	Identity(i int) (id uint64, ok bool)
	// Epoch returns VM i's mapping epoch, as Target.Epoch; 0 when it has
	// none.
	Epoch(i int) uint64
	// IdentityStamp names the pool's identity answers as a whole. Two pools
	// that return equal stamps with ok=true promise equal Len and equal
	// Identity(i) for every i, so a dedup sweep may keep the identity
	// groups it built for one when it sweeps the other instead of sampling
	// every VM again. ok=false promises nothing.
	IdentityStamp() (stamp uint64, ok bool)
}

// targetPool is the Pool of a target slice: the adapter behind every
// []Target entry point.
type targetPool []Target

func (p targetPool) Len() int               { return len(p) }
func (p targetPool) Name(i int) string      { return p[i].Name }
func (p targetPool) Open(i int) *vmi.Handle { return p[i].Handle }

func (p targetPool) Identity(i int) (uint64, bool) {
	if p[i].Identity == nil {
		return 0, false
	}
	return p[i].Identity()
}

func (p targetPool) Epoch(i int) uint64 {
	if p[i].Epoch == nil {
		return 0
	}
	return p[i].Epoch()
}

// IdentityStamp: a target slice's closures promise nothing beyond the
// moment they are called.
func (p targetPool) IdentityStamp() (uint64, bool) { return 0, false }

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
	// DedupIdentical and DigestCache do not apply to it.
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
	// dedup is the identity grouping of the last dedup sweep over a pool
	// that carried an identity stamp, kept for the next sweep whose pool
	// carries the same one (see NewPoolSweepFrom). Atomic because sessions
	// may be opened from several goroutines.
	dedup atomic.Pointer[stampedGroups]
	// tables keeps the module tables the last session used, by the content
	// token of the leader each was walked from, for the next session's
	// leaders under the same tokens (see NewPoolSweepFrom). A session swaps
	// in a map of its own; a stored map is never written again, so the
	// tables in it are shared read-only. nil when no leader had a token.
	tables atomic.Pointer[map[cas.Token][]ModuleInfo]
	// memos keeps each module's reference memo between engine runs (see
	// takeMemo).
	memoMu sync.Mutex
	memos  map[string]*refMemo // guarded by memoMu
	// names interns the module names every list walk decodes (see
	// nameTable).
	names nameTable
}

// stampedGroups is an identity grouping and the pool stamp it was built
// under.
type stampedGroups struct {
	stamp uint64
	grp   *groups
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
	Name       string
	Matches    int
	Mismatches int
}

// tallyComponents builds a report's component tallies: the target copy's
// component names in module order, then any name only peers carry, in the
// order the disputes first list it. disputes calls its argument once per
// peer comparison that mismatched (or, for a pool view, per disputing
// cluster) with the mismatched names, each once, and the number of peers
// the comparison stands for. A component matched every comparison that
// did not dispute it.
func tallyComponents(names []string, comparisons int, disputes func(func(mm []string, peers int))) []ComponentTally {
	tallies := make([]ComponentTally, len(names))
	for k, name := range names {
		tallies[k].Name = name
	}
	disputes(func(mm []string, peers int) {
		for _, name := range mm {
			k := slices.IndexFunc(tallies, func(t ComponentTally) bool { return t.Name == name })
			if k < 0 {
				k = len(tallies)
				tallies = append(tallies, ComponentTally{Name: name})
			}
			tallies[k].Mismatches += peers
		}
	})
	for k := range tallies {
		tallies[k].Matches = comparisons - tallies[k].Mismatches
	}
	return tallies
}

// ModuleReport is the result of checking one module on one target VM
// against a pool of peers.
type ModuleReport struct {
	ModuleName string
	TargetVM   string
	Base       uint32

	// Pairs holds CheckModule's result against each peer. A pool report's
	// VMs leave it nil; PoolReport.Pairs derives theirs.
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
	name   string // the VM fetched from
	info   *ModuleInfo
	parsed *ParsedModule
	timing PhaseTiming
	// sites are the copy's own .reloc sites, read when it is parsed under
	// the reloc-table normalizer (see siteSource).
	sites []uint32
	// buf is the raw module copy backing parsed.Raw and every component's
	// Data, drawn from the fetch-buffer pool; once a report no longer
	// needs the bytes, releaseFetched recycles it.
	buf []byte
	err error
	// inPlace marks a copy the Searcher checked in place and found
	// covered (see pageCheck): it has info and timing but no bytes and no
	// parse, and its layout is the reference's.
	inPlace bool

	// Digest facts: what digestAgainst learned about this copy against the
	// reference fetch `against` (nil: nothing recorded), one bit per
	// component index below 64, so the compare stage need not run
	// Algorithm 2 on the copy again (compareFact).
	//   - refMatch: compareComponent against the reference's peer matches,
	//     when the peer has the component's Normalize flag;
	//   - refCovered: the component equals the reference's peer outside the
	//     memo entry's windows and carries its RVAs inside them, or the
	//     bases are equal and the bytes are the reference's.
	// covered: every component is covered and is the reference's component
	// of the same index, so the copy takes the covered key.
	against              *fetched
	refMatch, refCovered uint64
	covered              bool
	// moved: the fetch is a covered copy's stand-in, the reference's bytes
	// moved to this base at the memo's windows (refMemo.standIn).
	moved *refMemo
}

// releaseFetched recycles a fetch's module buffer once nothing derived from
// the report aliases it (reports hold only fresh strings and scalars).
//
//modown:pool module-fetch put
func (c *Checker) releaseFetched(f *fetched) {
	if f == nil || f.buf == nil {
		return
	}
	putFetchBuf(f.buf)
	f.buf = nil
	f.parsed = nil
}

// fetchAndParse runs Module-Searcher and Module-Parser for one VM through
// its open handle, reading in place through chk when it is not nil (see
// Searcher.readModule). The returned fetch owns a pooled module buffer,
// unless it was covered in place, until releaseFetched runs.
//
//modown:pool module-fetch get
func (c *Checker) fetchAndParse(h *vmi.Handle, name, module string, chk *pageCheck) *fetched {
	f := &fetched{name: name}
	info, buf, searchCost, err := c.newSearcher(h).fetchModule(module, chk)
	f.timing.Searcher = c.charge(searchCost)
	switch {
	case err != nil:
		f.err = err
	case buf == nil:
		c.coveredInPlace(f, info, chk)
	default:
		c.parseFetched(f, module, info, buf)
	}
	return f
}

// coveredInPlace fills in a fetch the Searcher checked in place with chk
// and found covered. Its bytes parse to the reference's layout, so it is
// charged the parse, and the site source's work on its own, of that
// layout without doing either.
func (c *Checker) coveredInPlace(f *fetched, info *ModuleInfo, chk *pageCheck) {
	f.info = info
	f.inPlace = true
	f.timing.Parser = c.charge(parseCost(int(info.SizeOfImage)))
	if w := chk.memo.src.copyWork(chk.ref.parsed); w > 0 {
		f.timing.Checker = c.charge(w)
	}
}

// parseFetched runs Module-Parser on an already-copied module image, and
// reads the copy's own sites when the site source has them, filling in the
// fetch. Shared by the per-call fetch path and the sweep session, which
// copies the module itself from its module-table snapshot. Ownership of
// buf moves into the fetch record; releaseFetched recycles it.
//
//modown:transfer fetch-buf
func (c *Checker) parseFetched(f *fetched, module string, info *ModuleInfo, buf []byte) {
	f.info = info
	f.buf = buf
	parsed, parseCost, err := ParseModule(f.name, module, info.Base, buf)
	f.timing.Parser = c.charge(parseCost)
	if err != nil {
		f.err = err
		return
	}
	f.parsed = parsed
	src := c.sites()
	if f.sites, err = src.read(parsed); err != nil {
		f.err = err
		return
	}
	if w := src.copyWork(parsed); w > 0 {
		f.timing.Checker = c.charge(w)
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
	tf := c.fetchAndParse(target.Handle, target.Name, module, nil)
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

	for _, pf := range peerFetches {
		rep.Timing.Add(pf.timing)
		if pf.err != nil {
			rep.Pairs = append(rep.Pairs, PairResult{
				PeerVM: pf.name, Err: pf.err, ErrClass: faults.Classify(pf.err),
			})
			continue
		}
		mismatched, cost, _ := c.compare(tf, pf)
		charged := c.charge(cost)
		rep.Timing.Checker += charged
		rep.Elapsed += charged // target-vs-peer comparisons run serially on Dom0
		rep.Pairs = append(rep.Pairs, PairResult{
			PeerVM:               pf.name,
			Match:                len(mismatched) == 0,
			MismatchedComponents: mismatched,
		})
		rep.Comparisons++
		if len(mismatched) == 0 {
			rep.Successes++
		}
	}
	rep.Components = tallyComponents(componentNames(tf), rep.Comparisons, func(dispute func([]string, int)) {
		for _, p := range rep.Pairs {
			if len(p.MismatchedComponents) > 0 {
				dispute(p.MismatchedComponents, 1)
			}
		}
	})
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

// compare hashes every component pair of the two copies and returns the
// names that disagree, sorted and without repeats, plus the nominal CPU
// cost of the comparison and how many component pairs the digest facts
// answered without running Algorithm 2 again. Components pair by name and
// occurrence (see ParsedModule.peer); one that has no peer mismatches.
func (c *Checker) compare(a, b *fetched) (mismatched []string, cost time.Duration, derived int) {
	ca, cb := a.parsed.Components, b.parsed.Components
	for i := range ca {
		compA := &ca[i]
		j := b.parsed.peer(compA, i)
		if j < 0 {
			mismatched = append(mismatched, compA.Name)
			continue
		}
		compB := &cb[j]
		cost += c.compareCost(compA, compB)
		eq, ok := compareFact(a, b, i, j)
		if ok {
			derived++
		} else {
			eq = c.compareComponent(a, b, i, j)
		}
		if !eq {
			mismatched = append(mismatched, compA.Name)
		}
	}
	// Components only the peer has.
	for j := range cb {
		if a.parsed.peer(&cb[j], j) < 0 {
			mismatched = append(mismatched, cb[j].Name)
		}
	}
	slices.Sort(mismatched)
	return slices.Compact(mismatched), cost, derived
}

// compareFact answers the comparison of component i of a with its peer,
// component j of b, from the digest facts, when they settle it (ok):
//
//   - a is the reference b was digested against: the digest's refMatch
//     bit. Algorithm 2 is symmetric in its sides, so the digest's sums are
//     the comparison's.
//   - both sides were digested against one reference and both are
//     covered: a match. Both sides equal the reference outside the same
//     windows and carry the same RVAs inside them, so Algorithm 2 run on
//     the pair, at the pair's own base offset, rewrites exactly those
//     windows and leaves the sides equal (refMemo.covers' argument).
//   - one side is a covered copy's stand-in and the other is not covered:
//     a mismatch where refMemo.apart proves one.
//
// Everything else, including a pair whose Normalize flags differ, is left
// to compareComponent.
func compareFact(a, b *fetched, i, j int) (eq, ok bool) {
	if i >= 64 || j >= 64 || a.parsed.Components[i].Normalize != b.parsed.Components[j].Normalize {
		return false, false
	}
	switch {
	case b.against == a:
		return b.refMatch>>j&1 != 0, true
	case a.against == nil || a.against != b.against:
	case a.refCovered>>i&1 != 0 && b.refCovered>>j&1 != 0:
		return true, true
	case a.moved != nil && b.refCovered>>j&1 == 0 && a.parsed.Components[i].Normalize:
		return false, a.moved.apart(i, b.side(j), a.against.side(i), a.info.Base)
	case b.moved != nil && a.refCovered>>i&1 == 0 && b.parsed.Components[j].Normalize:
		return false, b.moved.apart(j, a.side(i), b.against.side(j), b.info.Base)
	}
	return false, false
}

// compareCost is the nominal CPU cost of comparing one component pair:
// scanning both sides when they are normalized, and hashing both (see
// siteSource.pairWork). It depends only on the lengths, so a comparison
// the digest facts answer is charged what running it costs.
func (c *Checker) compareCost(compA, compB *Component) time.Duration {
	return c.sites().pairWork(len(compA.Data)+len(compB.Data), compA.Normalize && compB.Normalize)
}

// compareComponent hashes component i of a and its peer, component j of
// b, each rewritten at its windows; compareCost is its charge.
func (c *Checker) compareComponent(a, b *fetched, i, j int) bool {
	compA, compB := &a.parsed.Components[i], &b.parsed.Components[j]
	dataA, dataB := compA.Data, compB.Data
	if len(dataA) != len(dataB) {
		// Unequal lengths never match.
		return false
	}
	if compA.Normalize && compB.Normalize {
		// Normalize on pooled scratch buffers: a pool sweep runs O(t²)
		// comparisons over multi-hundred-KiB sections, and per-pair copies
		// would dominate the allocator.
		sa, sb, _ := c.sites().rewritten(a.side(i), b.side(j), nil)
		dataA, dataB = *sa, *sb
		defer putScratch(sa)
		defer putScratch(sb)
	}
	// The host hashes only when the verdict depends on it: equal bytes
	// always match, and only unequal bytes of equal length need the MD5
	// comparison, which keeps its semantics exact, collisions included.
	if bytes.Equal(dataA, dataB) {
		return true
	}
	return md5.Sum(dataA) == md5.Sum(dataB)
}
