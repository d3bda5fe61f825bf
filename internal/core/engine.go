package core

// This file holds the pool-check engine: the one computation behind
// CheckPool, ClusterPool and every PoolSweep module check. It fetches the
// module from every VM, digests each healthy copy against a pool-wide
// reference (the first healthy copy in pool order), groups equal digests
// into clusters, and runs one true pairwise comparison per cluster pair.
// Digest equality implies a pairwise match, so the clusters decide the
// paper's majority vote exactly as comparing every pair would.
//
// The engine's settings are parameters, not separate paths:
//
//   - shard: fetch+digest run in shards of at most shard identity groups
//     (VMs, without dedup), in pool order, so only O(shard + clusters)
//     module copies are ever resident. Every shard digests against the
//     same reference, so shard boundaries change neither clusters nor
//     charges nor traces; flat is shard = n.
//   - grp: identity dedup. Copy-on-write clones that still share their
//     template's frozen image (Pool.Identity) are introspected once per
//     identity group; the other members inherit the leader's outcome and
//     are charged nothing. The engine works on groups throughout — its
//     per-VM arrays are sized by groups, and only report derivation and
//     the traced fetch stage walk the pool's VMs.
//   - store: the content-addressed digest store (internal/cas), an optional
//     lookup at classification and insert at the end of the module. A VM
//     whose content token (mm.ContentID + mapping epoch) still names a
//     stored entry provably carries bit-identical guest memory, so its
//     cluster key and component names are replayed for CostCASLookup
//     instead of a fetch+parse+digest; a cluster pair whose keys were
//     compared before replays its mismatch list. CostCASLookup is charged
//     only on hits, so a cold store charges exactly what no store charges,
//     in the same per-VM order. A nil store never hits and never inserts.
//
// Config.FullPairwise turns the engine into the paper's O(n²) oracle: no
// digests, every healthy copy fronts its own cluster, so the compare stage
// compares every healthy pair independently. Shard, dedup and store do not
// apply to the oracle.
//
// Every check's PoolReport is a view over its outcome (derive): verdicts
// from cluster sizes, and each VM's detail built from the outcome's tables
// when asked for.
//
// Determinism: the store is only ever consulted from the driving
// goroutine, in pool order. Parallel stages (fetch, digest, compare) never
// touch it — insert order feeds FIFO eviction, eviction feeds later
// hit/miss patterns, and those feed simulated time, which must replay
// byte-identically for a fixed seed.

import (
	"sync/atomic"
	"time"

	"modchecker/internal/cas"
)

// engine runs module checks over one fixed VM pool.
type engine struct {
	c    *Checker
	pool Pool
	// ps is the sweep session fetches go through (module-table snapshot,
	// per-VM budgets); nil for the per-call CheckPool and ClusterPool,
	// whose fetches walk the LDR list themselves.
	ps *PoolSweep
	// grp maps the pool's VMs onto identity groups; every index the engine
	// keeps state by is a group index.
	grp   *groups
	store *cas.Store // nil: no lookups, no inserts
	shard int        // <= 0: every group in one shard
}

// clusterPair identifies one unordered pair of clusters (a < b).
type clusterPair struct{ a, b int }

// cluster is one group of bit-equivalent copies: equal digests against the
// reference (or, under FullPairwise, a single copy).
type cluster struct {
	grp   int      // first member in pool order, as a group; names the compare tasks
	key   string   // digest key; "" for the reference's cluster
	names []string // component names, shared by every member
	// f is the first fetched member's copy, the bytes the representative
	// comparisons read; nil while every member so far was a store hit.
	f *fetched
}

// outcome is one module's engine result, and what its PoolReport reads.
// Only errs, bases and clusterOf are sized by the identity groups;
// everything else is sized by clusters, or by the non-clean VMs. A dedup
// follower's outcome is its group's. Once run returns, no cluster holds a
// fetched copy.
type outcome struct {
	rep       *PoolReport // Timing, Stages and Elapsed filled in
	errs      []error     // by group
	bases     []uint32    // by group
	clusterOf []int       // by group; -1: no healthy copy
	clusters  []cluster
	mm        map[clusterPair][]string // representative comparisons
	memoHits  int64                    // digest components the reference memo's window check answered in this run
	// compareDerived counts the compare stage's component pairs the digest
	// facts answered in this run; compare workers add to it atomically.
	compareDerived int64

	// What the report's view reads besides the tables above.
	pool     Pool
	grp      *groups
	votes    []clusterVote // by cluster; filled by derive
	nonClean []int32       // pool index of each of rep.VMReports
}

// mismatches returns the representative comparison between two clusters:
// nil — a match — within one cluster.
func (o *outcome) mismatches(a, b int) []string {
	if a == b {
		return nil
	}
	if a > b {
		a, b = b, a
	}
	return o.mm[clusterPair{a, b}]
}

// fetch copies and parses the module on group g's leader: from the
// session's module-table snapshot, or with a fresh LDR walk for per-call
// checks.
//
//modown:pool module-fetch get
func (e *engine) fetch(g int, module string) *fetched {
	if e.ps != nil {
		return e.ps.fetchVM(g, module)
	}
	i := e.grp.leader(g)
	return e.c.fetchAndParse(e.pool.Open(i), e.pool.Name(i), module)
}

// report checks one module and derives its PoolReport.
func (e *engine) report(module string) *PoolReport {
	return e.derive(e.check(module))
}

// check runs one module through the engine. The store path assumes a hit
// VM's guest memory is still exactly what its token names; if the pool is
// mutated in the middle of a sweep that assumption can break (a
// materializing fetch fails where the token said it could not), and the
// module is redone without the store.
func (e *engine) check(module string) *outcome {
	if o, ok := e.run(module); ok {
		return o
	}
	direct := *e
	direct.store = nil
	o, _ := direct.run(module)
	return o
}

// sourceToken samples VM i's content token. VMs without a stable identity
// (dirtied frames, destroyed domain, installed fault plan) yield an invalid
// token, which never hits and is never stored — a faulted or mutated read
// can therefore never populate the cache.
func sourceToken(p Pool, i int) cas.Token {
	id, ok := p.Identity(i)
	if !ok {
		return cas.Token{}
	}
	return cas.Token{ID: id, OK: true, Epoch: p.Epoch(i)}
}

// componentNames extracts a fetched copy's component names in module
// order, each once: a report tallies components by name.
func componentNames(f *fetched) []string {
	comps := f.parsed.Components
	names := make([]string, 0, len(comps))
	for k := range comps {
		if comps[k].occ == 0 {
			names = append(names, comps[k].Name)
		}
	}
	return names
}

// run is one pass of the engine. It reports ok=false only when a fetch the
// store's tokens guaranteed would succeed failed anyway. run owns every copy
// it fetches: shard slots and clusters hold them until the fold or the
// deferred release recycles them.
//
//moddet:sink clusters and comparisons must not depend on host state or ordering
//modown:transfer module-fetch
func (e *engine) run(module string) (*outcome, bool) {
	c := e.c
	n := e.grp.count()
	shard := e.shard
	if shard <= 0 || shard > n {
		shard = n
	}
	pairwise := c.cfg.FullPairwise
	o := &outcome{
		rep:       &PoolReport{ModuleName: module},
		pool:      e.pool,
		grp:       e.grp,
		errs:      make([]error, n),
		bases:     make([]uint32, n),
		clusterOf: make([]int, n),
	}
	for i := range o.clusterOf {
		o.clusterOf[i] = -1
	}
	fetchCosts := make([]time.Duration, n)
	var digestIdx []int // group per digest task, pool order
	var digestCosts []time.Duration
	var work time.Duration // Checker work: store hits, digests, comparisons
	ref := -1              // the reference: first healthy group in pool order
	var refTok cas.Token
	// Store only: per-group content tokens, sampled once per module from
	// the leaders. A hit's token is cleared, since a replayed entry is
	// never re-inserted.
	var toks []cas.Token
	if e.store != nil {
		toks = make([]cas.Token, n)
		for g := range toks {
			toks[g] = sourceToken(e.pool, e.grp.leader(g))
		}
	}
	// memo holds how Algorithm 2 rewrote the reference. It is taken from
	// the Checker only once a shard has something to digest, and put back
	// when the run ends; a run that digests nothing drops the kept one.
	var memo *refMemo
	// The memo's stamp is the reference's token, sampled before any fetch
	// like the store's. Without the store only the first group's token is
	// sampled, and it stamps the memo only if that group is the reference.
	var firstTok cas.Token
	if toks == nil && !pairwise {
		firstTok = sourceToken(e.pool, e.grp.leader(0))
	}
	// Cluster copies outlive their shard; every other buffer is released
	// as soon as its VM is clustered.
	defer func() {
		for cid := range o.clusters {
			c.releaseFetched(o.clusters[cid].f)
			o.clusters[cid].f = nil
		}
		if memo != nil {
			o.memoHits = memo.hits.Load()
			if e.ps != nil {
				e.ps.MemoWindowHits += int(o.memoHits)
			}
		}
		c.putMemo(module, memo)
	}()
	byKey := map[string]int{"": 0} // only store hits of the reference's own token carry ""

	// slot is one shard group's classification: its fetched copy, or the
	// store entry that replaced the fetch, and its digest key.
	type slot struct {
		f     *fetched
		key   string
		names []string // store hits only
	}
	slots := make([]slot, shard)

	// admit books group i's fetch in pool order and reports whether the copy
	// is healthy and still needs clustering. The first healthy copy becomes
	// the reference and fronts cluster 0.
	admit := func(i int, f *fetched) bool {
		fetchCosts[i] += f.timing.Total()
		o.rep.Timing.Add(f.timing)
		if f.err != nil {
			o.errs[i] = f.err
			c.releaseFetched(f)
			return false
		}
		o.bases[i] = f.info.Base
		if ref >= 0 {
			return true
		}
		ref = i
		if toks != nil {
			refTok = toks[i]
		}
		o.clusterOf[i] = 0
		o.clusters = append(o.clusters, cluster{grp: i, names: componentNames(f), f: f})
		return false
	}
	// materialize fetches a cluster's first member when a real comparison
	// (or, for the reference, a digest) needs bytes no fetch has produced.
	materialize := func(cid int) bool {
		m := o.clusters[cid].grp
		f := e.fetch(m, module)
		fetchCosts[m] += f.timing.Total()
		o.rep.Timing.Add(f.timing)
		if f.err != nil {
			c.releaseFetched(f)
			return false
		}
		o.clusters[cid].f = f
		return true
	}

	var batch, toDigest []int
	for lo := 0; lo < n; lo += shard {
		hi := min(lo+shard, n)
		sl := slots[:hi-lo]
		clear(sl)

		// Classification, in pool order. A store hit needs no fetch. While
		// the reference is unresolved, a store miss is fetched on the spot:
		// later lookups are addressed by the reference's token, and only a
		// VM's own reference entry can resolve an unfetched reference (it
		// proves fetch+parse succeed on that image).
		batch = batch[:0]
		for i := lo; i < hi; i++ {
			if toks != nil {
				info, err := e.ps.lookup(i, module)
				if err != nil {
					o.errs[i] = err
					continue
				}
				against := refTok
				if ref < 0 {
					against = toks[i]
				}
				if ent, ok := e.store.LookupDigest(module, against, toks[i]); ok {
					lc := c.charge(CostCASLookup)
					fetchCosts[i] = lc
					work += lc
					o.bases[i] = info.Base
					if ref < 0 {
						ref, refTok = i, toks[i]
						o.clusterOf[i] = 0
						o.clusters = append(o.clusters, cluster{grp: i, names: ent.Names})
					} else {
						sl[i-lo] = slot{key: ent.Key, names: ent.Names}
					}
					toks[i] = cas.Token{}
					continue
				}
				if ref < 0 {
					sl[i-lo].f = e.fetch(i, module)
					admit(i, sl[i-lo].f)
					continue
				}
			}
			batch = append(batch, i)
		}

		// Misses digest against the reference, so its bytes must exist. A
		// store-hit reference is only materialized once something misses —
		// the all-hit steady state fetches nothing.
		if len(batch) > 0 && ref >= 0 && o.clusters[0].f == nil && !materialize(0) {
			return nil, false
		}
		runBounded(len(batch), c.stageWorkers(), func(k int) {
			sl[batch[k]-lo].f = e.fetch(batch[k], module)
		})
		toDigest = toDigest[:0]
		for _, i := range batch {
			if admit(i, sl[i-lo].f) && !pairwise {
				toDigest = append(toDigest, i)
			}
		}

		// Digest the shard's healthy copies against the reference.
		first := len(digestCosts)
		digestCosts = append(digestCosts, make([]time.Duration, len(toDigest))...)
		digest := func(k int) {
			s := &sl[toDigest[k]-lo]
			key, cost := c.digestAgainst(o.clusters[0].f, s.f, memo)
			s.key = key
			digestCosts[first+k] = c.charge(cost)
		}
		from := 0
		if len(toDigest) > 0 && memo == nil {
			// The run's first digest fills the memo here, on the driving
			// goroutine; the workers only ever read it.
			tok := refTok
			if toks == nil && ref == 0 {
				tok = firstTok
			}
			var reused bool
			memo, reused = c.takeMemo(module, tok, len(o.clusters[0].f.parsed.Components))
			if reused && e.ps != nil {
				e.ps.MemoReuses++
			}
			digest(0)
			memo.seal()
			from = 1
		}
		runBounded(len(toDigest)-from, c.stageWorkers(), func(k int) { digest(from + k) })
		digestIdx = append(digestIdx, toDigest...)
		for _, d := range digestCosts[first:] {
			work += d
		}

		// Fold the shard into the pool-wide clusters in pool order, hits and
		// fetches interleaved, so cluster numbering is independent of the
		// shard size. Only a cluster's first fetched copy keeps its buffer.
		for i := lo; i < hi; i++ {
			if o.errs[i] != nil || i <= ref {
				continue
			}
			s := &sl[i-lo]
			cid, ok := byKey[s.key]
			if !ok || pairwise {
				cid = len(o.clusters)
				byKey[s.key] = cid
				names := s.names
				if s.f != nil {
					names = componentNames(s.f)
				}
				o.clusters = append(o.clusters, cluster{grp: i, key: s.key, names: names, f: s.f})
			} else if o.clusters[cid].f == nil {
				o.clusters[cid].f = s.f
			} else {
				c.releaseFetched(s.f)
			}
			o.clusterOf[i] = cid
		}
	}

	// One true comparison per cluster pair — replayed from the store when
	// the key pair's outcome is cached (an empty cached list is a cached
	// match), computed otherwise.
	var cpairs []clusterPair
	for a := range o.clusters {
		for b := a + 1; b < len(o.clusters); b++ {
			cpairs = append(cpairs, clusterPair{a, b})
		}
	}
	mms := make([][]string, len(cpairs))
	costs := make([]time.Duration, len(cpairs))
	var toCompare []int
	for k, p := range cpairs {
		if refTok.OK {
			if mm, ok := e.store.LookupMismatch(module, refTok, o.clusters[p.a].key, o.clusters[p.b].key); ok {
				mms[k] = mm
				costs[k] = c.charge(CostCASLookup)
				work += costs[k]
				continue
			}
		}
		toCompare = append(toCompare, k)
	}
	// A cluster whose members were all store hits has no bytes yet.
	needed := make([]bool, len(o.clusters))
	for _, k := range toCompare {
		needed[cpairs[k].a], needed[cpairs[k].b] = true, true
	}
	for cid := range o.clusters {
		if needed[cid] && o.clusters[cid].f == nil && !materialize(cid) {
			return nil, false
		}
	}
	// Digest facts answer most components: a pair with the reference reads
	// its partner's digest, and two clusters digested clean against the
	// reference's windows match there (compareFact). A materialized
	// cluster has no facts, and its components run Algorithm 2 again.
	runBounded(len(toCompare), c.stageWorkers(), func(k int) {
		p := cpairs[toCompare[k]]
		mm, cost, derived := c.compare(o.clusters[p.a].f, o.clusters[p.b].f)
		mms[toCompare[k]] = mm
		costs[toCompare[k]] = c.charge(cost)
		atomic.AddInt64(&o.compareDerived, int64(derived))
	})
	if e.ps != nil {
		e.ps.CompareDerived += int(o.compareDerived)
	}
	o.mm = make(map[clusterPair][]string, len(cpairs))
	for k, p := range cpairs {
		o.mm[p] = mms[k]
	}
	for _, k := range toCompare {
		work += costs[k]
	}

	// Store what this module taught — on the driving goroutine, in pool
	// order, so FIFO eviction order replays deterministically. Entries are
	// only written under valid tokens: a VM fetched through a fault plan,
	// or whose memory has diverged from any frozen layer, has none.
	if refTok.OK {
		for i, tok := range toks {
			if o.clusterOf[i] >= 0 {
				cl := &o.clusters[o.clusterOf[i]]
				e.store.InsertDigest(module, refTok, tok, cas.Entry{Key: cl.key, Names: cl.names})
			}
		}
		for _, k := range toCompare {
			p := cpairs[k]
			e.store.InsertMismatch(module, refTok, o.clusters[p.a].key, o.clusters[p.b].key, mms[k])
		}
	}

	// One fetch, one digest and one compare stage per module with globally
	// accumulated task costs: shard boundaries are invisible to the trace
	// and to the elapsed-time model. The fetch stage's tasks are the pool's
	// VMs, dedup followers included.
	rep := o.rep
	name := func(g int) string { return e.pool.Name(e.grp.leader(g)) }
	rep.Stages.Fetch = c.traceStage("fetch", module,
		func(k int) string { return "fetch " + e.pool.Name(k) }, fetchCosts, e.grp)
	rep.Stages.Digest = c.traceStage("digest", module,
		func(k int) string { return "digest " + name(digestIdx[k]) }, digestCosts, nil)
	rep.Stages.Compare = c.traceStage("compare", module, func(k int) string {
		p := cpairs[k]
		return "compare " + name(o.clusters[p.a].grp) + " vs " + name(o.clusters[p.b].grp)
	}, costs, nil)
	rep.Elapsed = rep.Stages.Fetch + rep.Stages.Digest + rep.Stages.Compare
	rep.Timing.Checker += work
	return o, true
}
