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
// Clean copies are checked in place: the reference and its first partner
// are copied, the first digest fills and seals the reference memo, and
// the rest of a shard is fetched and digested in one parallel stage in
// which the Searcher compares each guest page with the reference as it
// walks the module (pageCheck). A covered copy keeps no bytes and is not
// parsed; one that differs falls back to a copy and digestAgainst. Only a
// cluster's first member keeps bytes, so a covered copy that would be it
// is re-read without a charge as part of its fetch (front) and digested
// as a copy. Charges are those of copying, so simulated time and reports
// do not depend on which copies were checked in place.
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
	"fmt"
	"sync/atomic"
	"time"

	"modchecker/internal/cas"
	"modchecker/internal/vmi"
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
func (e *engine) fetch(g int, module string, chk *pageCheck) *fetched {
	if e.ps != nil {
		return e.ps.fetchVM(g, module, chk)
	}
	i := e.grp.leader(g)
	return e.c.fetchAndParse(e.pool.Open(i), e.pool.Name(i), module, chk)
}

// front gives f, group g's copy that was covered in place, the bytes the
// first fetched member of a cluster keeps for the compare stage: a re-read
// of the frames its check already read and charged, parsed again without a
// charge. The re-read is part of the copy's fetch, so its failure fails the
// fetch. The copy is then digested as any copy is, so a guest write since
// the check shows in its key as it would in a copy made then.
func (e *engine) front(g int, module string, f *fetched) error {
	var h *vmi.Handle
	if e.ps != nil {
		h = e.ps.handles[g]
	} else {
		h = e.pool.Open(e.grp.leader(g))
	}
	buf := getFetchBuf(int(f.info.SizeOfImage))
	if err := h.Backfill(f.info.Base, buf); err != nil {
		putFetchBuf(buf)
		return fmt.Errorf("core: copying %s from %s: %w", module, f.name, err)
	}
	parsed, _, err := ParseModule(f.name, module, f.info.Base, buf)
	if err == nil {
		f.sites, err = e.c.sites().read(parsed)
	}
	if err != nil {
		putFetchBuf(buf)
		return err
	}
	f.adopt(buf, parsed)
	return nil
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
	// ip checks copies in place once the memo is sealed; nil until then,
	// and for good when the configuration or the reference's layout rules
	// it out. Verified reads and the mapped strategy keep copying.
	var ip *inPlace
	inPlaceOK := !pairwise && c.cfg.Strategy == CopyPageWise && !c.cfg.Retry.VerifyReads
	// digest computes a healthy copy's cluster key against the reference,
	// from the run's in-place check for a copy it covered and with
	// digestAgainst otherwise, and returns its charged cost.
	digest := func(s *slot) time.Duration {
		var cost time.Duration
		if s.f.inPlace {
			s.key, cost = ip.digest(s.f.info.Base)
		} else {
			s.key, cost = c.digestAgainst(o.clusters[0].f, s.f, memo)
		}
		return c.charge(cost)
	}
	// book records group i's digest cost; digests are booked in pool
	// order.
	book := func(i int, cost time.Duration) {
		digestIdx = append(digestIdx, i)
		digestCosts = append(digestCosts, cost)
		work += cost
	}

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
		f := e.fetch(m, module, nil)
		fetchCosts[m] += f.timing.Total()
		o.rep.Timing.Add(f.timing)
		if f.err != nil {
			c.releaseFetched(f)
			return false
		}
		o.clusters[cid].f = f
		return true
	}

	var batch []int
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
					sl[i-lo].f = e.fetch(i, module, nil)
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
		// The head of the batch is copied, in pool order, until the
		// reference is known and the run's first digest has filled and
		// sealed the memo on this goroutine; the digest workers only ever
		// read it.
		k := 0
		for !pairwise && k < len(batch) && (ref < 0 || memo == nil) {
			head := batch[k:min(k+2, len(batch))]
			if ref >= 0 {
				head = head[:1]
			}
			runBounded(len(head), c.stageWorkers(), func(j int) {
				sl[head[j]-lo].f = e.fetch(head[j], module, nil)
			})
			k += len(head)
			for _, i := range head {
				if !admit(i, sl[i-lo].f) {
					continue
				}
				first := memo == nil
				if first {
					tok := refTok
					if toks == nil && ref == 0 {
						tok = firstTok
					}
					var reused bool
					memo, reused = c.takeMemo(module, tok, len(o.clusters[0].f.parsed.Components))
					if reused && e.ps != nil {
						e.ps.MemoReuses++
					}
				}
				book(i, digest(&sl[i-lo]))
				if first {
					memo.seal()
				}
			}
		}
		if ip == nil && inPlaceOK && memo != nil {
			ip = newInPlace(o.clusters[0].f, memo)
			inPlaceOK = ip != nil
		}
		// The rest is fetched in one parallel stage, each copy checked in
		// place where it can be, and every copy that keeps bytes digested.
		rest := batch[k:]
		restCosts := make([]time.Duration, len(rest))
		chks := make([]*pageCheck, len(rest))
		runBounded(len(rest), c.stageWorkers(), func(j int) {
			s := &sl[rest[j]-lo]
			if ip != nil {
				chks[j] = ip.check()
			}
			s.f = e.fetch(rest[j], module, chks[j])
			if !pairwise && s.f.err == nil && !s.f.inPlace {
				restCosts[j] = digest(s)
			}
		})

		// Fold the shard into the pool-wide clusters in pool order, hits and
		// fetches interleaved, so cluster numbering is independent of the
		// shard size; the parallel stage's copies are booked as they are
		// folded. Only a cluster's first fetched copy keeps its buffer: a
		// copy covered in place that would be it is fronted, as part of its
		// fetch, and then digested as a copy.
		for i, j := lo, 0; i < hi; i++ {
			s := &sl[i-lo]
			if j < len(rest) && rest[j] == i {
				f, cost, fell := s.f, restCosts[j], chks[j].fellBack()
				j++
				fronted := false
				if f.inPlace {
					s.key = ip.key(f.info.Base)
					if cid, ok := byKey[s.key]; !ok || o.clusters[cid].f == nil {
						f.err, fronted = e.front(i, module, f), true
					}
				}
				if admit(i, f) && !pairwise {
					if f.inPlace || fronted {
						cost = digest(s)
					}
					book(i, cost)
					if e.ps != nil && f.inPlace {
						e.ps.InPlace++
					}
					if e.ps != nil && fell {
						e.ps.InPlaceFallbacks++
					}
				}
			}
			if o.errs[i] != nil || i <= ref {
				continue
			}
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
