package core

// This file holds the pool-check engine: the one computation behind
// CheckPool, ClusterPool and every PoolSweep module check. It fetches the
// module from every VM, digests each healthy copy against a pool-wide
// reference (the first healthy copy in pool order), groups the copies into
// clusters, and runs one true pairwise comparison per pair of clusters that
// the digests do not already answer. Its reports are those of comparing
// every pair, MD5 collisions aside.
//
// A cluster is one key, at one load base once its module is split by base.
// A copy the reference covers
// on every component (fetched.covered), digested or checked in place, keys
// the run's covered key (refMemo.key), whatever its base; every other copy
// keys its digest. Copies that share a key match pairwise, so a module
// whose copies all share one key, as a clean one does, is one cluster and
// runs no comparison. Under the diff scan a comparison's outcome also
// depends on the pair's bases (Algorithm 2 rewrites only the fields in
// which a pair differs), so a key is split by base as soon as a module
// has a second key, and the clusters of two keys are compared base by
// base. Copies that share a key and a base are byte for byte the same in
// every compared byte, so each cluster's first member stands exactly for
// the rest. Own sites rewrite each copy alone, and a key alone settles its
// comparisons.
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
// Clean copies are checked in place: the reference and the head of the
// pool are copied and digested one at a time, in pool order, and fill and
// seal the reference memo; the rest of a shard is fetched and digested in
// one parallel stage in which the Searcher compares each guest page with
// the reference as it walks the module (pageCheck). A covered copy keeps no
// bytes and is not parsed; one that differs falls back to a copy and
// digestAgainst. A comparison that needs a covered copy's bytes reads the
// reference's through a stand-in (refMemo.standIn). Charges are those
// of copying, so simulated time and reports do not depend on which copies
// were checked in place.
//
// Config.FullPairwise turns the engine into the paper's O(n²) oracle: no
// reference and no digests, every healthy copy is a cluster of its own, so
// the compare stage compares every healthy pair independently. Shard,
// dedup and store do not apply to the oracle.
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
	"encoding/binary"
	"slices"
	"sync/atomic"
	"time"

	"modchecker/internal/cas"
)

// maxHead bounds the head digests of a run: the memo seals after the first
// one the reference covers under windows, or after maxHead, so an infected
// reference, or a pool that shares the reference's base, is not digested
// in sequence. A digest at the reference's base fills nothing, so in a
// pool whose templates alternate, an infected first partner hands the fill
// to the third head digest.
const maxHead = 3

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
	// slots are the shard's classifications, toks and fetchCosts the run's
	// per-group content tokens and fetch-stage costs, kept for the engine's
	// next run: runs of one engine never overlap, and no run's result
	// holds them.
	slots      []slot
	toks       []cas.Token
	fetchCosts []time.Duration
}

// reuse returns (*s)[:n], zeroed, growing *s first when it is shorter.
func reuse[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	r := (*s)[:n]
	clear(r)
	return r
}

// slot is one shard group's classification: its fetched copy, or the
// store entry that replaced the fetch, and its cluster key ("" for a copy
// covered in this run, until the memo's key is known). The reference's
// slot is empty: cluster 0 holds its copy.
type slot struct {
	f     *fetched
	key   string
	names []string // store hits only
}

// clusterPair identifies one unordered pair of clusters (a < b).
type clusterPair struct{ a, b int }

// cluster is one group of copies that match pairwise: one key, at one base
// once the module is split by base (or, under FullPairwise, a single copy).
// Cluster 0 holds the reference.
type cluster struct {
	grp   int    // first member in pool order, as a group; names the compare tasks
	key   string // the members' key: the run's covered key, or a digest; "" for a reference no copy was digested against
	base  uint32 // the first member's load base
	names []string
	// f is the bytes the comparisons read: the first fetched member's copy
	// of a key the memo cannot rebuild, a rebuilt or materialized copy, or,
	// for cluster 0, the reference's; nil until one is needed.
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
// nil — a match — within one cluster, and between two of one key.
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
	src := cas.Source(c.cfg.Normalizer) // store records never cross normalizers
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
	fetchCosts := reuse(&e.fetchCosts, n)
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
		toks = reuse(&e.toks, n)
		for g := range toks {
			toks[g] = sourceToken(e.pool, e.grp.leader(g))
		}
	}
	// memo holds how Algorithm 2 rewrote the reference. It is taken from
	// the Checker only once a shard has something to digest, and put back
	// when the run ends; a run that digests nothing drops the kept one.
	// heads counts the digests made while it was filling; covKey is its key
	// once sealed.
	var memo *refMemo
	var heads int
	var covKey string
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
	// Clusters are found by key. Under the diff scan a module with a second
	// key is split by base after the fold, so a cluster keeps the bytes of a
	// member at its first member's base only.
	perBase := !pairwise && c.sites().perBase()
	byKey := map[string]int{}
	slots := reuse(&e.slots, shard)
	defer clear(slots) // no fetched copy outlives the run in a slot
	// ip checks copies in place once the memo is sealed; nil until then, and
	// for good when the configuration or the reference's layout rules it
	// out. Verified reads and the mapped strategy keep copying.
	var ip *inPlace
	inPlaceOK := !pairwise && c.cfg.Strategy == CopyPageWise && !c.cfg.Retry.VerifyReads
	// digest computes a healthy copy's cluster key against the reference
	// and returns its charged cost. A copy the reference covers on every
	// component, in place or by digestAgainst, keys "" until the fold.
	digest := func(s *slot) time.Duration {
		var cost time.Duration
		if s.key = ""; s.f.inPlace {
			cost = ip.digest(s.f.info.Base)
		} else if s.key, cost = c.digestAgainst(o.clusters[0].f, s.f, memo); s.f.covered {
			s.key = ""
		}
		return c.charge(cost)
	}
	// book records group i's digest cost, and counts its copy when chk
	// checked it in place; digests are booked in pool order.
	book := func(i int, cost time.Duration, f *fetched, chk *pageCheck) {
		digestIdx = append(digestIdx, i)
		digestCosts = append(digestCosts, cost)
		work += cost
		if e.ps != nil && f.inPlace {
			e.ps.InPlace++
		}
		if e.ps != nil && chk.fellBack() {
			e.ps.InPlaceFallbacks++
		}
	}

	// admit books group i's fetch in pool order and reports whether the copy
	// is healthy and still needs a digest. Outside the oracle, the first
	// healthy copy becomes the reference: cluster 0 takes its copy.
	admit := func(i int, f *fetched) bool {
		fetchCosts[i] += f.timing.Total()
		o.rep.Timing.Add(f.timing)
		if f.err != nil {
			o.errs[i] = f.err
			c.releaseFetched(f)
			return false
		}
		o.bases[i] = f.info.Base
		if ref >= 0 || pairwise {
			return true
		}
		ref = i
		if toks != nil {
			refTok = toks[i]
		}
		o.clusterOf[i] = 0
		o.clusters = append(o.clusters, cluster{grp: i, base: f.info.Base, names: componentNames(f), f: f})
		return false
	}
	// keyed takes the sealed memo's key as the covered key, and cluster 0's
	// when no store entry named it, and readies the in-place check.
	keyed := func() {
		covKey = memo.key(o.clusters[0].f.parsed)
		if o.clusters[0].key == "" {
			o.clusters[0].key = covKey
			byKey[covKey] = 0
		}
		if inPlaceOK {
			ip = newInPlace(o.clusters[0].f, memo)
			inPlaceOK = ip != nil
		}
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
				if ent, ok := e.store.LookupDigestFrom(src, module, against, toks[i]); ok {
					lc := c.charge(CostCASLookup)
					fetchCosts[i] = lc
					work += lc
					o.bases[i] = info.Base
					if ref < 0 {
						ref, refTok = i, toks[i]
						o.clusterOf[i] = 0
						o.clusters = append(o.clusters, cluster{grp: i, key: ent.Key, base: info.Base, names: ent.Names})
						byKey[ent.Key] = 0
					} else {
						sl[i-lo] = slot{key: ent.Key, names: ent.Names}
					}
					toks[i] = cas.Token{}
					continue
				}
				if ref < 0 {
					sl[i-lo].f = e.fetch(i, module, nil)
					admit(i, sl[i-lo].f)
					sl[i-lo].f = nil // released, or the reference's: cluster 0 holds it
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
		// The head of the batch is fetched and digested in pool order, on
		// this goroutine, until the reference is known and the memo is
		// sealed: by the first head digest the reference covers under
		// windows, by the maxHead-th, or at the end of the pool. The digest
		// workers only ever read the memo.
		k := 0
		for !pairwise && k < len(batch) && (ref < 0 || memo == nil || memo.filling) {
			head := batch[k:min(k+2, len(batch))]
			if ref >= 0 {
				head = head[:1]
			}
			runBounded(len(head), c.stageWorkers(), func(j int) {
				sl[head[j]-lo].f = e.fetch(head[j], module, nil)
			})
			k += len(head)
			for _, i := range head {
				s := &sl[i-lo]
				if !admit(i, s.f) {
					s.f = nil
					continue
				}
				if memo == nil {
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
				book(i, digest(s), s.f, nil)
				if s.f.covered {
					c.releaseFetched(s.f) // its bytes are never read again
				}
				if heads++; heads == maxHead || s.f.covered && !memo.src.raw(s.f.info.Base, o.bases[ref]) {
					memo.seal()
				}
			}
		}
		if memo != nil && !memo.filling && covKey == "" {
			keyed()
		}
		// The rest is fetched and digested in one parallel stage, each copy
		// checked in place where it can be.
		rest := batch[k:]
		restCosts := make([]time.Duration, len(rest))
		chks := make([]*pageCheck, len(rest))
		runBounded(len(rest), c.stageWorkers(), func(j int) {
			s := &sl[rest[j]-lo]
			if ip != nil {
				chks[j] = ip.check()
			}
			s.f = e.fetch(rest[j], module, chks[j])
			if !pairwise && s.f.err == nil {
				restCosts[j] = digest(s)
			}
		})

		// Fold the shard into the pool-wide clusters in pool order, hits and
		// fetches interleaved, so cluster numbering is independent of the
		// shard size; the parallel stage's copies are booked as they are
		// folded. A copy covered in this run takes the covered key. Only the
		// first fetched copy at a base of a key the memo cannot rebuild keeps
		// its buffer.
		for i, j := lo, 0; i < hi; i++ {
			s := &sl[i-lo]
			if j < len(rest) && rest[j] == i {
				if admit(i, s.f) && !pairwise {
					book(i, restCosts[j], s.f, chks[j])
				}
				j++
			}
			if o.errs[i] != nil || i == ref {
				continue
			}
			// A covered copy at the reference's base is its bytes, and joins
			// it, before the memo is sealed too.
			if !pairwise && s.f != nil && s.key == "" && o.bases[i] == o.bases[ref] {
				c.releaseFetched(s.f)
				o.clusterOf[i] = 0
				continue
			}
			if s.f != nil && s.key == "" {
				s.key = covKey
			}
			covered := covKey != "" && s.key == covKey
			cid, ok := byKey[s.key]
			if !ok || pairwise {
				cid = len(o.clusters)
				byKey[s.key] = cid
				names := s.names
				if covered {
					names = o.clusters[0].names
				} else if s.f != nil {
					names = componentNames(s.f)
				}
				o.clusters = append(o.clusters, cluster{grp: i, key: s.key, base: o.bases[i], names: names})
			}
			o.clusterOf[i] = cid
			if cl := &o.clusters[cid]; cl.f == nil && !covered && (!perBase || o.bases[i] == cl.base) {
				cl.f = s.f
			} else {
				c.releaseFetched(s.f)
			}
		}
	}
	if memo != nil && memo.filling {
		memo.seal()
		keyed()
	}
	// A module of one key is one cluster. One with a second key is split by
	// base, each new cluster after the key clusters, in pool order; it gets
	// bytes when a comparison needs them.
	if perBase && len(o.clusters) > 1 {
		keys := len(o.clusters)
		for g, cid := range o.clusterOf {
			if cid < 0 || o.bases[g] == o.clusters[cid].base {
				continue
			}
			key, base := o.clusters[cid].key, o.bases[g]
			sid := keys + slices.IndexFunc(o.clusters[keys:], func(cl cluster) bool { return cl.key == key && cl.base == base })
			if sid < keys {
				sid = len(o.clusters)
				o.clusters = append(o.clusters, cluster{grp: g, key: key, base: base, names: o.clusters[cid].names})
			}
			o.clusterOf[g] = sid
		}
	}

	// One true comparison per pair of clusters of different keys —
	// replayed from the store when the pair's outcome is cached under its
	// keys and bases (an empty cached list is a cached match), computed
	// otherwise.
	var cpairs []clusterPair
	for a := range o.clusters {
		for b := a + 1; b < len(o.clusters); b++ {
			if pairwise || o.clusters[a].key != o.clusters[b].key {
				cpairs = append(cpairs, clusterPair{a, b})
			}
		}
	}
	// recKeys are a pair's keys in the store: each cluster's key, with its
	// base when split by base, in one order whatever the clusters' numbers.
	recKeys := func(p clusterPair) (string, string) {
		ka, kb := o.clusters[p.a].key, o.clusters[p.b].key
		if perBase {
			ka = string(binary.LittleEndian.AppendUint32([]byte(ka), o.clusters[p.a].base))
			kb = string(binary.LittleEndian.AppendUint32([]byte(kb), o.clusters[p.b].base))
		}
		return min(ka, kb), max(ka, kb)
	}
	mms := make([][]string, len(cpairs))
	costs := make([]time.Duration, len(cpairs))
	var toCompare []int
	for k, p := range cpairs {
		if refTok.OK {
			ka, kb := recKeys(p)
			if mm, ok := e.store.LookupMismatchFrom(src, module, refTok, ka, kb); ok {
				mms[k] = mm
				costs[k] = c.charge(CostCASLookup)
				work += costs[k]
				continue
			}
		}
		toCompare = append(toCompare, k)
	}
	// A cluster of the covered key is rebuilt from the reference's bytes;
	// one of another key whose members were all store hits has no bytes
	// yet, and is fetched.
	needed := make([]bool, len(o.clusters))
	for _, k := range toCompare {
		needed[cpairs[k].a], needed[cpairs[k].b] = true, true
	}
	for cid := range o.clusters {
		cl := &o.clusters[cid]
		switch {
		case !needed[cid] || cl.f != nil:
		case covKey != "" && cl.key == covKey:
			cl.f = memo.standIn(o.clusters[0].f, cl.base)
		case !materialize(cid):
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
				e.store.InsertDigestFrom(src, module, refTok, tok, cas.Entry{Key: cl.key, Names: cl.names})
			}
		}
		for _, k := range toCompare {
			p := cpairs[k]
			ka, kb := recKeys(p)
			e.store.InsertMismatchFrom(src, module, refTok, ka, kb, mms[k])
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
