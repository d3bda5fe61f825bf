package main

import (
	"bytes"
	"crypto/md5"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"modchecker"
	"modchecker/internal/cas"
	"modchecker/internal/core"
	"modchecker/internal/vmi"
)

// twin runs the same sweep as a Scanner, decomposed into the layer calls
// Scanner.Sweep makes: Cloud.Targets, then Checker.NewPoolSweep, then
// PoolSweep.CheckModule per module. Its cloud is built from the timed
// cloud's seed and receives the same mutations, so its verdicts must equal
// the scanner's.
type twin struct {
	e       *env
	checker *core.Checker
}

// newTwin builds the core checker with the options the scanner was built
// with, charging the twin's own hypervisor clock the way the facade does.
func newTwin(e *env) *twin {
	hv := e.cloud.Hypervisor()
	cfg := core.Config{Charge: hv.ChargeDom0}
	for _, o := range e.opts {
		o(&cfg)
	}
	return &twin{e: e, checker: core.NewChecker(cfg)}
}

// moduleCall is what one CheckModule call of a twin sweep did, read from
// the twin's public counters around the call.
type moduleCall struct {
	module  string
	cpu     time.Duration
	bytes   uint64 // guest bytes copied: fetched VMs × module size
	lookups uint64 // digest-store lookups
}

// twinSweep is one decomposed sweep's layer costs and verdicts.
type twinSweep struct {
	targetsCPU, listCPU time.Duration
	calls               []moduleCall
	alerts              map[alertKey]bool
}

func storeStats(s *modchecker.DigestStore) cas.Stats {
	if s == nil {
		return cas.Stats{}
	}
	return s.Stats()
}

// sweep runs one decomposed sweep, recording a span around every layer
// call under a root span for the sweep.
func (tw *twin) sweep(rec *recorder, id int) (*twinSweep, error) {
	cloud := tw.e.cloud
	out := &twinSweep{alerts: map[alertKey]bool{}}
	root := rec.begin("twin sweep", tidTwin, -1, id)
	defer rec.end(root)

	sp := rec.begin("modchecker.Cloud.Targets", tidTwin, root.id, id)
	targets, err := cloud.Targets()
	out.targetsCPU = rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("twin targets: %w", err)
	}
	sp = rec.begin("core.Checker.NewPoolSweep", tidTwin, root.id, id)
	session, err := tw.checker.NewPoolSweep(targets)
	out.listCPU = rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("twin pool sweep: %w", err)
	}
	defer session.Close()

	modules := tw.e.modules
	if modules == nil {
		if modules, err = session.Modules(); err != nil {
			return nil, fmt.Errorf("twin module discovery: %w", err)
		}
	}
	modules = append([]string(nil), modules...)
	sort.Strings(modules)
	for _, m := range modules {
		v0 := cloud.IntrospectionStats()
		c0 := storeStats(tw.e.store)
		sp := rec.begin("core.PoolSweep.CheckModule "+m, tidTwin, root.id, id)
		rep := session.CheckModule(m)
		cpu := rec.end(sp)
		out.calls = append(out.calls, moduleCall{
			module:  m,
			cpu:     cpu,
			bytes:   cloud.IntrospectionStats().BytesRead - v0.BytesRead,
			lookups: storeStats(tw.e.store).Lookups - c0.Lookups,
		})
		for _, r := range rep.VMReports {
			if r.Verdict != modchecker.VerdictClean {
				out.alerts[alertKey{m, r.TargetVM, r.Verdict}] = true
			}
		}
	}
	return out, nil
}

// leafCosts is one replay of the leaf calls for one module: host ns per
// call (per page for the page-level calls) and bytes allocated.
type leafCosts struct {
	copyNs, parseNs, normalizeNs, md5Ns float64
}

// layerAcc accumulates the traced run's per-layer measurements.
type layerAcc struct {
	sweeps int

	// Summed over the traced sweeps: the timed cloud's counters, simulated
	// split, slowdown and report size, and the CPU of each layer call on
	// both clouds.
	vmi                      vmi.Stats
	cas                      cas.Stats
	list, fetch, digest      time.Duration
	compare                  time.Duration
	work                     modchecker.PhaseTiming
	slowdown                 float64
	jsonBytes                int
	sweepCPU, jsonCPU        time.Duration
	targetsCPU, listCPU      time.Duration
	checkCPU, leafEstimateNs float64

	// Leaf replay sums: per page, per replayed module, per store op.
	pages                               int
	walkNs, hitNs, readPhysNs, readVANs float64
	modules                             int
	copyNs, copySimNs                   float64
	parseNs, parseAlloc                 float64
	normNs, normAlloc, md5Ns, md5Alloc  float64
	casOps                              int
	casLookupNs, casInsertNs            float64
}

func subStats(a, b vmi.Stats) vmi.Stats {
	return vmi.Stats{
		PTWalks: a.PTWalks - b.PTWalks, TLBHits: a.TLBHits - b.TLBHits,
		PagesRead: a.PagesRead - b.PagesRead, PagesMapped: a.PagesMapped - b.PagesMapped,
		BytesRead: a.BytesRead - b.BytesRead, MapSetups: a.MapSetups - b.MapSetups,
	}
}

// timed runs the leaf op and returns its wall time and the heap bytes it
// allocated; the allocation reads sit outside the timed interval.
func timed(op func()) (ns, alloc float64) {
	a0 := totalAlloc()
	t0 := time.Now()
	op()
	d := time.Since(t0)
	return float64(d.Nanoseconds()), float64(totalAlloc() - a0)
}

// replayVMs caps how many of a sweep's VMs the digest-store replay uses.
const replayVMs = 256

// replay calls each leaf layer once per module of the sweep on the twin:
// page-table walks and TLB hits, physical and virtual reads, the
// Searcher's module copy, the parse, the RVA normalization against the
// reference VM's copy and the MD5 digest of the pair, then the digest
// store's insert and lookup with the sweep's content tokens. The sampled
// VM rotates with the sweep number. It returns the per-module leaf costs.
func (tw *twin) replay(rec *recorder, id int, modules []string, acc *layerAcc) (map[string]leafCosts, error) {
	cloud := tw.e.cloud
	names := cloud.VMNames()
	refName, vmName := names[0], names[1+id%(len(names)-1)]
	root := rec.begin("leaf replay "+vmName, tidReplay, -1, id)
	defer rec.end(root)

	ref, err := cloud.Target(refName)
	if err != nil {
		return nil, err
	}
	refMods, err := core.NewSearcher(ref.Handle, core.CopyPageWise).ListModules()
	if err != nil {
		return nil, fmt.Errorf("replay list on %s: %w", refName, err)
	}
	vm, err := cloud.Target(vmName)
	if err != nil {
		return nil, err
	}
	vmMods, err := core.NewSearcher(vm.Handle, core.CopyPageWise).ListModules()
	if err != nil {
		return nil, fmt.Errorf("replay list on %s: %w", vmName, err)
	}
	find := func(mods []core.ModuleInfo, m string) *core.ModuleInfo {
		for i := range mods {
			if mods[i].Name == m {
				return &mods[i]
			}
		}
		return nil
	}
	phys := cloud.Guest(vmName).Phys()
	page := make([]byte, 4096)
	costs := make(map[string]leafCosts, len(modules))
	for _, m := range modules {
		ri, vi := find(refMods, m), find(vmMods, m)
		if ri == nil || vi == nil {
			return nil, fmt.Errorf("replay: %s missing on %s or %s", m, refName, vmName)
		}
		var lc leafCosts

		// vmi and mm, per page of the module on a handle with a cold TLB.
		h := mustTarget(cloud, vmName).Handle
		n := int((vi.SizeOfImage + 4095) / 4096)
		pas := make([]uint32, n)
		var terr error
		walk, _ := timed(func() {
			for p := range pas {
				if pas[p], terr = h.Translate(vi.Base + uint32(p)*4096); terr != nil {
					return
				}
			}
		})
		hit, _ := timed(func() {
			for p := range pas {
				// Every page translated above, so these are TLB hits.
				_, _ = h.Translate(vi.Base + uint32(p)*4096)
			}
		})
		if terr != nil {
			return nil, fmt.Errorf("replay translate %s on %s: %w", m, vmName, terr)
		}
		readPhys, _ := timed(func() {
			for _, pa := range pas {
				if terr = phys.ReadPhys(pa, page); terr != nil {
					return
				}
			}
		})
		if terr != nil {
			return nil, fmt.Errorf("replay physical read %s on %s: %w", m, vmName, terr)
		}
		buf := make([]byte, vi.SizeOfImage)
		readVA, _ := timed(func() { terr = h.ReadVA(vi.Base, buf) })
		if terr != nil {
			return nil, fmt.Errorf("replay read %s on %s: %w", m, vmName, terr)
		}
		acc.pages += n
		acc.walkNs += walk
		acc.hitNs += hit
		acc.readPhysNs += readPhys
		acc.readVANs += readVA

		// core: the Searcher's copy of both sides on fresh handles.
		var vbuf []byte
		var vcost time.Duration
		var verr error
		searcher := core.NewSearcher(mustTarget(cloud, vmName).Handle, core.CopyPageWise)
		sp := rec.begin("core.Searcher.CopyModuleCosted "+m, tidReplay, root.id, id)
		copyNs, _ := timed(func() { vbuf, vcost, verr = searcher.CopyModuleCosted(vi) })
		rec.end(sp)
		if verr != nil {
			return nil, fmt.Errorf("replay copy %s on %s: %w", m, vmName, verr)
		}
		rbuf, _, rerr := core.NewSearcher(mustTarget(cloud, refName).Handle, core.CopyPageWise).CopyModuleCosted(ri)
		if rerr != nil {
			core.ReleaseModuleCopy(vbuf)
			return nil, fmt.Errorf("replay copy %s on %s: %w", m, refName, rerr)
		}
		acc.modules++
		acc.copyNs += copyNs
		acc.copySimNs += float64(vcost)
		lc.copyNs = copyNs

		err := tw.replayDigest(rec, root.id, id, m, vmName, vi, ri, vbuf, rbuf, &lc, acc)
		core.ReleaseModuleCopy(vbuf)
		core.ReleaseModuleCopy(rbuf)
		if err != nil {
			return nil, err
		}
		costs[m] = lc
	}
	if err := tw.replayStore(rec, root.id, id, modules, acc); err != nil {
		return nil, err
	}
	return costs, nil
}

// replayDigest parses both copies, normalizes every relocated component of
// the sampled VM against the reference copy (Algorithm 2), and MD5s the
// normalized pair plus the raw components — the work one fetched VM costs
// the digest stage.
func (tw *twin) replayDigest(rec *recorder, parent, id int, m, vmName string, vi, ri *core.ModuleInfo, vbuf, rbuf []byte, lc *leafCosts, acc *layerAcc) error {
	var pv, pr *core.ParsedModule
	var perr error
	sp := rec.begin("core.ParseModule "+m, tidReplay, parent, id)
	parseNs, parseAlloc := timed(func() { pv, _, perr = core.ParseModule(vmName, m, vi.Base, vbuf) })
	rec.end(sp)
	if perr != nil {
		return fmt.Errorf("replay parse: %w", perr)
	}
	if pr, _, perr = core.ParseModule("ref", m, ri.Base, rbuf); perr != nil {
		return fmt.Errorf("replay parse: %w", perr)
	}
	acc.parseNs += parseNs
	acc.parseAlloc += parseAlloc
	lc.parseNs = parseNs

	type pair struct{ a, b []byte }
	var pairs []pair
	var raw [][]byte
	sp = rec.begin("core.NormalizePair "+m, tidReplay, parent, id)
	normNs, normAlloc := timed(func() {
		for i := range pv.Components {
			c := &pv.Components[i]
			rc := pr.Component(c.Name)
			if !c.Normalize || rc == nil {
				raw = append(raw, c.Data)
				continue
			}
			n1, n2, _ := core.NormalizePair(c.Data, rc.Data, vi.Base, ri.Base)
			pairs = append(pairs, pair{n1, n2})
		}
	})
	rec.end(sp)
	sp = rec.begin("crypto/md5 "+m, tidReplay, parent, id)
	md5Ns, md5Alloc := timed(func() {
		for _, p := range pairs {
			digestSink ^= md5.Sum(p.a)[0] ^ md5.Sum(p.b)[0]
		}
		for _, d := range raw {
			digestSink ^= md5.Sum(d)[0]
		}
	})
	rec.end(sp)
	acc.normNs += normNs
	acc.normAlloc += normAlloc
	acc.md5Ns += md5Ns
	acc.md5Alloc += md5Alloc
	lc.normalizeNs, lc.md5Ns = normNs, md5Ns
	return nil
}

var digestSink byte

// replayStore inserts one digest entry per (module, VM) for up to
// replayVMs of the sweep's VMs into a scratch store, keyed by the VMs'
// current content tokens against the reference VM's, then looks each one
// up again. VMs without a stable identity get a token derived from their
// name, so the replay runs on every workload.
func (tw *twin) replayStore(rec *recorder, parent, id int, modules []string, acc *layerAcc) error {
	cloud := tw.e.cloud
	names := cloud.VMNames()
	if len(names) > replayVMs {
		names = names[:replayVMs]
	}
	toks := make([]cas.Token, len(names))
	for i, n := range names {
		t, err := cloud.Target(n)
		if err != nil {
			return err
		}
		toks[i] = contentToken(t)
	}
	store := cas.NewStore(0)
	entry := cas.Entry{Key: string(make([]byte, md5.Size)), Names: modules}
	ops := len(modules) * len(toks)
	sp := rec.begin("cas.Store.InsertDigest", tidReplay, parent, id)
	insNs, _ := timed(func() {
		for _, m := range modules {
			for _, t := range toks {
				store.InsertDigest(m, toks[0], t, entry)
			}
		}
	})
	rec.end(sp)
	hits := 0
	sp = rec.begin("cas.Store.LookupDigest", tidReplay, parent, id)
	lookNs, _ := timed(func() {
		for _, m := range modules {
			for _, t := range toks {
				if _, ok := store.LookupDigest(m, toks[0], t); ok {
					hits++
				}
			}
		}
	})
	rec.end(sp)
	if hits != ops {
		return fmt.Errorf("replay store: %d of %d lookups hit", hits, ops)
	}
	acc.casOps += ops
	acc.casInsertNs += insNs
	acc.casLookupNs += lookNs
	return nil
}

// contentToken is the digest-store token a target advertises, or one
// derived from the VM name when it has no stable identity.
func contentToken(t core.Target) cas.Token {
	if t.Identity != nil {
		if id, ok := t.Identity(); ok {
			tok := cas.Token{ID: id, OK: true}
			if t.Epoch != nil {
				tok.Epoch = t.Epoch()
			}
			return tok
		}
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name))
	return cas.Token{ID: h.Sum64(), OK: true}
}

func mustTarget(c *modchecker.Cloud, name string) core.Target {
	t, err := c.Target(name)
	if err != nil {
		panic(err) // every replayed name comes from c.VMNames()
	}
	return t
}

// runTraced is the per-layer run. It sets up the timed workload and its
// twin, runs the first half of the window untraced (the baseline for the
// tracing overhead and the sweep tail), then the second half traced: each
// iteration sweeps the timed cloud through Scanner.Sweep + WriteJSON with a
// span around each call and its counters read between sweeps, sweeps the
// twin decomposed into layer calls, checks the twin's verdicts equal the
// scanner's, and replays the leaf calls. Spans are exported at the end.
func runTraced(o options) (*outcome, error) {
	w := o.workload
	out := &outcome{values: map[string]float64{}, diag: newDiagnostics()}
	out.diag.CalibMD5NsPre = calibrate()
	e, _, err := setup(w, o.seed)
	if err != nil {
		return nil, err
	}
	te, err := w.build(o.seed)
	if err != nil {
		return nil, fmt.Errorf("building twin: %w", err)
	}
	tw := newTwin(te)
	rec := newRecorder()
	id := 0
	for i := 0; i < w.warmups; i++ {
		if i > 0 && te.step != nil {
			if err := te.step(); err != nil {
				return nil, err
			}
		}
		ts, err := tw.sweep(rec, id)
		if err != nil {
			return nil, err
		}
		if err := diffAlerts(te.expected, ts.alerts); err != nil {
			return nil, fmt.Errorf("twin warm-up contradicts ground truth: %w", err)
		}
		id++
	}

	half := window{seconds: o.win.seconds / 2, maxSweeps: (o.win.maxSweeps + 1) / 2}
	steal := stealTicks()
	base := newLoopStats()
	var buf bytes.Buffer
	start := time.Now()
	for !half.done(start, len(base.costs)) && base.tally.wrong == nil {
		if te.step != nil {
			if err := te.step(); err != nil {
				return nil, err
			}
		}
		if err := measuredSweep(e, &buf, base); err != nil {
			return nil, err
		}
		id++
	}

	// Only the timed cloud's sweeps move its introspection and store
	// counters (the churn's guest writes and reverts bypass both), so one
	// delta over the traced half is the sum of the per-sweep deltas.
	traced := newLoopStats()
	acc := &layerAcc{}
	v0, c0 := e.cloud.IntrospectionStats(), storeStats(e.store)
	start = time.Now()
	for !half.done(start, len(traced.costs)) && traced.tally.wrong == nil && base.tally.wrong == nil {
		if err := tracedIteration(e, tw, rec, id, &buf, traced, acc); err != nil {
			return nil, err
		}
		id++
	}
	v1, c1 := e.cloud.IntrospectionStats(), storeStats(e.store)
	acc.vmi = subStats(v1, v0)
	acc.cas = cas.Stats{
		Lookups: c1.Lookups - c0.Lookups, Hits: c1.Hits - c0.Hits,
		Inserts: c1.Inserts - c0.Inserts, Evicted: c1.Evicted - c0.Evicted,
	}
	if s := stealTicks(); s >= 0 && steal >= 0 {
		out.diag.StealTicks = s - steal
	} else {
		out.diag.StealTicks = -1
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(te)
	out.diag.CalibMD5Ns = calibrate()

	out.tally = base.tally
	out.tally.attempted += traced.tally.attempted
	out.tally.failed += traced.tally.failed
	if out.tally.wrong == nil {
		out.tally.wrong = traced.tally.wrong
	}
	switch {
	case acc.sweeps > 0:
		out.values = acc.metrics(base, traced)
	case out.tally.wrong == nil:
		return nil, errors.New("traced window ran no sweeps")
	}
	out.diag.SweepSimS = out.values["sweep_sim_s"]
	out.diag.CheckFailFrac = out.values["check_fail_frac"]
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := rec.writeChrome(path, fmt.Sprintf("perfbench %s seed %d", w.name, o.seed)); err != nil {
		return nil, err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(rec.spans))
	return out, nil
}

// tracedIteration is one traced sweep: mutate both clouds alike, sweep the
// timed cloud with spans and counters around the calls, sweep the twin
// decomposed, compare verdicts, replay the leaves, and attribute.
func tracedIteration(e *env, tw *twin, rec *recorder, id int, buf *bytes.Buffer, ls *loopStats, acc *layerAcc) error {
	for _, x := range []*env{e, tw.e} {
		if x.step != nil {
			if err := x.step(); err != nil {
				return fmt.Errorf("mutating pool: %w", err)
			}
		}
	}
	t0 := time.Now()
	sp := rec.begin("modchecker.Scanner.Sweep", tidScanner, -1, id)
	rep, err := e.scanner.Sweep()
	sweepCPU := rec.end(sp)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sp = rec.begin("modchecker.SweepReport.WriteJSON", tidScanner, -1, id)
	buf.Reset()
	err = rep.WriteJSON(buf)
	jsonCPU := rec.end(sp)
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("rendering sweep %d: %w", rep.Sweep, err)
	}
	ls.costs = append(ls.costs, sweepCost{wall: wall, cpu: sweepCPU + jsonCPU})
	ls.sim += rep.Simulated
	ls.reports.Write(buf.Bytes())
	e.verify(rep, &ls.tally)

	acc.sweeps++
	acc.list += rep.Timing.List
	acc.fetch += rep.Timing.Fetch
	acc.digest += rep.Timing.Digest
	acc.compare += rep.Timing.Compare
	acc.work.Add(rep.Timing.Work)
	acc.slowdown += e.cloud.Hypervisor().Slowdown()
	acc.jsonBytes += buf.Len()
	acc.sweepCPU += sweepCPU
	acc.jsonCPU += jsonCPU

	ts, err := tw.sweep(rec, id)
	if err != nil {
		return err
	}
	scanned := make(map[alertKey]bool, len(rep.Alerts))
	for _, a := range rep.Alerts {
		scanned[alertKey{a.Module, a.VM, a.Verdict}] = true
	}
	if err := diffAlerts(scanned, ts.alerts); err != nil && ls.tally.wrong == nil {
		ls.tally.wrong = fmt.Errorf("sweep %d: twin differs from scanner: %w", rep.Sweep, err)
	}
	acc.targetsCPU += ts.targetsCPU
	acc.listCPU += ts.listCPU

	modules := make([]string, len(ts.calls))
	for i, c := range ts.calls {
		modules[i] = c.module
	}
	leaves, err := tw.replay(rec, id, modules, acc)
	if err != nil {
		return err
	}
	lookupNs := acc.casLookupNs / float64(acc.casOps)
	sizes := moduleSizes(tw.e.cloud, modules)
	for _, c := range ts.calls {
		acc.checkCPU += c.cpu.Seconds()
		// Fetched copies, as the vmi byte counter says; every fetched copy
		// but the reference is normalized and digested against it.
		k := float64(c.bytes) / float64(sizes[c.module])
		lc := leaves[c.module]
		est := k * (lc.copyNs + lc.parseNs)
		if k > 1 {
			est += (k - 1) * (lc.normalizeNs + lc.md5Ns)
		}
		est += float64(c.lookups) * lookupNs
		acc.leafEstimateNs += est
	}
	return nil
}

// moduleSizes reads each module's SizeOfImage from the first VM's loaded
// module list.
func moduleSizes(c *modchecker.Cloud, modules []string) map[string]uint32 {
	out := make(map[string]uint32, len(modules))
	g := c.Guest(c.VMNames()[0])
	for _, m := range modules {
		if lm := g.Module(m); lm != nil {
			out[m] = lm.SizeOfImage
		}
	}
	return out
}

// metrics turns the accumulators into the per-layer metric set.
func (a *layerAcc) metrics(base, traced *loopStats) map[string]float64 {
	n := float64(a.sweeps)
	per := func(x uint64) float64 { return float64(x) / n }
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	secs := func(d time.Duration) float64 { return d.Seconds() / n }
	avg := func(sum float64, k int) float64 {
		if k == 0 {
			return 0
		}
		return sum / float64(k)
	}
	all := &loopStats{costs: append(append([]sweepCost(nil), base.costs...), traced.costs...), sim: base.sim + traced.sim}
	all.tally.attempted = base.tally.attempted + traced.tally.attempted
	all.tally.failed = base.tally.failed + traced.tally.failed
	tailV, tailPct := tail(base.walls())
	checkCPU := a.checkCPU / n
	m := map[string]float64{
		"sweep_sim_s":                  all.simPerSweep(),
		"check_fail_frac":              all.failFrac(),
		"mm.read_phys_ns":              avg(a.readPhysNs, a.pages),
		"vmi.pt_walks":                 per(a.vmi.PTWalks),
		"vmi.tlb_hits":                 per(a.vmi.TLBHits),
		"vmi.tlb_hit_ratio":            ratio(a.vmi.TLBHits, a.vmi.TLBHits+a.vmi.PTWalks),
		"vmi.pages_read":               per(a.vmi.PagesRead),
		"vmi.bytes_read":               per(a.vmi.BytesRead),
		"vmi.map_setups":               per(a.vmi.MapSetups),
		"vmi.translate_walk_ns":        avg(a.walkNs, a.pages),
		"vmi.translate_hit_ns":         avg(a.hitNs, a.pages),
		"vmi.read_va_ns":               avg(a.readVANs, a.pages),
		"core.list_s":                  secs(a.listCPU),
		"core.list_sim_s":              secs(a.list),
		"core.copy_module_ns":          avg(a.copyNs, a.modules),
		"core.copy_module_sim_ns":      avg(a.copySimNs, a.modules),
		"core.parse_ns":                avg(a.parseNs, a.modules),
		"core.parse_alloc_b":           avg(a.parseAlloc, a.modules),
		"core.normalize_ns":            avg(a.normNs, a.modules),
		"core.normalize_alloc_b":       avg(a.normAlloc, a.modules),
		"core.md5_ns":                  avg(a.md5Ns, a.modules),
		"core.md5_alloc_b":             avg(a.md5Alloc, a.modules),
		"core.check_module_s":          checkCPU,
		"core.check_self_s":            checkCPU - a.leafEstimateNs/1e9/n,
		"core.fetch_sim_s":             secs(a.fetch),
		"core.digest_sim_s":            secs(a.digest),
		"core.compare_sim_s":           secs(a.compare),
		"core.searcher_work_sim_s":     secs(a.work.Searcher),
		"core.parser_work_sim_s":       secs(a.work.Parser),
		"core.checker_work_sim_s":      secs(a.work.Checker),
		"cas.lookups":                  per(a.cas.Lookups),
		"cas.hits":                     per(a.cas.Hits),
		"cas.hit_ratio":                ratio(a.cas.Hits, a.cas.Lookups),
		"cas.inserts":                  per(a.cas.Inserts),
		"cas.evictions":                per(a.cas.Evicted),
		"cas.lookup_ns":                avg(a.casLookupNs, a.casOps),
		"cas.insert_ns":                avg(a.casInsertNs, a.casOps),
		"hypervisor.slowdown":          a.slowdown / n,
		"scanner.sweep_self_s":         (a.sweepCPU-a.targetsCPU-a.listCPU).Seconds()/n - checkCPU,
		"scanner.targets_s":            secs(a.targetsCPU),
		"scanner.report_json_s":        secs(a.jsonCPU),
		"scanner.report_json_bytes":    float64(a.jsonBytes) / n,
		"scanner.sweep_s.tail":         tailV,
		"scanner.sweep_s.tail_pct":     tailPct,
		"scanner.sweep_s.tail_samples": float64(len(base.costs)),
		"trace.overhead_frac":          traced.cpuPerSweep()/base.cpuPerSweep() - 1,
	}
	return m
}
