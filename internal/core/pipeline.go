package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"hash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modchecker/internal/trace"
)

// This file holds the concurrency machinery of the pool sweep's hot path:
// a bounded worker pool for the fetch and compare stages, a deterministic
// critical-path model for simulated wall-clock under parallelism, and the
// digest pass that replaces O(n²) pairwise comparison with O(n) clustering.
//
// Determinism invariant: nothing here lets host scheduling influence a
// result. Workers record into per-index slots, simulated elapsed time is
// derived from the cost slice by list scheduling (never from goroutine
// timing), and the hypervisor clock's stretch factor depends only on domain
// pause states, so the sum of charges is independent of interleaving.

// DefaultWorkers bounds the parallel stages. Eight matches the paper's
// testbed host — a quad-core i7 with HyperThreading — and its 8-thread
// parallel enhancement.
const DefaultWorkers = 8

// runBounded executes task(i) for every i in [0, n) on at most w concurrent
// goroutines. Workers inherit the caller's pprof labels (a sweep profiled
// under phase=sweep keeps its worker samples there); their frames name the
// stage (fetchVM, digestAgainst, compare). Tasks must record results by
// index; the shared cursor only balances load, so completion order never
// affects the outcome.
func runBounded(n, w int, task func(int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// listSchedule models running n tasks, task k costing cost(k), on w
// workers: tasks are list-scheduled in index order onto the earliest-free
// worker (ties to the lowest-numbered one). It returns the makespan, and
// hands each task's lane and start offset to place when place is non-nil,
// so an untraced stage pays for the makespan alone. The model depends only
// on the costs and w — never on host scheduling — which is what keeps
// parallel sweeps (and their trace exports) byte-identical across runs
// from one seed.
func listSchedule(n int, cost func(int) time.Duration, w int, place func(k, lane int, start time.Duration)) time.Duration {
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	loads := make([]time.Duration, w)
	for k := range n {
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		if place != nil {
			place(k, min, loads[min])
		}
		loads[min] += cost(k)
	}
	var makespan time.Duration
	for _, l := range loads {
		if l > makespan {
			makespan = l
		}
	}
	return makespan
}

// stageWorkers is the worker count of every stage and of its elapsed-time
// model: the bounded pool in parallel mode, one lane sequentially.
func (c *Checker) stageWorkers() int {
	if c.cfg.Parallel {
		return DefaultWorkers
	}
	return 1
}

// traceStage computes one pipeline stage's simulated elapsed time from its
// per-task costs and — when tracing is enabled — renders the stage on the
// simulated timeline: a stage envelope on the coordinator lane (tid 0) plus
// one span per task on the worker lane the deterministic list schedule
// assigns it, then advances the timeline cursor by the stage's elapsed.
// Timestamps come from the schedule model, never from host execution, so
// the trace is byte-identical across runs from one seed. Must only be
// called from a stage's driving goroutine (the emission discipline
// internal/trace documents).
//
// With members nil, costs[k] is task k's cost. Otherwise costs are per
// identity group and the stage's tasks are the pool's VMs in pool order:
// each group's leader carries its group's cost, each dedup follower a
// zero-cost task. A zero-cost task never moves a lane's load, so the
// makespan is the group costs' own; only a traced stage walks the pool to
// place every follower's span.
//
// Task names are supplied lazily through nameFn: the hot path runs with
// tracing off, and building a per-task label slice per stage per module is
// pure allocator churn there.
func (c *Checker) traceStage(stage, module string, nameFn func(int) string, costs []time.Duration, members *groups) time.Duration {
	w := c.stageWorkers()
	elapsed := listSchedule(len(costs), func(k int) time.Duration { return costs[k] }, w, nil)
	tr := c.cfg.Tracer
	if tr == nil || len(costs) == 0 {
		return elapsed
	}
	n, cost := len(costs), func(k int) time.Duration { return costs[k] }
	if members != nil {
		n, cost = members.n, members.leaderCost(costs)
	}
	base := tr.Cursor()
	args := []trace.Arg{{Key: "tasks", Val: strconv.Itoa(n)}}
	if module != "" {
		args = append(args, trace.Arg{Key: "module", Val: module})
	}
	tr.Complete("stage:"+stage, "pipeline", trace.PIDPipeline, 0, base, elapsed, args...)
	listSchedule(n, cost, w, func(k, lane int, start time.Duration) {
		tr.Complete(nameFn(k), stage, trace.PIDPipeline, lane+1, base+start, cost(k))
	})
	tr.Advance(elapsed)
	return elapsed
}

// fetchStage runs Searcher+Parser for every target — on the bounded worker
// pool in parallel mode — and returns the fetches plus the stage's simulated
// elapsed time (sum of work when sequential, deterministic makespan across
// the workers when parallel). Every returned fetch owns a pooled module
// buffer until releaseFetched runs.
//
//modown:pool module-fetch get
func (c *Checker) fetchStage(module string, vms []Target) ([]*fetched, time.Duration) {
	fetches := make([]*fetched, len(vms))
	runBounded(len(vms), c.stageWorkers(), func(i int) {
		fetches[i] = c.fetchAndParse(vms[i].Handle, vms[i].Name, module, nil)
	})
	costs := make([]time.Duration, len(fetches))
	for i, f := range fetches {
		costs[i] = f.timing.Total()
	}
	return fetches, c.traceStage("fetch", module,
		func(k int) string { return "fetch " + fetches[k].name }, costs, nil)
}

// digestAgainst computes one copy's cluster key: every component normalized
// against its peer in the reference fetch and digested, folding in both
// normalized sides. Including the reference's normalized side is what
// makes digest equality imply a pairwise match: two copies share a key
// only if they rewrote the reference identically, which rules out a
// tampered byte that happens to coincide with a legitimate copy's
// normalized form.
//
// The charges are the site source's nominal work on both sides (see
// siteSource.pairWork); the host does only the work the run's reference
// memo does not already prove. A clean copy is answered by the memo's
// window check, with no copy, rewrite or MD5; a copy side equal to its
// reference side reuses the reference's sum. Along the way it records f's
// digest facts against ref (see fetched), which answer the compare stage's
// pairs.
//
//moddet:sink digest keys must be a pure function of guest memory
func (c *Checker) digestAgainst(ref, f *fetched, memo *refMemo) (string, time.Duration) {
	w := newKeyWriter()
	writePart := w.part
	var cost time.Duration
	src := memo.src
	f.against, f.refMatch, f.refCovered = ref, 0, 0
	f.covered = len(f.parsed.Components) == len(ref.parsed.Components)
	for i := range f.parsed.Components {
		comp := &f.parsed.Components[i]
		var match, covered bool
		rk := ref.parsed.peer(comp, i)
		if comp.Normalize && rk >= 0 {
			data, refData := comp.Data, ref.parsed.Components[rk].Data
			cost += src.pairWork(len(data)+len(refData), true)
			sum, refSum, cov := memo.digestPair(rk, f.side(i), ref.side(rk))
			writePart(comp.Name, len(data), sum)
			writePart("", len(refData), refSum)
			match, covered = len(data) == len(refData) && sum == refSum, cov
		} else {
			// Non-relocated components cluster on their raw hash: equal raw
			// bytes match pairwise under any base pair, since the diff scan
			// sees no differing bytes and own sites rewrite no header. A
			// component the reference lacks is hashed alone.
			cost += src.pairWork(len(comp.Data), false)
			sum := src.alone(f.side(i), comp.Normalize)
			writePart(comp.Name, len(comp.Data), sum)
			if rk >= 0 {
				refData := ref.parsed.Components[rk].Data
				covered = bytes.Equal(comp.Data, refData)
				match = covered || len(comp.Data) == len(refData) && sum == memo.raw(rk, refData)
			}
		}
		f.covered = f.covered && covered && rk == i
		if i < 64 {
			if match {
				f.refMatch |= 1 << i
			}
			if covered {
				f.refCovered |= 1 << i
			}
		}
	}
	return w.key(), cost
}

// keyWriter folds a copy's component digests into its cluster key: each
// part is a name, a length and an MD5.
type keyWriter struct {
	h      hash.Hash
	lenBuf [8]byte
}

func newKeyWriter() *keyWriter { return &keyWriter{h: md5.New()} }

func (w *keyWriter) part(name string, n int, sum [md5.Size]byte) {
	w.h.Write([]byte(name))
	w.h.Write([]byte{0})
	binary.LittleEndian.PutUint64(w.lenBuf[:], uint64(n))
	w.h.Write(w.lenBuf[:])
	w.h.Write(sum[:])
}

func (w *keyWriter) key() string { return string(w.h.Sum(nil)) }
