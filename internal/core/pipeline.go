package core

import (
	"context"
	"crypto/md5"
	"encoding/binary"
	"runtime/pprof"
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
// goroutines, each labeled with the pipeline stage for pprof attribution
// (`go test -cpuprofile` samples carry a stage= label). Tasks must record
// results by index; the shared cursor only balances load, so completion
// order never affects the outcome.
func runBounded(stage string, n, w int, task func(int)) {
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
	labels := pprof.Labels("stage", stage)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					task(i)
				}
			})
		}()
	}
	wg.Wait()
}

// schedule models running tasks with the given costs on w workers: tasks
// are list-scheduled in index order onto the earliest-free worker (ties to
// the lowest-numbered one). It returns each task's worker lane and start
// offset plus the makespan. The model depends only on the cost slice and w —
// never on host scheduling — which is what keeps parallel sweeps (and their
// trace exports) byte-identical across runs from one seed.
func schedule(costs []time.Duration, w int) (lanes []int, starts []time.Duration, makespan time.Duration) {
	if len(costs) == 0 {
		return nil, nil, 0
	}
	lanes = make([]int, len(costs))
	starts = make([]time.Duration, len(costs))
	return lanes, starts, listSchedule(costs, w, lanes, starts)
}

// listSchedule runs schedule's model and returns the makespan. It records
// each task's lane and start offset only when lanes and starts are non-nil,
// so an untraced stage pays for the makespan alone.
func listSchedule(costs []time.Duration, w int, lanes []int, starts []time.Duration) time.Duration {
	if w < 1 {
		w = 1
	}
	if w > len(costs) {
		w = len(costs)
	}
	loads := make([]time.Duration, w)
	for k, c := range costs {
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		if lanes != nil {
			lanes[k] = min
			starts[k] = loads[min]
		}
		loads[min] += c
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
// Task names are supplied lazily through nameFn: the hot path runs with
// tracing off, and building a per-task label slice per stage per module is
// pure allocator churn there.
func (c *Checker) traceStage(stage, module string, nameFn func(int) string, costs []time.Duration) time.Duration {
	tr := c.cfg.Tracer
	if tr == nil || len(costs) == 0 {
		return listSchedule(costs, c.stageWorkers(), nil, nil)
	}
	lanes, starts, elapsed := schedule(costs, c.stageWorkers())
	base := tr.Cursor()
	args := []trace.Arg{{Key: "tasks", Val: strconv.Itoa(len(costs))}}
	if module != "" {
		args = append(args, trace.Arg{Key: "module", Val: module})
	}
	tr.Complete("stage:"+stage, "pipeline", trace.PIDPipeline, 0, base, elapsed, args...)
	for k := range costs {
		tr.Complete(nameFn(k), stage, trace.PIDPipeline, lanes[k]+1, base+starts[k], costs[k])
	}
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
	runBounded("fetch", len(vms), c.stageWorkers(), func(i int) {
		fetches[i] = c.fetchAndParse(vms[i], module)
	})
	costs := make([]time.Duration, len(fetches))
	for i, f := range fetches {
		costs[i] = f.timing.Total()
	}
	return fetches, c.traceStage("fetch", module,
		func(k int) string { return "fetch " + fetches[k].target.Name }, costs)
}

// digestAgainst computes one copy's cluster key: every component normalized
// against the reference fetch and digested, folding in both normalized
// sides. Including the reference's normalized side is what makes digest
// equality imply a pairwise match: two copies share a key only if they
// rewrote the reference identically, which rules out a tampered byte that
// happens to coincide with a legitimate copy's normalized form.
//
//moddet:sink digest keys must be a pure function of guest memory
func (c *Checker) digestAgainst(ref, f *fetched) (string, time.Duration) {
	h := md5.New()
	var cost time.Duration
	var lenBuf [8]byte
	writePart := func(name string, n int, sum [md5.Size]byte) {
		h.Write([]byte(name))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(n))
		h.Write(lenBuf[:])
		h.Write(sum[:])
	}
	for i := range f.parsed.Components {
		comp := &f.parsed.Components[i]
		if c.cfg.Normalizer == NormalizeRelocTable {
			// Per-VM normalized hashes were precomputed (and charged) at
			// parse time; the digest just folds them together.
			writePart(comp.Name, len(comp.Data), f.normHashes[comp.Name])
			continue
		}
		refComp := ref.parsed.Component(comp.Name)
		if comp.Normalize && refComp != nil {
			data, refData := comp.Data, refComp.Data
			cost += perKB(len(data)+len(refData), scanCostPerKB)
			sa := getScratch(len(data))
			sb := getScratch(len(refData))
			copy(*sa, data)
			copy(*sb, refData)
			normalizePairInPlace(*sa, *sb, f.info.Base, ref.info.Base)
			cost += perKB(len(*sa)+len(*sb), hashCostPerKB)
			writePart(comp.Name, len(*sa), md5.Sum(*sa))
			writePart("", len(*sb), md5.Sum(*sb))
			putScratch(sa)
			putScratch(sb)
			continue
		}
		// Non-relocated components (and components the reference lacks)
		// cluster on their raw hash: equal raw bytes match pairwise under
		// any base pair, since the diff scan sees no differing bytes.
		cost += perKB(len(comp.Data), hashCostPerKB)
		writePart(comp.Name, len(comp.Data), md5.Sum(comp.Data))
	}
	return string(h.Sum(nil)), cost
}
