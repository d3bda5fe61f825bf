package main

import (
	"bytes"
	"crypto/md5"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"modchecker"
)

// cpuNow is the process's user+sys CPU time, every thread and the GC
// included: the Dom0 CPU bill of whatever ran since the last reading.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail on Linux.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the runtime's cumulative heap allocation in bytes.
// ReadMemStats flushes the per-P caches, so deltas are exact, at the price
// of stopping the world; the timed loop uses heapAllocs instead.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapAllocs reads the same cumulative count from runtime/metrics without
// stopping the world. It lags by the objects still cached per P, a few
// hundred KB at most, which is noise beside a sweep's tens of MB.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap is HeapAlloc after two forced collections. One is not enough:
// sync.Pool victim caches survive the first GC and are freed by the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sweepOnce is one iteration of the closed loop `modchecker -watch -json`
// runs: a full scanner sweep, then its JSON report rendered into buf.
func sweepOnce(e *env, buf *bytes.Buffer) (*modchecker.SweepReport, error) {
	rep, err := e.scanner.Sweep()
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	buf.Reset()
	if err := rep.WriteJSON(buf); err != nil {
		return nil, fmt.Errorf("rendering sweep %d: %w", rep.Sweep, err)
	}
	return rep, nil
}

// setup builds the workload and runs its warm-up sweeps, returning the
// environment and the host wall time it took: boot and forks, snapshots,
// infections, and warm-up sweeps (the cold cached sweep among them).
// Warm-up verdicts are checked like timed ones.
func setup(w *workload, seed int64) (*env, time.Duration, error) {
	start := time.Now()
	e, err := w.build(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("building %s: %w", w.name, err)
	}
	var buf bytes.Buffer
	var t tally
	for i := 0; i < w.warmups; i++ {
		if i > 0 && e.step != nil {
			if err := e.step(); err != nil {
				return nil, 0, fmt.Errorf("mutating %s: %w", w.name, err)
			}
		}
		rep, err := sweepOnce(e, &buf)
		if err != nil {
			return nil, 0, err
		}
		e.verify(rep, &t)
	}
	if t.wrong != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", t.wrong)
	}
	return e, time.Since(start), nil
}

// window bounds a measured loop: it ends once seconds have passed, or after
// maxSweeps sweeps when that is set (fixed-length runs for the self-test).
type window struct {
	seconds   float64
	maxSweeps int
}

func (w window) done(start time.Time, sweeps int) bool {
	if w.maxSweeps > 0 {
		return sweeps >= w.maxSweeps
	}
	return time.Since(start).Seconds() >= w.seconds
}

// sweepCost is the host cost of one Sweep + WriteJSON.
type sweepCost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// loopStats accumulates a closed loop's per-sweep measurements and checks.
type loopStats struct {
	costs   []sweepCost
	sim     time.Duration
	tally   tally
	reports hash.Hash // SHA-256 over every timed sweep's report JSON
}

func newLoopStats() *loopStats { return &loopStats{reports: sha256.New()} }

// measuredSweep mutates the pool (where the workload churns), then runs and
// times one sweep. Only Sweep + WriteJSON sit inside the measured span.
func measuredSweep(e *env, buf *bytes.Buffer, ls *loopStats) error {
	if e.step != nil {
		if err := e.step(); err != nil {
			return fmt.Errorf("mutating pool: %w", err)
		}
	}
	a0 := heapAllocs()
	c0 := cpuNow()
	t0 := time.Now()
	rep, err := sweepOnce(e, buf)
	wall := time.Since(t0)
	cpu := cpuNow() - c0
	alloc := heapAllocs() - a0
	if err != nil {
		return err
	}
	ls.costs = append(ls.costs, sweepCost{wall: wall, cpu: cpu, alloc: alloc})
	ls.sim += rep.Simulated
	ls.reports.Write(buf.Bytes())
	e.verify(rep, &ls.tally)
	return nil
}

// timedLoop is the untraced closed loop: one client, back-to-back sweeps.
func timedLoop(e *env, win window) (*loopStats, error) {
	ls := newLoopStats()
	var buf bytes.Buffer
	start := time.Now()
	for !win.done(start, len(ls.costs)) {
		if err := measuredSweep(e, &buf, ls); err != nil {
			return nil, err
		}
		if ls.tally.wrong != nil {
			break
		}
	}
	return ls, nil
}

func (ls *loopStats) n() float64 { return float64(len(ls.costs)) }

func (ls *loopStats) walls() []float64 {
	out := make([]float64, len(ls.costs))
	for i, c := range ls.costs {
		out[i] = c.wall.Seconds()
	}
	return out
}

func (ls *loopStats) cpuPerSweep() float64 {
	var sum time.Duration
	for _, c := range ls.costs {
		sum += c.cpu
	}
	return sum.Seconds() / ls.n()
}

func (ls *loopStats) allocPerSweep() float64 {
	var sum uint64
	for _, c := range ls.costs {
		sum += c.alloc
	}
	return float64(sum) / ls.n()
}

func (ls *loopStats) simPerSweep() float64 { return ls.sim.Seconds() / ls.n() }

func (ls *loopStats) failFrac() float64 {
	if ls.tally.attempted == 0 {
		return 0
	}
	return float64(ls.tally.failed) / float64(ls.tally.attempted)
}

func (ls *loopStats) digest() string { return hex.EncodeToString(ls.reports.Sum(nil)) }

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p50/p90/p99/p99.9 that has at least ten
// samples beyond it (nearest rank), with the percentile it picked.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	pct = 50
	for _, p := range []float64{90, 99, 99.9} {
		if n*(1-p/100) >= 10 {
			pct = p
		}
	}
	rank := int(math.Ceil(pct / 100 * n))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], pct
}

// diagnostics describe the host a run measured on. They are recorded so a
// slow batch can be told apart from a regression; no metric is adjusted by
// them.
type diagnostics struct {
	GoMaxProcs    int       `json:"gomaxprocs"`
	NumCPU        int       `json:"nproc"`
	GoVersion     string    `json:"go_version"`
	StealTicks    int64     `json:"steal_ticks"`
	CalibMD5NsPre float64   `json:"calib_md5_1mib_ns_before"`
	CalibMD5Ns    float64   `json:"calib_md5_1mib_ns_after"`
	SetupS        []float64 `json:"setup_s_each,omitempty"`
	ReportSHA256  string    `json:"report_json_sha256,omitempty"`
	ReportSweeps  int       `json:"report_json_sweeps,omitempty"`
	SweepSimS     float64   `json:"sweep_sim_s"`
	CheckFailFrac float64   `json:"check_fail_frac"`
}

func newDiagnostics() diagnostics {
	return diagnostics{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
}

// stealTicks reads the host's cumulative steal time from /proc/stat, in
// clock ticks; -1 when it is unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// calibrationBuf is the fixed input of the calibration probe.
var calibrationBuf = func() []byte {
	b := make([]byte, 1<<20)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// calibrate times MD5 over a fixed 1 MiB buffer, median of 7: a host-speed
// probe independent of the program under test.
func calibrate() float64 {
	xs := make([]float64, 7)
	for i := range xs {
		t0 := time.Now()
		sum := md5.Sum(calibrationBuf)
		xs[i] = float64(time.Since(t0).Nanoseconds())
		calibrationSink ^= sum[0]
	}
	return median(xs)
}

var calibrationSink byte
