// Command perfbench is the repository's sweep benchmark. It runs one named
// workload in a single process as a closed loop with one client — back to
// back Scanner.Sweep + SweepReport.WriteJSON, the loop `modchecker -watch
// -json` runs — checks every verdict against the workload generator's
// ground truth, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 a separate traced run reports the per-layer set: a twin
// cloud built from the same seed runs each sweep decomposed into its layer
// calls, with spans recorded around each call from this package only (the
// program under test is not instrumented), and the spans are exported as
// Chrome trace JSON. See README.md for workloads and metric definitions.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper15 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s.p50", "s"},
	{"cpu_s_per_sweep", "s"},
	{"alloc_mb_per_sweep", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer is the traced run's per-layer set, reported with --trace 1.
var perLayer = []metricDef{
	{"sweep_sim_s", "sim_s"},
	{"check_fail_frac", "ratio"},
	{"mm.read_phys_ns", "ns"},
	{"vmi.pt_walks", "count/sweep"},
	{"vmi.tlb_hits", "count/sweep"},
	{"vmi.tlb_hit_ratio", "ratio"},
	{"vmi.pages_read", "count/sweep"},
	{"vmi.bytes_read", "B/sweep"},
	{"vmi.map_setups", "count/sweep"},
	{"vmi.translate_walk_ns", "ns"},
	{"vmi.translate_hit_ns", "ns"},
	{"vmi.read_va_ns", "ns"},
	{"core.list_s", "s"},
	{"core.list_sim_s", "sim_s"},
	{"core.copy_module_ns", "ns"},
	{"core.copy_module_sim_ns", "sim_ns"},
	{"core.parse_ns", "ns"},
	{"core.parse_alloc_b", "B"},
	{"core.normalize_ns", "ns"},
	{"core.normalize_alloc_b", "B"},
	{"core.md5_ns", "ns"},
	{"core.md5_alloc_b", "B"},
	{"core.check_module_s", "s"},
	{"core.check_self_s", "s"},
	{"core.fetch_sim_s", "sim_s"},
	{"core.digest_sim_s", "sim_s"},
	{"core.compare_sim_s", "sim_s"},
	{"core.searcher_work_sim_s", "sim_s"},
	{"core.parser_work_sim_s", "sim_s"},
	{"core.checker_work_sim_s", "sim_s"},
	{"cas.lookups", "count/sweep"},
	{"cas.hits", "count/sweep"},
	{"cas.hit_ratio", "ratio"},
	{"cas.inserts", "count/sweep"},
	{"cas.evictions", "count/sweep"},
	{"cas.lookup_ns", "ns"},
	{"cas.insert_ns", "ns"},
	{"hypervisor.slowdown", "x"},
	{"scanner.sweep_self_s", "s"},
	{"scanner.targets_s", "s"},
	{"scanner.report_json_s", "s"},
	{"scanner.report_json_bytes", "B"},
	{"scanner.sweep_s.tail", "s"},
	{"scanner.sweep_s.tail_pct", "%"},
	{"scanner.sweep_s.tail_samples", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options is one invocation. The self-test shortens runs with a fixed
// sweep count and a single set-up.
type options struct {
	workload *workload
	seed     int64
	win      window
	setups   int    // untraced runs: set-ups whose median is setup_s
	traceDir string // traced runs: where the span export goes
}

// outcome is what a run measured: metric values by name, the correctness
// ledger, and the diagnostics.
type outcome struct {
	values map[string]float64
	tally  tally
	diag   diagnostics
}

func main() {
	name := flag.String("workload", "", "workload to run: paper15, fleet256-warm, fleet256-churn or fleet100k-dedup")
	seed := flag.Int64("seed", 1, "workload seed (load addresses, infected VMs, churn order)")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	opts := options{
		workload: w,
		seed:     *seed,
		win:      window{seconds: *seconds},
		setups:   3,
		traceDir: ".bench_build/traces",
	}
	defs := endToEnd
	run := runUntraced
	if *traced == 1 {
		defs, run = perLayer, runTraced
	}
	out, err := run(opts)
	if err != nil {
		fatal(err)
	}
	res := result{
		Correct:   out.tally.wrong == nil,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := out.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-30s %.6g %s\n", d.name, v, d.unit)
	}
	diag, err := json.Marshal(out.diag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("diagnostics %s\n", diag)
	if out.tally.wrong != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, out.tally.wrong)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// runUntraced is the end-to-end run: several set-ups (median setup_s), then
// the timed closed loop on the last one, then the live heap with the cloud,
// scanner and store still reachable.
func runUntraced(o options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, diag: newDiagnostics()}
	out.diag.CalibMD5NsPre = calibrate()
	var e *env
	setupTimes := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if e, d, err = setup(o.workload, o.seed); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	steal := stealTicks()
	ls, err := timedLoop(e, o.win)
	if err != nil {
		return nil, err
	}
	if s := stealTicks(); s >= 0 && steal >= 0 {
		out.diag.StealTicks = s - steal
	} else {
		out.diag.StealTicks = -1
	}
	heap := liveHeap()
	runtime.KeepAlive(e)
	out.diag.CalibMD5Ns = calibrate()
	out.diag.ReportSHA256 = ls.digest()
	out.diag.ReportSweeps = len(ls.costs)
	out.diag.SweepSimS = ls.simPerSweep()
	out.diag.CheckFailFrac = ls.failFrac()
	out.tally = ls.tally
	out.diag.SetupS = setupTimes
	out.values["setup_s"] = median(setupTimes)
	out.values["sweep_s.p50"] = median(ls.walls())
	out.values["cpu_s_per_sweep"] = ls.cpuPerSweep()
	out.values["alloc_mb_per_sweep"] = ls.allocPerSweep() / 1e6
	out.values["heap_live_mb"] = float64(heap) / 1e6
	return out, nil
}
