package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// exactMetrics are the per-layer metrics derived from the program's own
// counters and the simulated clock: for one seed and sweep count they must
// read identically on every run.
var exactMetrics = []string{
	"sweep_sim_s", "check_fail_frac",
	"vmi.pt_walks", "vmi.tlb_hits", "vmi.tlb_hit_ratio", "vmi.pages_read", "vmi.bytes_read", "vmi.map_setups",
	"core.list_sim_s", "core.copy_module_sim_ns",
	"core.fetch_sim_s", "core.digest_sim_s", "core.compare_sim_s",
	"core.searcher_work_sim_s", "core.parser_work_sim_s", "core.checker_work_sim_s",
	"cas.lookups", "cas.hits", "cas.hit_ratio", "cas.inserts", "cas.evictions",
	"hypervisor.slowdown", "scanner.report_json_bytes", "scanner.sweep_s.tail_samples",
}

// TestRunsAreExact runs every workload twice untraced and twice traced at a
// short fixed length. Every sweep must match the generator's ground truth
// (and, traced, the twin's verdicts must equal the scanner's); the report
// JSON stream, the simulated sweep time and every counter-derived metric
// must be identical across the two runs.
func TestRunsAreExact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload four times")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w, seed: 7, win: window{maxSweeps: 4}, setups: 1, traceDir: t.TempDir()}
			var untraced, traced [2]*outcome
			for k := range untraced {
				var err error
				if untraced[k], err = runUntraced(o); err != nil {
					t.Fatal(err)
				}
				if traced[k], err = runTraced(o); err != nil {
					t.Fatal(err)
				}
				for _, out := range []*outcome{untraced[k], traced[k]} {
					if out.tally.wrong != nil {
						t.Fatal(out.tally.wrong)
					}
					if out.tally.attempted == 0 || out.tally.failed != 0 {
						t.Fatalf("attempted %d checks, %d failed", out.tally.attempted, out.tally.failed)
					}
				}
			}
			a, b := untraced[0].diag, untraced[1].diag
			if a.ReportSHA256 != b.ReportSHA256 || a.ReportSweeps != b.ReportSweeps {
				t.Errorf("report JSON differs: %s (%d sweeps) vs %s (%d sweeps)",
					a.ReportSHA256, a.ReportSweeps, b.ReportSHA256, b.ReportSweeps)
			}
			if a.SweepSimS != b.SweepSimS || a.SweepSimS <= 0 {
				t.Errorf("sweep_sim_s %v vs %v", a.SweepSimS, b.SweepSimS)
			}
			for _, name := range exactMetrics {
				x, y := traced[0].values[name], traced[1].values[name]
				if x != y {
					t.Errorf("%s differs across runs: %v vs %v", name, x, y)
				}
			}
			if s := traced[0].values["sweep_sim_s"]; s != a.SweepSimS {
				t.Errorf("traced sweep_sim_s %v, untraced %v", s, a.SweepSimS)
			}
		})
	}
}

// TestTraceExportValidates checks a traced run's span export with the
// repository's own trace validator.
func TestTraceExportValidates(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	w, err := workloadByName("paper15")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := runTraced(options{workload: w, seed: 3, win: window{maxSweeps: 2}, setups: 1, traceDir: dir}); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goTool, "run", "modchecker/cmd/tracecheck", filepath.Join(dir, "paper15-seed3.json")).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck: %v\n%s", err, out)
	}
}

// TestBenchmarkSpecMatches pins BENCHMARK.json at the repository root to
// the workloads and metric tables this program reports.
func TestBenchmarkSpecMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
