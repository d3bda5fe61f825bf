// Package experiments regenerates every evaluation result in the paper:
// the four detection experiments of Section V-B, the runtime figures 7
// and 8, the guest-impact figure 9, and the ablations DESIGN.md defines.
// The cmd/experiments binary and the repository's benchmarks are thin
// wrappers over these harnesses.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"modchecker"
	"modchecker/internal/core"
	"modchecker/internal/monitor"
	"modchecker/internal/stress"
)

// DetectionResult records one Section V-B experiment: which VM was
// infected, what ModChecker flagged, and whether the observed component
// mismatches match the paper's.
type DetectionResult struct {
	ID         string // E1..E4
	Name       string
	Preset     string
	Module     string
	InfectedVM string

	Flagged              []string // VMs the pool sweep flagged
	MismatchedComponents []string // on the infected VM
	// WantComponents is the paper's reported outcome; for E4 a component
	// name prefixed with "*" means "every component with that prefix".
	WantComponents []string
	Detected       bool // infected VM flagged, and no false positives
	AsInPaper      bool // mismatched components match the paper's report
}

// detectionSpec ties a preset to the paper's expected observation.
type detectionSpec struct {
	id, name, preset, module string
	want                     []string
	wantAllSectionHeaders    bool
	wantExtra                bool // tolerate additional data components (INIT/.reloc)
}

var detectionSpecs = []detectionSpec{
	{
		id: "E1", name: "single opcode replacement (hal.dll DEC ECX -> SUB ECX,1)",
		preset: "opcode-patch", module: "hal.dll",
		want: []string{".text"},
	},
	{
		id: "E2", name: "inline hooking (jmp to opcode cave, TCPIRPHOOK-style)",
		preset: "tcpirphook", module: "tcpip.sys",
		want: []string{".text"},
	},
	{
		id: "E3", name: `stub modification ("DOS" -> "CHK" in dummy.sys)`,
		preset: "stub-patch", module: "dummy.sys",
		want: []string{"IMAGE_DOS_HEADER"},
	},
	{
		id: "E4", name: "PE header modification via DLL hooking (inject.dll into dummy.sys)",
		preset: "", module: "dummy.sys", // applied directly, not via preset list
		want:                  []string{"IMAGE_NT_HEADER", "IMAGE_OPTIONAL_HEADER", ".text"},
		wantAllSectionHeaders: true,
		wantExtra:             true,
	},
}

// RunDetections executes all four detection experiments, each on a fresh
// cloud of vms VMs with a single infected VM, and reports what ModChecker
// observed.
func RunDetections(vms int, seed int64) ([]DetectionResult, error) {
	var out []DetectionResult
	for i, spec := range detectionSpecs {
		cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: vms, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		infected := "Dom2"
		preset := spec.preset
		if spec.id == "E4" {
			preset = "rustock.b" // same mechanism; retarget below to dummy.sys
		}
		if spec.id == "E4" {
			// The paper's E4 targets the dummy driver specifically.
			err = infectDummyDLLHook(cloud, infected)
		} else {
			err = modchecker.InfectPreset(cloud, infected, preset)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments %s: %w", spec.id, err)
		}
		pool, err := cloud.NewChecker().CheckPool(spec.module)
		if err != nil {
			return nil, fmt.Errorf("experiments %s: %w", spec.id, err)
		}
		rep := pool.Report(infected)
		res := DetectionResult{
			ID:             spec.id,
			Name:           spec.name,
			Preset:         preset,
			Module:         spec.module,
			InfectedVM:     infected,
			Flagged:        pool.Flagged,
			WantComponents: spec.want,
		}
		if rep != nil {
			res.MismatchedComponents = rep.MismatchedComponents()
		}
		res.Detected = len(pool.Flagged) == 1 && pool.Flagged[0] == infected
		res.AsInPaper = res.Detected && componentsMatch(res.MismatchedComponents, spec)
		out = append(out, res)
	}
	return out, nil
}

// infectDummyDLLHook applies the E4 DLL hook to dummy.sys on the given VM.
func infectDummyDLLHook(cloud *modchecker.Cloud, vm string) error {
	return modchecker.InfectDLLHook(cloud, vm, "dummy.sys", "inject.dll", "callMessageBox")
}

// componentsMatch checks the observed mismatch set against the paper's
// expectation.
func componentsMatch(got []string, spec detectionSpec) bool {
	gotSet := make(map[string]bool, len(got))
	for _, g := range got {
		gotSet[g] = true
	}
	for _, w := range spec.want {
		if !gotSet[w] {
			return false
		}
	}
	if spec.wantAllSectionHeaders {
		// Every IMAGE_SECTION_HEADER[...] present in got must include all
		// sections; verify at least one exists and none is missing by
		// checking that no section header component is absent from got
		// while others are present. The caller's report lists only
		// mismatched components, so require >= 4 section headers (the
		// catalog's .text/.data/.rdata/INIT/.reloc).
		n := 0
		for g := range gotSet {
			if len(g) > len("IMAGE_SECTION_HEADER") && g[:len("IMAGE_SECTION_HEADER")] == "IMAGE_SECTION_HEADER" {
				n++
			}
		}
		if n < 4 {
			return false
		}
	}
	if !spec.wantExtra {
		// No unexpected component may appear.
		want := make(map[string]bool, len(spec.want))
		for _, w := range spec.want {
			want[w] = true
		}
		for _, g := range got {
			if !want[g] {
				return false
			}
		}
	}
	return true
}

// RuntimeRow is one sweep point of Figures 7/8: total and per-component
// ModChecker runtime when comparing a module across t VMs.
type RuntimeRow struct {
	VMs      int
	Searcher time.Duration
	Parser   time.Duration
	Checker  time.Duration
	Total    time.Duration
	Slowdown float64 // contention factor at this point (1.0 when idle)
}

// runtimeSweep measures CheckModule("http.sys") of Dom1 against Dom2..Domt
// for t = 2..maxVMs on one cloud, with loads configured by setup.
func runtimeSweep(cloud *modchecker.Cloud, maxVMs int, loaded bool) ([]RuntimeRow, error) {
	checker := cloud.NewChecker()
	hv := cloud.Hypervisor()
	names := cloud.VMNames()
	var rows []RuntimeRow
	for t := 2; t <= maxVMs; t++ {
		involved := names[:t]
		if loaded {
			for _, n := range involved {
				stress.Apply(cloud.Guest(n), stress.HeavyLoad)
			}
		}
		hv.Clock().Reset()
		rep, err := checker.CheckModule("http.sys", involved[0], involved[1:]...)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RuntimeRow{
			VMs:      t,
			Searcher: rep.Timing.Searcher,
			Parser:   rep.Timing.Parser,
			Checker:  rep.Timing.Checker,
			Total:    rep.Timing.Total(),
			Slowdown: hv.Slowdown(),
		})
		if loaded {
			for _, n := range involved {
				stress.Idle(cloud.Guest(n))
			}
		}
	}
	return rows, nil
}

// Fig7 reproduces Figure 7: runtime versus pool size with all VMs idle.
// The expected shape is linear growth dominated by Module-Searcher.
func Fig7(maxVMs int, seed int64) ([]RuntimeRow, error) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: maxVMs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return runtimeSweep(cloud, maxVMs, false)
}

// Fig8 reproduces Figure 8: runtime versus pool size with the involved VMs
// running HeavyLoad. The expected shape follows Figure 7 until the loaded
// vCPUs exceed the virtual cores, then grows super-linearly.
func Fig8(maxVMs int, seed int64) ([]RuntimeRow, error) {
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: maxVMs, Seed: seed})
	if err != nil {
		return nil, err
	}
	return runtimeSweep(cloud, maxVMs, true)
}

// Fig9Result is the guest-impact experiment: a monitor trace with
// VMI-access windows marked, the per-counter perturbation (z-score of
// each window mean against baseline variation), and the Dom0 cost of the
// windows' copies: simulated time, page-table walks and bytes read.
type Fig9Result struct {
	Trace           *monitor.Trace
	Perturbations   map[string]float64
	MaxPerturbation float64
	Dom0            time.Duration
	PTWalks         uint64
	BytesRead       uint64
}

// fig9Fields are the counters Figure 9 plots.
var fig9Fields = map[string]monitor.Field{
	"cpu_idle":    monitor.CPUIdle,
	"cpu_user":    monitor.CPUUser,
	"cpu_priv":    monitor.CPUPriv,
	"free_phys":   monitor.FreePhys,
	"free_virt":   monitor.FreeVirt,
	"page_faults": monitor.Faults,
	"disk_queue":  monitor.DiskQueue,
	"net_sent":    monitor.NetSent,
}

// Fig9 reproduces Figure 9: an idle VM's internal counters are sampled
// continuously while ModChecker reads its memory during two marked windows;
// the counters must show no significant perturbation, because introspection
// is entirely out-of-band.
func Fig9(steps int, seed int64) (*Fig9Result, error) {
	if steps < 40 {
		steps = 120
	}
	cloud, err := modchecker.NewCloud(modchecker.CloudConfig{VMs: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	h, err := cloud.OpenVMI("Dom1")
	if err != nil {
		return nil, err
	}
	searcher := core.NewSearcher(h, core.CopyPageWise)

	w1lo, w1hi := steps/4, steps/4+steps/8
	w2lo, w2hi := 2*steps/3, 2*steps/3+steps/8
	inWindow := func(i int) bool { return (i >= w1lo && i < w1hi) || (i >= w2lo && i < w2hi) }

	start, before := cloud.Hypervisor().Clock().Now(), cloud.IntrospectionStats()
	rec := monitor.NewRecorder(cloud.Guest("Dom1"))
	trace := rec.RunWith(steps, 100,
		func(i int) string {
			if inWindow(i) {
				return "vmi-access"
			}
			return "baseline"
		},
		func(i int) {
			if inWindow(i) {
				// ModChecker's memory access: locate and copy http.sys.
				_, buf, _, err := searcher.FetchModule("http.sys")
				if err != nil {
					panic(fmt.Sprintf("fig9: fetch: %v", err))
				}
				core.ReleaseModuleCopy(buf)
			}
		})

	after := cloud.IntrospectionStats()
	res := &Fig9Result{
		Trace:         trace,
		Perturbations: make(map[string]float64),
		Dom0:          cloud.Hypervisor().Clock().Now() - start,
		PTWalks:       after.PTWalks - before.PTWalks,
		BytesRead:     after.BytesRead - before.BytesRead,
	}
	for name, f := range fig9Fields {
		z := trace.Perturbation(f, "baseline", "vmi-access")
		res.Perturbations[name] = z
		if z > res.MaxPerturbation {
			res.MaxPerturbation = z
		}
	}
	return res, nil
}

// SortedPerturbations returns the Fig9 perturbations as sorted "name=z"
// pairs for stable printing.
func (r *Fig9Result) SortedPerturbations() []string {
	names := make([]string, 0, len(r.Perturbations))
	for n := range r.Perturbations {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s=%.2f", n, r.Perturbations[n])
	}
	return out
}
