package modchecker

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSweepReportWritersSurfaceRobustnessCounts: the JSON and text writers
// expose the skipped, budget-exceeded, and checkpoint accounting, and the
// JSON counts are always present (not omitted when zero).
func TestSweepReportWritersSurfaceRobustnessCounts(t *testing.T) {
	cloud := testCloud(t, 4, 241)
	if err := cloud.Hypervisor().DestroyDomain("Dom4"); err != nil {
		t.Fatal(err)
	}
	sc := cloud.NewScanner()
	sc.SetBudget(BudgetPolicy{VMBudget: time.Nanosecond})
	rep, err := sc.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || len(rep.BudgetExceeded) != 3 || len(rep.Remaining) == 0 {
		t.Fatalf("fixture sweep: skipped=%v budget=%v remaining=%v",
			rep.Skipped, rep.BudgetExceeded, rep.Remaining)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("writer emitted invalid JSON: %v", err)
	}
	if got := out["skipped_count"]; got != float64(1) {
		t.Errorf("skipped_count = %v, want 1", got)
	}
	if got := out["budget_exceeded_count"]; got != float64(3) {
		t.Errorf("budget_exceeded_count = %v, want 3", got)
	}
	if got := out["remaining_count"]; got != float64(len(rep.Remaining)) {
		t.Errorf("remaining_count = %v, want %d", got, len(rep.Remaining))
	}
	if got := out["partial"]; got != true {
		t.Errorf("partial = %v, want true", got)
	}
	if got := out["clean"]; got != false {
		t.Errorf("clean = %v, want false (partial sweep)", got)
	}

	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"[partial]", "skipped VMs (1): Dom4", "budget-exceeded VMs (3):", "deferred modules ("} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	// A clean sweep still carries the (zero) counts in JSON.
	cloud2 := testCloud(t, 3, 241)
	rep2, err := cloud2.NewScanner().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rep2.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"skipped_count", "budget_exceeded_count", "remaining_count"} {
		if !strings.Contains(buf.String(), `"`+key+`": 0`) {
			t.Errorf("clean-sweep JSON missing zero %s:\n%s", key, buf.String())
		}
	}
}

// TestSweepReportJSONDeterministic: identical seeds produce byte-identical
// sweep JSON — the fingerprint the chaos harness is built on.
func TestSweepReportJSONDeterministic(t *testing.T) {
	run := func() string {
		cloud := testCloud(t, 5, 251)
		plan := NewFaultPlan(53)
		plan.FailForever("Dom2", 10)
		plan.FlakyReads("Dom5", 0.05)
		cloud.InstallFaultPlan(plan)
		sc := cloud.NewScanner()
		var b bytes.Buffer
		for i := 0; i < 3; i++ {
			rep, err := sc.Sweep()
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("sweep JSON diverges across identically seeded runs:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

// The reference shape of WriteJSON's document: the structs WriteJSON
// rendered through encoding/json before it wrote its indented bytes
// itself. encodeSweepReference encodes a report through them with the
// indenting Encoder, the oracle every hand-written byte is compared with.
type sweepAlertRef struct {
	Module     string   `json:"module"`
	VM         string   `json:"vm"`
	Verdict    string   `json:"verdict"`
	Components []string `json:"components,omitempty"`
	Reason     string   `json:"reason,omitempty"`
}

type sweepErrorRef struct {
	Module string `json:"module"`
	Error  string `json:"error"`
}

type sweepTimingRef struct {
	ListMS    float64 `json:"list_ms"`
	FetchMS   float64 `json:"fetch_ms"`
	DigestMS  float64 `json:"digest_ms"`
	CompareMS float64 `json:"compare_ms"`
}

type sweepRef struct {
	Sweep          int               `json:"sweep"`
	ModulesChecked int               `json:"modules_checked"`
	VMs            int               `json:"vms"`
	Clean          bool              `json:"clean"`
	Partial        bool              `json:"partial"`
	Resumed        bool              `json:"resumed"`
	Alerts         []sweepAlertRef   `json:"alerts,omitempty"`
	Errors         []sweepErrorRef   `json:"errors,omitempty"`
	Health         map[string]string `json:"health,omitempty"`
	Quarantined    []string          `json:"quarantined,omitempty"`
	Readmitted     []string          `json:"readmitted,omitempty"`
	Skipped        []string          `json:"skipped,omitempty"`
	SkippedCount   int               `json:"skipped_count"`
	Remaining      []string          `json:"remaining_modules,omitempty"`
	RemainingCount int               `json:"remaining_count"`
	BudgetExceeded []string          `json:"budget_exceeded,omitempty"`
	BudgetCount    int               `json:"budget_exceeded_count"`
	BreakerOpen    []string          `json:"breaker_open,omitempty"`
	SimulatedMS    float64           `json:"simulated_ms"`
	Timing         sweepTimingRef    `json:"timing"`
}

func encodeSweepReference(t *testing.T, r *SweepReport) string {
	t.Helper()
	ref := sweepRef{
		Sweep:          r.Sweep,
		ModulesChecked: r.ModulesChecked,
		VMs:            r.VMs,
		Clean:          r.Clean(),
		Partial:        r.Partial,
		Resumed:        r.Resumed,
		Quarantined:    r.Quarantined,
		Readmitted:     r.Readmitted,
		Skipped:        r.Skipped,
		SkippedCount:   len(r.Skipped),
		Remaining:      r.Remaining,
		RemainingCount: len(r.Remaining),
		BudgetExceeded: r.BudgetExceeded,
		BudgetCount:    len(r.BudgetExceeded),
		BreakerOpen:    r.BreakerOpen,
		SimulatedMS:    durMS(r.Simulated),
		Timing: sweepTimingRef{
			ListMS:    durMS(r.Timing.List),
			FetchMS:   durMS(r.Timing.Fetch),
			DigestMS:  durMS(r.Timing.Digest),
			CompareMS: durMS(r.Timing.Compare),
		},
	}
	for _, a := range r.Alerts {
		ref.Alerts = append(ref.Alerts, sweepAlertRef{
			Module: a.Module, VM: a.VM, Verdict: a.Verdict.String(),
			Components: a.Components, Reason: a.Reason,
		})
	}
	for _, e := range r.Errors {
		ref.Errors = append(ref.Errors, sweepErrorRef{Module: e.Module, Error: e.Err.Error()})
	}
	if len(r.Health) > 0 {
		ref.Health = make(map[string]string, len(r.Health))
		for vm, st := range r.Health {
			ref.Health[vm] = st.String()
		}
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ref); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// hostileNames are VM names that exercise every escaping rule of
// encoding/json: the empty string, quotes, backslashes, HTML, control
// bytes, DEL, non-ASCII, U+2028/U+2029 and invalid UTF-8.
var hostileNames = []string{
	"Dom1", "Dom10", "Dom2", "",
	`quo"te`, `back\slash`, "<script>&amp;</script>",
	"ctl\x00\x01\x08\x0c\x1f\t\n\r", "del\x7f",
	"café 日本", "line\u2028para\u2029",
	"bad\xffutf8\xc3", "\xe2\x80",
}

// TestHealthJSONMatchesEncodingJSON: the health object WriteJSON renders
// from the scanner's sorted roster is byte-identical to encoding/json's
// rendering of the equivalent map[string]string, escaping included, and a
// report built by hand (no roster, or a roster that no longer matches the
// map) renders the same bytes through the sorted-keys fallback. Every
// case compares the whole document with encodeSweepReference.
func TestHealthJSONMatchesEncodingJSON(t *testing.T) {
	health := make(map[string]HealthState, len(hostileNames))
	for i, vm := range hostileNames {
		health[vm] = HealthState(i % 4) // 3 renders as "HealthState(3)"
	}
	sorted := append([]string(nil), hostileNames...)
	sort.Strings(sorted)

	// Whole reports: the scanner's roster, a hand-built report, and a
	// roster made stale by swapping one key (same length, one miss) or by
	// dropping one (length mismatch) must all render the reference.
	stale := append([]string(nil), sorted...)
	stale[len(stale)-1] = "not-a-key"
	var texts []string
	for _, tc := range []struct {
		name string
		rep  *SweepReport
	}{
		{"roster", &SweepReport{Sweep: 1, Health: health, healthOrder: sorted}},
		{"hand-built", &SweepReport{Sweep: 1, Health: health}},
		{"stale", &SweepReport{Sweep: 1, Health: health, healthOrder: stale}},
		{"short", &SweepReport{Sweep: 1, Health: health, healthOrder: sorted[1:]}},
	} {
		var js, txt bytes.Buffer
		if err := tc.rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if want := encodeSweepReference(t, tc.rep); js.String() != want {
			t.Errorf("%s report differs from encoding/json:\n got %q\nwant %q", tc.name, js.String(), want)
		}
		if err := tc.rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, txt.String())
	}
	for i := 1; i < len(texts); i++ {
		if texts[i] != texts[0] {
			t.Errorf("health text differs between roster and fallback order:\n%q\n%q", texts[0], texts[i])
		}
	}
}

// TestWriteJSONMatchesEncodingJSON: every field of the hand-written
// document — alerts with and without components and reasons, module
// errors, each accounting list, and durations down to a nanosecond —
// renders byte for byte as encoding/json renders the reference shape,
// with hostile strings everywhere a string appears.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	full := &SweepReport{
		Sweep: 7, ModulesChecked: 3, VMs: 12,
		Alerts: []Alert{
			{Module: "hal.dll", VM: `quo"te`, Verdict: VerdictAltered, Components: []string{".text", "<init>", ""}},
			{Module: "ntfs.sys", VM: "Dom2", Verdict: VerdictError, Reason: "ctl\x00 \u2028 bad\xff"},
			{Module: "", VM: "", Verdict: VerdictInconclusive, Components: []string{}, Reason: "no majority"},
		},
		Errors:         []ModuleError{{Module: "tcpip.sys", Err: errors.New(`unreadable <on> "all" & more`)}},
		Health:         map[string]HealthState{"Dom1": HealthHealthy, "Dom2": HealthQuarantined, `back\slash`: HealthSuspect},
		Quarantined:    []string{"Dom2"},
		Readmitted:     []string{"line\u2028para"},
		Skipped:        hostileNames,
		Partial:        true,
		Resumed:        true,
		Remaining:      []string{"ndis.sys", "dummy.sys"},
		BudgetExceeded: []string{"Dom10", "café"},
		BreakerOpen:    []string{"Dom2"},
		Simulated:      123456789 * time.Nanosecond,
		Timing:         SweepTiming{List: time.Nanosecond, Fetch: 3 * time.Second, Digest: 999, Compare: 0},
	}
	for _, tc := range []struct {
		name string
		rep  *SweepReport
	}{
		{"empty", &SweepReport{}},
		{"clean", &SweepReport{Sweep: 1, ModulesChecked: 3, VMs: 2, Simulated: time.Millisecond}},
		{"full", full},
	} {
		var js bytes.Buffer
		if err := tc.rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if want := encodeSweepReference(t, tc.rep); js.String() != want {
			t.Errorf("%s report differs from encoding/json:\n got %q\nwant %q", tc.name, js.String(), want)
		}
	}
}
