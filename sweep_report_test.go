package modchecker

import (
	"bytes"
	"encoding/json"
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

// TestHealthJSONMatchesEncodingJSON: the health object WriteJSON renders
// from the scanner's sorted roster is byte-identical to encoding/json's
// rendering of the equivalent map[string]string, escaping included, and a
// report built by hand (no roster, or a roster that no longer matches the
// map) renders the same bytes through the sorted-keys fallback.
func TestHealthJSONMatchesEncodingJSON(t *testing.T) {
	names := []string{
		"Dom1", "Dom10", "Dom2", "",
		`quo"te`, `back\slash`, "<script>&amp;</script>",
		"ctl\x00\x01\x08\x0c\x1f\t\n\r", "del\x7f",
		"café 日本", "line\u2028para\u2029",
		"bad\xffutf8\xc3", "\xe2\x80",
	}
	health := make(map[string]HealthState, len(names))
	ref := make(map[string]string, len(names))
	for i, vm := range names {
		st := HealthState(i % 4) // 3 renders as "HealthState(3)"
		health[vm] = st
		ref[vm] = st.String()
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)

	encode := func(v any, prefix string) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent(prefix, "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := encode(ref, "")
	if got := encode(&healthJSON{vms: sorted, health: health}, ""); got != want {
		t.Fatalf("health JSON differs from encoding/json:\n got %q\nwant %q", got, want)
	}
	compact, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(&healthJSON{vms: sorted, health: health}); err != nil || !bytes.Equal(got, compact) {
		t.Fatalf("compact health JSON = %q (%v), want %q", got, err, compact)
	}

	// Whole reports: the scanner's roster, a hand-built report, and a
	// roster made stale by swapping one key must all embed the reference.
	stale := append([]string(nil), sorted...)
	stale[len(stale)-1] = "not-a-key"
	var nested bytes.Buffer
	if err := json.Indent(&nested, compact, "  ", "  "); err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tc := range []struct {
		name string
		rep  *SweepReport
	}{
		{"roster", &SweepReport{Sweep: 1, Health: health, healthOrder: sorted}},
		{"hand-built", &SweepReport{Sweep: 1, Health: health}},
		{"stale", &SweepReport{Sweep: 1, Health: health, healthOrder: stale}},
	} {
		var js, txt bytes.Buffer
		if err := tc.rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(js.String(), `"health": `+nested.String()+",\n") {
			t.Errorf("%s report does not embed the encoding/json health object:\n%s", tc.name, js.String())
		}
		if err := tc.rep.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, txt.String())
	}
	if texts[0] != texts[1] || texts[1] != texts[2] {
		t.Errorf("health text differs between roster and fallback order:\n%q\n%q\n%q", texts[0], texts[1], texts[2])
	}
}
