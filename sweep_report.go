package modchecker

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// sweepAlertJSON is the stable JSON shape of one sweep alert.
type sweepAlertJSON struct {
	Module     string   `json:"module"`
	VM         string   `json:"vm"`
	Verdict    string   `json:"verdict"`
	Components []string `json:"components,omitempty"`
	Reason     string   `json:"reason,omitempty"`
}

type sweepErrorJSON struct {
	Module string `json:"module"`
	Error  string `json:"error"`
}

type sweepTimingJSON struct {
	ListMS    float64 `json:"list_ms"`
	FetchMS   float64 `json:"fetch_ms"`
	DigestMS  float64 `json:"digest_ms"`
	CompareMS float64 `json:"compare_ms"`
}

// sweepJSON is the stable JSON shape of a whole sweep. Counts for skipped
// VMs, budget-dropped VMs, and deferred modules are always present (not
// omitempty) so downstream tooling can threshold on them without probing
// for the field.
type sweepJSON struct {
	Sweep          int              `json:"sweep"`
	ModulesChecked int              `json:"modules_checked"`
	VMs            int              `json:"vms"`
	Clean          bool             `json:"clean"`
	Partial        bool             `json:"partial"`
	Resumed        bool             `json:"resumed"`
	Alerts         []sweepAlertJSON `json:"alerts,omitempty"`
	Errors         []sweepErrorJSON `json:"errors,omitempty"`
	Health         *healthJSON      `json:"health,omitempty"`
	Quarantined    []string         `json:"quarantined,omitempty"`
	Readmitted     []string         `json:"readmitted,omitempty"`
	Skipped        []string         `json:"skipped,omitempty"`
	SkippedCount   int              `json:"skipped_count"`
	Remaining      []string         `json:"remaining_modules,omitempty"`
	RemainingCount int              `json:"remaining_count"`
	BudgetExceeded []string         `json:"budget_exceeded,omitempty"`
	BudgetCount    int              `json:"budget_exceeded_count"`
	BreakerOpen    []string         `json:"breaker_open,omitempty"`
	SimulatedMS    float64          `json:"simulated_ms"`
	Timing         sweepTimingJSON  `json:"timing"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// healthJSON renders SweepReport.Health as a JSON object whose keys are in
// sorted order — byte for byte what encoding/json produces for the
// equivalent map[string]string — without the encoder's reflective key sort.
type healthJSON struct {
	vms    []string // sorted keys of health
	health map[string]HealthState
}

// MarshalJSON implements json.Marshaler.
func (h *healthJSON) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 32*len(h.vms))
	buf = append(buf, '{')
	for i, vm := range h.vms {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, vm)
		buf = append(buf, ':')
		buf = appendJSONString(buf, h.health[vm].String())
	}
	return append(buf, '}'), nil
}

// appendJSONString appends s as encoding/json renders a string with HTML
// escaping on (the Encoder default). Printable ASCII that needs no escape —
// every name the testbed generates — is copied through; any other string is
// rendered by encoding/json itself, so the bytes match by construction.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// sortedHealthVMs returns Health's keys in sorted order: the scanner's
// roster when the map still holds exactly those names, otherwise (a report
// built or edited outside the scanner) a fresh sort of the keys.
func (r *SweepReport) sortedHealthVMs() []string {
	if len(r.healthOrder) == len(r.Health) && hasAllKeys(r.Health, r.healthOrder) {
		return r.healthOrder
	}
	vms := make([]string, 0, len(r.Health))
	for vm := range r.Health {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	return vms
}

func hasAllKeys(m map[string]HealthState, keys []string) bool {
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}

// WriteJSON emits the sweep report as indented JSON. Health renders in
// sorted key order and every list is already sorted by the scanner, so the
// bytes are identical across identically seeded runs.
//
//moddet:sink sweep JSON must be byte-identical across runs
func (r *SweepReport) WriteJSON(w io.Writer) error {
	out := sweepJSON{
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
		Timing: sweepTimingJSON{
			ListMS:    durMS(r.Timing.List),
			FetchMS:   durMS(r.Timing.Fetch),
			DigestMS:  durMS(r.Timing.Digest),
			CompareMS: durMS(r.Timing.Compare),
		},
	}
	for _, a := range r.Alerts {
		out.Alerts = append(out.Alerts, sweepAlertJSON{
			Module: a.Module, VM: a.VM, Verdict: a.Verdict.String(),
			Components: a.Components, Reason: a.Reason,
		})
	}
	for _, e := range r.Errors {
		out.Errors = append(out.Errors, sweepErrorJSON{Module: e.Module, Error: e.Err.Error()})
	}
	if len(r.Health) > 0 {
		out.Health = &healthJSON{vms: r.sortedHealthVMs(), health: r.Health}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteText renders the sweep report as operator-facing text: the one-line
// summary first, then alerts, errors, and the robustness accounting —
// skipped VMs, budget-dropped VMs, checkpointed modules, open breakers.
//
//moddet:sink sweep text must be byte-identical across runs
func (r *SweepReport) WriteText(w io.Writer) error {
	status := "clean"
	switch {
	case len(r.Alerts) > 0:
		status = fmt.Sprintf("%d alert(s)", len(r.Alerts))
	case r.Partial:
		status = fmt.Sprintf("partial (%d modules deferred)", len(r.Remaining))
	case !r.Clean():
		status = "not clean (no coverage)"
	}
	tag := ""
	if r.Resumed {
		tag = " [resumed]"
	}
	if r.Partial {
		tag += " [partial]"
	}
	if _, err := fmt.Fprintf(w, "[sweep %d]%s %d modules x %d VMs in %v simulated: %s\n",
		r.Sweep, tag, r.ModulesChecked, r.VMs, r.Simulated.Round(time.Microsecond), status); err != nil {
		return err
	}
	for _, a := range r.Alerts {
		detail := strings.Join(a.Components, ", ")
		if detail == "" {
			detail = a.Reason
		}
		fmt.Fprintf(w, "  ALERT %s on %s: %s (%s)\n", a.Module, a.VM, a.Verdict, detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  ERROR %s: %v\n", e.Module, e.Err)
	}
	if len(r.Skipped) > 0 {
		fmt.Fprintf(w, "  skipped VMs (%d): %s\n", len(r.Skipped), strings.Join(r.Skipped, ", "))
	}
	if len(r.BudgetExceeded) > 0 {
		fmt.Fprintf(w, "  budget-exceeded VMs (%d): %s\n", len(r.BudgetExceeded), strings.Join(r.BudgetExceeded, ", "))
	}
	if len(r.Remaining) > 0 {
		fmt.Fprintf(w, "  deferred modules (%d, resume next sweep): %s\n", len(r.Remaining), strings.Join(r.Remaining, ", "))
	}
	if len(r.BreakerOpen) > 0 {
		fmt.Fprintf(w, "  breaker open: %s\n", strings.Join(r.BreakerOpen, ", "))
	}
	if len(r.Readmitted) > 0 {
		fmt.Fprintf(w, "  readmitted: %s\n", strings.Join(r.Readmitted, ", "))
	}
	if len(r.Quarantined) > 0 {
		fmt.Fprintf(w, "  quarantined: %s\n", strings.Join(r.Quarantined, ", "))
	}
	notable := false
	for _, st := range r.Health {
		if st != HealthHealthy {
			notable = true
			break
		}
	}
	if !notable {
		return nil
	}
	var b strings.Builder
	b.WriteString("  health:")
	for _, vm := range r.sortedHealthVMs() {
		b.WriteByte(' ')
		b.WriteString(vm)
		b.WriteByte('=')
		b.WriteString(r.Health[vm].String())
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}
