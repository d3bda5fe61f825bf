package modchecker

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jsonOut builds a JSON document directly in encoding/json's indented
// layout — the bytes json.Encoder produces after SetIndent("", "  ") — so
// nothing has to be re-indented afterwards. Strings and numbers are
// rendered exactly as encoding/json renders them.
type jsonOut struct {
	b     []byte
	depth int
	more  bool // the innermost open container already holds a member
}

// next starts the next member of the innermost open container.
func (j *jsonOut) next() {
	if j.more {
		j.b = append(j.b, ',')
	}
	j.b = j.newline(j.b)
	j.more = true
}

// newline appends a line break and the current depth's indentation.
func (j *jsonOut) newline(b []byte) []byte {
	b = append(b, '\n')
	for range j.depth {
		b = append(b, "  "...)
	}
	return b
}

func (j *jsonOut) key(k string) {
	j.next()
	j.b = appendJSONString(j.b, k)
	j.b = append(j.b, ": "...)
}

func (j *jsonOut) open(c byte) {
	j.b = append(j.b, c)
	j.depth++
	j.more = false
}

// close ends the innermost container; an empty one renders as {} or [].
func (j *jsonOut) close(c byte) {
	j.depth--
	if j.more {
		j.b = j.newline(j.b)
	}
	j.b = append(j.b, c)
	j.more = true
}

func (j *jsonOut) str(k, v string) {
	j.key(k)
	j.b = appendJSONString(j.b, v)
}

func (j *jsonOut) int(k string, v int) {
	j.key(k)
	j.b = strconv.AppendInt(j.b, int64(v), 10)
}

func (j *jsonOut) bool(k string, v bool) {
	j.key(k)
	j.b = strconv.AppendBool(j.b, v)
}

func (j *jsonOut) ms(k string, d time.Duration) {
	j.key(k)
	b, _ := json.Marshal(durMS(d)) // a duration is always finite
	j.b = append(j.b, b...)
}

// strs renders a string list; an empty one is omitted (omitempty).
func (j *jsonOut) strs(k string, vs []string) {
	if len(vs) == 0 {
		return
	}
	j.key(k)
	j.open('[')
	for _, v := range vs {
		j.next()
		j.b = appendJSONString(j.b, v)
	}
	j.close(']')
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

// appendHealth appends every Health entry in sorted name order, rendered by
// entry (k counts the entries appended so far). A scanner report is walked
// along the scanner's sorted roster with one map lookup per name; a report
// whose map no longer holds exactly the roster's names (built or edited
// outside the scanner) is rolled back and rendered from a fresh sort of
// its keys.
func (r *SweepReport) appendHealth(dst []byte, entry func(b []byte, k int, vm string, st HealthState) []byte) []byte {
	if len(r.healthOrder) == len(r.Health) {
		b, complete := dst, true
		for k, vm := range r.healthOrder {
			st, ok := r.Health[vm]
			if complete = ok; !ok {
				break
			}
			b = entry(b, k, vm, st)
		}
		if complete {
			return b
		}
	}
	vms := make([]string, 0, len(r.Health))
	for vm := range r.Health {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	for k, vm := range vms {
		dst = entry(dst, k, vm, r.Health[vm])
	}
	return dst
}

// WriteJSON emits the sweep report as indented JSON, byte for byte what
// encoding/json's indenting Encoder renders for the report's stable shape
// (see TestWriteJSONMatchesEncodingJSON). Health renders in sorted key
// order and every list is already sorted by the scanner, so the bytes are
// identical across identically seeded runs. Counts for skipped VMs,
// budget-dropped VMs, and deferred modules are always present (not omitted
// when zero) so downstream tooling can threshold on them without probing
// for the field.
//
//moddet:sink sweep JSON must be byte-identical across runs
func (r *SweepReport) WriteJSON(w io.Writer) error {
	j := jsonOut{b: make([]byte, 0, 1024+32*len(r.Health))}
	j.open('{')
	j.int("sweep", r.Sweep)
	j.int("modules_checked", r.ModulesChecked)
	j.int("vms", r.VMs)
	j.bool("clean", r.Clean())
	j.bool("partial", r.Partial)
	j.bool("resumed", r.Resumed)
	if len(r.Alerts) > 0 {
		j.key("alerts")
		j.open('[')
		for _, a := range r.Alerts {
			j.next()
			j.open('{')
			j.str("module", a.Module)
			j.str("vm", a.VM)
			j.str("verdict", a.Verdict.String())
			j.strs("components", a.Components)
			if a.Reason != "" {
				j.str("reason", a.Reason)
			}
			j.close('}')
		}
		j.close(']')
	}
	if len(r.Errors) > 0 {
		j.key("errors")
		j.open('[')
		for _, e := range r.Errors {
			j.next()
			j.open('{')
			j.str("module", e.Module)
			j.str("error", e.Err.Error())
			j.close('}')
		}
		j.close(']')
	}
	if len(r.Health) > 0 {
		j.key("health")
		j.open('{')
		indent := string(j.newline(nil))
		j.b = r.appendHealth(j.b, func(b []byte, k int, vm string, st HealthState) []byte {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, indent...)
			b = appendJSONString(b, vm)
			b = append(b, ": "...)
			return appendJSONString(b, st.String())
		})
		j.more = true // entries were appended past jsonOut; there is at least one
		j.close('}')
	}
	j.strs("quarantined", r.Quarantined)
	j.strs("readmitted", r.Readmitted)
	j.strs("skipped", r.Skipped)
	j.int("skipped_count", len(r.Skipped))
	j.strs("remaining_modules", r.Remaining)
	j.int("remaining_count", len(r.Remaining))
	j.strs("budget_exceeded", r.BudgetExceeded)
	j.int("budget_exceeded_count", len(r.BudgetExceeded))
	j.strs("breaker_open", r.BreakerOpen)
	j.ms("simulated_ms", r.Simulated)
	j.key("timing")
	j.open('{')
	j.ms("list_ms", r.Timing.List)
	j.ms("fetch_ms", r.Timing.Fetch)
	j.ms("digest_ms", r.Timing.Digest)
	j.ms("compare_ms", r.Timing.Compare)
	j.close('}')
	j.close('}')
	_, err := w.Write(append(j.b, '\n'))
	return err
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
	b := r.appendHealth([]byte("  health:"), func(b []byte, _ int, vm string, st HealthState) []byte {
		b = append(b, ' ')
		b = append(b, vm...)
		b = append(b, '=')
		return append(b, st.String()...)
	})
	_, err := w.Write(append(b, '\n'))
	return err
}
