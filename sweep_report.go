package modchecker

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jsonChunk is how many bytes jsonOut buffers before writing them out.
const jsonChunk = 64 << 10

// jsonOut writes a JSON document directly in encoding/json's indented
// layout — the bytes json.Encoder produces after SetIndent("", "  ") — so
// nothing has to be re-indented afterwards. Strings and numbers are
// rendered exactly as encoding/json renders them. The document streams to
// w in chunks of about jsonChunk bytes, so its size never sets the buffer's.
type jsonOut struct {
	w     io.Writer
	err   error // the first write error; nothing is written after it
	b     []byte
	depth int
	more  bool // the innermost open container already holds a member
}

// flush writes the buffered bytes once they reach jsonChunk, or whatever
// is buffered when force is set.
func (j *jsonOut) flush(force bool) {
	if len(j.b) < jsonChunk && !force {
		return
	}
	if j.err == nil {
		_, j.err = j.w.Write(j.b)
	}
	j.b = j.b[:0]
}

// next starts the next member of the innermost open container.
func (j *jsonOut) next() {
	j.flush(false)
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

// jsonPlain reports whether s renders as itself between quotes in
// encoding/json's output with HTML escaping on: printable ASCII with no
// quote, backslash or HTML character, which every name the testbed
// generates is.
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// allJSONPlain reports whether every name is jsonPlain.
func allJSONPlain(names []string) bool {
	for _, s := range names {
		if !jsonPlain(s) {
			return false
		}
	}
	return true
}

// appendJSONString appends s as encoding/json renders a string with HTML
// escaping on (the Encoder default). A jsonPlain string is copied through;
// any other string is rendered by encoding/json itself, so the bytes match
// by construction.
func appendJSONString(dst []byte, s string) []byte {
	if !jsonPlain(s) {
		b, _ := json.Marshal(s) // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// HealthView is every roster VM's health state after one sweep, in name
// order. It pairs the scanner's sorted roster names, shared read-only by
// every report, with one byte of state per VM owned by this sweep's
// report, so a report is an immutable snapshot without a per-VM map. The
// zero value is an empty view.
type HealthView struct {
	names  []string // sorted; never written after the scanner built it
	states []uint8  // states[k] is names[k]'s HealthState
	// plain: every name is jsonPlain, so WriteJSON copies names through
	// without looking at their bytes.
	plain bool
}

// newHealthView returns an all-healthy view over the sorted names. plain
// must be allJSONPlain(names); the scanner computes it once per roster.
func newHealthView(names []string, plain bool) HealthView {
	return HealthView{names: names, states: make([]uint8, len(names)), plain: plain}
}

// Len returns how many VMs the view holds.
func (v HealthView) Len() int { return len(v.names) }

// At returns the k-th VM in name order and its state.
func (v HealthView) At(k int) (vm string, st HealthState) {
	return v.names[k], HealthState(v.states[k])
}

// Of returns the named VM's state, or HealthHealthy for a name the view
// does not hold.
func (v HealthView) Of(vm string) HealthState {
	if k, ok := slices.BinarySearch(v.names, vm); ok {
		return HealthState(v.states[k])
	}
	return HealthHealthy
}

// healthJSON is each state the scanner assigns, as a quoted JSON string.
var healthJSON = [...]string{
	HealthHealthy:     `"HEALTHY"`,
	HealthSuspect:     `"SUSPECT"`,
	HealthQuarantined: `"QUARANTINED"`,
}

// writeJSON renders the view's members into the open health object. A
// plain roster's members are appended as they are; otherwise each name
// goes through appendJSONString.
func (v HealthView) writeJSON(j *jsonOut) {
	for k, vm := range v.names {
		st := HealthState(v.states[k])
		if !v.plain || int(st) >= len(healthJSON) {
			j.str(vm, st.String())
			continue
		}
		j.next()
		j.b = append(j.b, '"')
		j.b = append(j.b, vm...)
		j.b = append(j.b, `": `...)
		j.b = append(j.b, healthJSON[st]...)
	}
}

// WriteJSON emits the sweep report as indented JSON, byte for byte what
// encoding/json's indenting Encoder renders for the report's stable shape
// (see TestWriteJSONMatchesEncodingJSON). Health renders in sorted key
// order and every list is already sorted by the scanner, so the bytes are
// identical across identically seeded runs. Counts for skipped VMs,
// budget-dropped VMs, and deferred modules are always present (not omitted
// when zero) so downstream tooling can threshold on them without probing
// for the field. The document is written in chunks of about 64 KiB; the
// first write error stops the output and is returned.
//
//moddet:sink sweep JSON must be byte-identical across runs
func (r *SweepReport) WriteJSON(w io.Writer) error {
	j := jsonOut{w: w, b: make([]byte, 0, min(1024+32*r.Health.Len(), jsonChunk+1024))}
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
	if r.Health.Len() > 0 {
		j.key("health")
		j.open('{')
		r.Health.writeJSON(&j)
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
	j.b = append(j.b, '\n')
	j.flush(true)
	return j.err
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
	if !slices.ContainsFunc(r.Health.states, func(st uint8) bool { return HealthState(st) != HealthHealthy }) {
		return nil
	}
	b := []byte("  health:")
	for k := range r.Health.Len() {
		vm, st := r.Health.At(k)
		b = append(b, ' ')
		b = append(b, vm...)
		b = append(b, '=')
		b = append(b, st.String()...)
	}
	_, err := w.Write(append(b, '\n'))
	return err
}
