// Package report renders ModChecker results for humans (aligned text) and
// machines (JSON), so the CLI can feed both operators and the "more
// comprehensive, deeper analysis tools" the paper expects downstream of a
// flag.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"modchecker/internal/core"
)

// moduleJSON is the stable JSON shape for one module-on-one-VM result.
type moduleJSON struct {
	Module      string   `json:"module"`
	TargetVM    string   `json:"target_vm"`
	Base        string   `json:"base"`
	Verdict     string   `json:"verdict"`
	Successes   int      `json:"successes"`
	Comparisons int      `json:"comparisons"`
	Mismatched  []string `json:"mismatched_components,omitempty"`
	// Reason explains any non-clean verdict in one line; Error and
	// ErrorClass carry the underlying fault for VerdictError reports.
	Reason     string     `json:"reason,omitempty"`
	Error      string     `json:"error,omitempty"`
	ErrorClass string     `json:"error_class,omitempty"`
	Pairs      []pairJSON `json:"pairs,omitempty"`
	Timing     timingJSON `json:"timing"`
}

type pairJSON struct {
	Peer       string   `json:"peer"`
	Match      bool     `json:"match"`
	Mismatched []string `json:"mismatched_components,omitempty"`
	Error      string   `json:"error,omitempty"`
	ErrorClass string   `json:"error_class,omitempty"`
}

type timingJSON struct {
	SearcherMS float64 `json:"searcher_ms"`
	ParserMS   float64 `json:"parser_ms"`
	CheckerMS  float64 `json:"checker_ms"`
	TotalMS    float64 `json:"total_ms"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func moduleToJSON(r *core.ModuleReport) moduleJSON {
	out := moduleJSON{
		Module:      r.ModuleName,
		TargetVM:    r.TargetVM,
		Base:        fmt.Sprintf("%#x", r.Base),
		Verdict:     r.Verdict.String(),
		Successes:   r.Successes,
		Comparisons: r.Comparisons,
		Mismatched:  r.MismatchedComponents(),
		Reason:      r.Reason(),
		Timing: timingJSON{
			SearcherMS: ms(r.Timing.Searcher),
			ParserMS:   ms(r.Timing.Parser),
			CheckerMS:  ms(r.Timing.Checker),
			TotalMS:    ms(r.Timing.Total()),
			ElapsedMS:  ms(r.Elapsed),
		},
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
		out.ErrorClass = r.ErrClass.String()
	}
	for _, p := range r.Pairs {
		pj := pairJSON{Peer: p.PeerVM, Match: p.Match, Mismatched: p.MismatchedComponents}
		if p.Err != nil {
			pj.Error = p.Err.Error()
			pj.ErrorClass = p.ErrClass.String()
		}
		out.Pairs = append(out.Pairs, pj)
	}
	return out
}

// WriteModuleJSON emits one module report as indented JSON.
//
//moddet:sink report JSON must be byte-identical across runs
func WriteModuleJSON(w io.Writer, r *core.ModuleReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(moduleToJSON(r))
}

// poolJSON is the stable JSON shape for a pool sweep.
type poolJSON struct {
	Module       string       `json:"module"`
	Flagged      []string     `json:"flagged,omitempty"`
	Inconclusive []string     `json:"inconclusive,omitempty"`
	Errored      []string     `json:"errored,omitempty"`
	Healthy      int          `json:"healthy"`
	VMs          []moduleJSON `json:"vms"`
	Timing       timingJSON   `json:"timing"`
}

// WritePoolJSON emits a pool report as indented JSON.
//
//moddet:sink report JSON must be byte-identical across runs
func WritePoolJSON(w io.Writer, r *core.PoolReport) error {
	out := poolJSON{
		Module:       r.ModuleName,
		Flagged:      r.Flagged,
		Inconclusive: r.Inconclusive,
		Errored:      r.Errored,
		Healthy:      r.Healthy,
		Timing: timingJSON{
			SearcherMS: ms(r.Timing.Searcher),
			ParserMS:   ms(r.Timing.Parser),
			CheckerMS:  ms(r.Timing.Checker),
			TotalMS:    ms(r.Timing.Total()),
			ElapsedMS:  ms(r.Elapsed),
		},
	}
	for i := range r.Len() {
		out.VMs = append(out.VMs, moduleToJSON(r.At(i)))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteModuleText renders a module report as aligned operator-facing text.
//
//moddet:sink report text must be byte-identical across runs
func WriteModuleText(w io.Writer, r *core.ModuleReport, verbose bool) error {
	fmt.Fprintf(w, "%s on %s (base %#x): %s (%d/%d peers agree)\n",
		r.ModuleName, r.TargetVM, r.Base, r.Verdict, r.Successes, r.Comparisons)
	if reason := r.Reason(); reason != "" {
		fmt.Fprintf(w, "reason: %s\n", reason)
	}
	fmt.Fprintf(w, "timing: searcher=%v parser=%v checker=%v elapsed=%v\n",
		r.Timing.Searcher.Round(time.Microsecond), r.Timing.Parser.Round(time.Microsecond),
		r.Timing.Checker.Round(time.Microsecond), r.Elapsed.Round(time.Microsecond))
	if mm := r.MismatchedComponents(); len(mm) > 0 {
		fmt.Fprintf(w, "mismatched components: %s\n", strings.Join(mm, ", "))
	}
	if verbose {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "PEER\tRESULT")
		for _, p := range r.Pairs {
			switch {
			case p.Err != nil:
				fmt.Fprintf(tw, "%s\terror: %v\n", p.PeerVM, p.Err)
			case p.Match:
				fmt.Fprintf(tw, "%s\tmatch\n", p.PeerVM)
			default:
				fmt.Fprintf(tw, "%s\tMISMATCH: %s\n", p.PeerVM, strings.Join(p.MismatchedComponents, ", "))
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WritePoolText renders a pool report as aligned operator-facing text.
//
//moddet:sink report text must be byte-identical across runs
func WritePoolText(w io.Writer, r *core.PoolReport, verbose bool) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "VM\tBASE\tVERDICT\tAGREEMENT\tDETAIL")
	for i := range r.Len() {
		vr := r.At(i)
		detail := strings.Join(vr.MismatchedComponents(), ", ")
		if detail == "" {
			detail = vr.Reason()
		}
		fmt.Fprintf(tw, "%s\t%#x\t%s\t%d/%d\t%s\n",
			vr.TargetVM, vr.Base, vr.Verdict, vr.Successes, vr.Comparisons, detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(r.Flagged) > 0 {
		fmt.Fprintf(w, "FLAGGED: %s\n", strings.Join(r.Flagged, ", "))
	}
	if len(r.Inconclusive) > 0 {
		fmt.Fprintf(w, "INCONCLUSIVE: %s\n", strings.Join(r.Inconclusive, ", "))
	}
	if len(r.Errored) > 0 {
		fmt.Fprintf(w, "ERRORED: %s\n", strings.Join(r.Errored, ", "))
	}
	if verbose {
		fmt.Fprintf(w, "healthy: %d/%d VMs\n", r.Healthy, r.Len())
		fmt.Fprintf(w, "timing: searcher=%v parser=%v checker=%v elapsed=%v\n",
			r.Timing.Searcher.Round(time.Microsecond), r.Timing.Parser.Round(time.Microsecond),
			r.Timing.Checker.Round(time.Microsecond), r.Elapsed.Round(time.Microsecond))
	}
	return nil
}
