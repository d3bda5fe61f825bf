// Package modsafe is modlint's whole-program soundness auditor — the
// sibling of moddet on the shared internal/lint/modgraph substrate. Where
// moddet protects the determinism guarantee, modsafe protects three
// liveness/accounting contracts that only hold (or break) across function
// boundaries:
//
//   - lockorder: the global lock-acquisition graph, built from explicit
//     Lock/RLock sites with held-lock sets propagated through calls, must be
//     acyclic — a cycle is an ABBA deadlock waiting for the right
//     interleaving, and a self-edge is a guaranteed self-deadlock.
//   - releasetrack: every Lock/RLock on a sync mutex (a built-in
//     obligation, no annotation needed) and every resource declared with
//     //modsafe:acquires <kind> / //modsafe:releases <kind> annotation pairs
//     (sweep sessions, mapped guest windows, paused domains, tracer spans)
//     must be released on every path out of the acquiring function, error
//     returns and panics included.
//   - chargeflow: every function reachable from a //modsafe:charged entry
//     point that performs physical work (//modsafe:spends) must charge the
//     simulated clock (//modsafe:charges) on the way — unpaid guest reads
//     silently corrupt the slowdown model.
//
// Findings are suppressed like every modlint rule with
// //modlint:ignore <rule> <reason>; a directive on an acquisition site, an
// acquire call, or a charged root disables just that fact without leaking
// into the other analyzers. Malformed //modsafe: annotations are findings
// under the "modsafe" rule. See docs/static-analysis.md for the full model.
package modsafe

import (
	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// Pass is the modsafe pass library, run by modgraph.Suite.
var Pass = modgraph.Pass{
	Name:  "modsafe",
	Doc:   "whole-program soundness audit: lock acquisition order must be acyclic; locks and //modsafe:acquires resources must be released on every path; //modsafe:charged work must charge the simulated clock",
	Rules: []string{"lockorder", "releasetrack", "chargeflow", "modsafe"},
	Run:   run,
}

func run(g *modgraph.Graph, sup lint.SuppressionSet) []lint.Finding {
	ann, out := collectDirectives(g.Mod)
	out = append(out, lockOrder(g, sup)...)
	out = append(out, releaseTrack(g.Mod, ann, sup)...)
	out = append(out, chargeFlow(g, ann, sup)...)
	return out
}
