// Package modown is modlint's whole-program ownership auditor — the third
// sibling on the internal/lint/modgraph substrate, after moddet
// (determinism) and modsafe (soundness). The PR 8/9 hot path leans on
// recycled buffer pools, lock-free atomic state, and zero-copy CoW
// windows; each buys performance by sharing memory, and each turns a
// missed hand-off into a silent integrity misverdict rather than a crash.
// modown checks the three disciplines statically:
//
//   - poolflow: values handed out by //modown:pool <kind> get accessors
//     (or raw sync.Pool.Get) are owned until recycled exactly once —
//     use-after-put, double-put, put-of-reslice, escapes into retained
//     structures, and never-recycled leaks are findings; ownership moves
//     only through //modown:transfer or a get-annotated return.
//   - atomicfield: a location accessed through function-style sync/atomic
//     anywhere must be accessed that way everywhere, and 64-bit atomic
//     fields must be 8-byte aligned under 32-bit layout.
//   - aliasfree: buffers from //modown:borrowed zero-copy producers must
//     not be mutated, appended to, recycled, or returned by functions
//     that hide the annotation.
//
// Findings are suppressed like every modlint rule with
// //modlint:ignore <rule> <reason>; suppression of a producer site stops
// its facts from propagating, but never discharges an obligation created
// elsewhere. Malformed //modown: annotations and one-sided pool kinds are
// findings under the "modown" rule. See docs/static-analysis.md.
package modown

import (
	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// Pass is the modown pass library, run by modgraph.Suite.
var Pass = modgraph.Pass{
	Name:  "modown",
	Doc:   "whole-program ownership audit: //modown:pool values recycled exactly once; sync/atomic locations accessed atomically everywhere; //modown:borrowed zero-copy buffers never mutated or recycled",
	Rules: []string{"poolflow", "atomicfield", "aliasfree", "modown"},
	Run:   run,
}

func run(g *modgraph.Graph, sup lint.SuppressionSet) []lint.Finding {
	ann, out := collectDirectives(g.Mod)
	out = append(out, poolFlow(g.Mod, ann, sup)...)
	out = append(out, atomicField(g.Mod, sup)...)
	out = append(out, aliasFree(g.Mod, ann, sup)...)
	return out
}
