// Package moddet is modlint's whole-program determinism auditor. The
// reproduction's headline guarantee — byte-identical sweeps, traces and
// reports from one seed — is a *global* property: a time.Now three calls
// below a report writer breaks it just as surely as one inside. The
// per-package rules in internal/lint cannot see across call boundaries, so
// moddet runs on the shared whole-program substrate (internal/lint/modgraph:
// a conservative call graph over every package in the module, go/ast +
// go/types only, no x/tools) and checks three things:
//
//   - moddet: impurity taint seeded at nondeterminism roots — host-clock
//     reads outside hosttime.go, package-level math/rand, os.Getenv and
//     friends, multi-way selects, and unsorted map-order escapes — must not
//     be reachable from any function annotated //moddet:sink (the trace and
//     metrics exporters, the report writers, the pipeline digest/cluster
//     stages, the scanner sweep loop).
//   - maporder: map-range iteration order must not escape into slices,
//     writers, digests or channels without an intervening sort (reported at
//     the site whether or not a sink reaches it).
//   - lockflow: the one guarded-field rule — "// guarded by <mu>" field
//     annotations hold across function boundaries; a lock-free accessor is
//     fine only while every call chain into it acquires the mutex first.
//
// Findings are suppressed like every modlint rule, with
// //modlint:ignore <rule> <reason>; suppressing a maporder site also stops
// it from seeding taint, so an annotated site never resurfaces through the
// sink report. See docs/static-analysis.md for the full model.
package moddet

import (
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// Pass is the moddet pass library, run by modgraph.Suite.
var Pass = modgraph.Pass{
	Name:  "moddet",
	Doc:   "whole-program determinism audit: nondeterminism roots must not reach //moddet:sink functions; map order must not escape unsorted; // guarded by holds across calls",
	Rules: []string{"moddet", "maporder", "lockflow"},
	Run:   run,
}

// run collects the annotations and runs the three passes. Whatever the
// type-checker could not resolve is simply not analyzed.
func run(g *modgraph.Graph, sup lint.SuppressionSet) []lint.Finding {
	m := g.Mod
	sinks, out := collectSinks(m)
	guards, bad := collectGuards(m)
	out = append(out, bad...)
	roots := collectRoots(g)

	// maporder: report every site, and seed taint from the unsuppressed
	// ones (a deliberately annotated site must not resurface via a sink).
	mapRoots := make(map[*types.Func][]root)
	for _, s := range mapOrder(m) {
		pos := s.pkg.Fset.Position(s.pos)
		out = append(out, lint.Finding{Pos: pos, Rule: "maporder", Msg: s.msg})
		if sup.Suppressed(pos.Filename, pos.Line, "maporder") || s.fn == nil {
			continue
		}
		mapRoots[s.fn] = append(mapRoots[s.fn], root{pos: s.pos, desc: "map iteration order escape"})
	}

	out = append(out, taintFindings(g, sinks, roots, mapRoots)...)
	out = append(out, lockFlow(g, guards)...)
	return out
}
