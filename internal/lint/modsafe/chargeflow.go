package modsafe

import (
	"fmt"
	"go/token"
	"strings"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The chargeflow pass checks the simulated-cost accounting contract: every
// function transitively reachable from a //modsafe:charged entry point that
// performs physical work (a //modsafe:spends primitive — guest reads, page
// walks, TLB fills) must charge the simulated clock (//modsafe:charges) on
// the way. Unpaid work silently skews the slowdown model the cloudsim
// trajectory and every benchmark number are built on, and nothing crashes:
// the sweep still returns correct verdicts, just with a clock that lies.
//
// The model is deliberately coarse so it stays decidable and quiet:
//
//   - a function that directly calls a charges hook anywhere in its body
//     (function literals included — the call graph attributes those to the
//     enclosing declaration) is *charging*, and its entire subtree is
//     considered paid for: the hook sits next to the work by construction in
//     this codebase (fetchAndParse, ClusterPool, ChargeDom0 wrappers);
//   - spends primitives are the work boundary and are not descended into —
//     the point is that cost must be accounted at or above them;
//   - the pass BFSes from each charged root through uncharging module
//     functions; reaching a direct call to a spends primitive is a finding,
//     anchored at that call site with the root and one shortest call path.
//
// A //modlint:ignore chargeflow directive on the //modsafe:charged line
// disables that root; on the spends call site it suppresses the finding.

// chargeFlow runs one BFS per charged root.
func chargeFlow(g *modgraph.Graph, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
	if len(ann.charged) == 0 || len(ann.spends) == 0 {
		return nil
	}
	m := g.Mod

	// isCharging: the function directly invokes a charges hook.
	isCharging := func(n *modgraph.FuncNode) bool {
		for _, e := range n.Callees {
			if ann.charges[e.Callee] {
				return true
			}
		}
		return false
	}

	var out []lint.Finding
	seen := make(map[token.Pos]bool) // one finding per spends call site
	for _, rootDir := range ann.charged {
		rootPos := rootDir.Pkg.Fset.Position(rootDir.Pos)
		if sup.Suppressed(rootPos.Filename, rootPos.Line, "chargeflow") {
			continue
		}
		start, ok := g.Node[rootDir.Fn]
		if !ok {
			continue
		}
		rootName := modgraph.ShortFuncName(m.Path, rootDir.Fn)

		parent := map[*modgraph.FuncNode]*modgraph.FuncNode{start: nil}
		queue := []*modgraph.FuncNode{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if isCharging(n) {
				continue // the subtree below a charging function is paid for
			}
			for _, e := range n.Callees {
				if ann.spends[e.Callee] {
					if seen[e.Pos] {
						continue
					}
					seen[e.Pos] = true
					out = append(out, lint.Finding{
						Pos:  n.Pkg.Fset.Position(e.Pos),
						Rule: "chargeflow",
						Msg: fmt.Sprintf("%s performs physical work via %s without charging the simulated clock, reached from //modsafe:charged root %s (call path: %s)",
							modgraph.ShortFuncName(m.Path, n.Obj),
							modgraph.ShortFuncName(m.Path, e.Callee),
							rootName,
							strings.Join(renderChain(g, parent, n), " -> ")),
					})
					continue
				}
				cn, ok := g.Node[e.Callee]
				if !ok {
					continue
				}
				if _, visited := parent[cn]; visited {
					continue
				}
				parent[cn] = n
				queue = append(queue, cn)
			}
		}
	}
	return out
}

// renderChain walks the BFS parent chain back to the root and renders the
// root→n call path.
func renderChain(g *modgraph.Graph, parent map[*modgraph.FuncNode]*modgraph.FuncNode, n *modgraph.FuncNode) []string {
	var rev []string
	for cur := n; cur != nil; cur = parent[cur] {
		rev = append(rev, modgraph.ShortFuncName(g.Mod.Path, cur.Obj))
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}
