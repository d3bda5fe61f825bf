package moddet

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The taint pass is the interprocedural heart of moddet: impurity seeded at
// nondeterminism roots (host clock reads, the global random source, the
// process environment, multi-way selects, unsorted map-order escapes) is
// propagated backwards along the conservative call graph, and any
// //moddet:sink function that can transitively reach a root is reported.
// Findings anchor at the *root* site — that is where the fix (or the
// //modlint:ignore moddet directive) belongs — and name every poisoned
// sink plus one shortest call path, so the report reads as "this call
// breaks byte-identical exports, reached from these entry points".

// taintFinding aggregates, for one root site, every sink that reaches it.
type taintFinding struct {
	pos   token.Position
	desc  string
	sinks []string // sorted sink names
	path  []string // one shortest sink→root call chain, rendered names
}

// taintFindings runs one BFS per sink over the call graph and merges the
// results per root site.
func taintFindings(g *modgraph.Graph, sinks []*modgraph.Directive, roots map[*modgraph.FuncNode][]root, mapRoots map[*types.Func][]root) []lint.Finding {
	byPos := make(map[token.Position]*taintFinding)
	var order []token.Position

	rootsOf := func(n *modgraph.FuncNode) []root {
		if extra, ok := mapRoots[n.Obj]; ok {
			return append(append([]root(nil), roots[n]...), extra...)
		}
		return roots[n]
	}

	for _, s := range sinks {
		start, ok := g.Node[s.Fn]
		if !ok {
			continue
		}
		// BFS from the sink along callee edges; parent pointers give the
		// shortest call chain to every reached function.
		parent := map[*modgraph.FuncNode]*modgraph.FuncNode{start: nil}
		queue := []*modgraph.FuncNode{start}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, r := range rootsOf(n) {
				pos := n.Pkg.Fset.Position(r.pos)
				tf, seen := byPos[pos]
				if !seen {
					tf = &taintFinding{pos: pos, desc: r.desc, path: renderPath(g, parent, n)}
					byPos[pos] = tf
					order = append(order, pos)
				}
				name := modgraph.ShortFuncName(g.Mod.Path, s.Fn)
				if !containsString(tf.sinks, name) {
					tf.sinks = append(tf.sinks, name)
				}
			}
			for _, e := range n.Callees {
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

	var out []lint.Finding
	for _, pos := range order {
		tf := byPos[pos]
		sort.Strings(tf.sinks)
		msg := fmt.Sprintf("%s poisons determinism sink %s", tf.desc, strings.Join(tf.sinks, ", "))
		if len(tf.path) > 1 {
			msg += fmt.Sprintf(" (call path: %s)", strings.Join(tf.path, " -> "))
		}
		out = append(out, lint.Finding{Pos: pos, Rule: "moddet", Msg: msg})
	}
	return out
}

// renderPath walks the BFS parent chain from n back to the sink and renders
// the sink→n call chain.
func renderPath(g *modgraph.Graph, parent map[*modgraph.FuncNode]*modgraph.FuncNode, n *modgraph.FuncNode) []string {
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

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
