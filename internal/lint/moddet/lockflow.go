package moddet

import (
	"fmt"
	"go/ast"
	"go/token"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The lockflow pass is modlint's one guarded-field rule: a field is guarded
// exactly when it carries a "// guarded by <mu>" annotation, and the pass
// checks those annotations across function boundaries. Real code factors
// the locked region into unexported helpers that rely on the caller
// holding the mutex, and whether that contract holds is a whole-program
// question. Here a function that touches an annotated field without
// acquiring the mutex itself is acceptable only when every call chain that
// can reach it (over the conservative call graph) passes through a function
// that does acquire it; exported lock-free accessors are always findings,
// since external callers are invisible.
//
// Accesses through values created inside the same function (a constructor
// filling in a struct before it escapes) are exempt: state is caller-private
// until it is shared.

// lockFlow checks every guarded field against every module function.
func lockFlow(g *modgraph.Graph, guards []*guardedField) []lint.Finding {
	var out []lint.Finding
	for _, gf := range guards {
		out = append(out, checkGuard(g, gf)...)
	}
	return out
}

// accessInfo is one function's relationship to one guarded field.
type accessInfo struct {
	node     *modgraph.FuncNode
	firstUse token.Pos // first unlocked access site
	acquires bool
}

func checkGuard(g *modgraph.Graph, gf *guardedField) []lint.Finding {
	m := g.Mod

	// Classify every function: does it touch the field, does it acquire the
	// mutex? Acquisition anywhere in the body counts (releasetrack's
	// built-in lock obligations police release paths).
	acquires := make(map[*modgraph.FuncNode]bool)
	var accessors []*accessInfo
	for _, n := range g.Funcs {
		info := scanGuardUse(m, n, gf)
		acquires[n] = info.acquires
		if info.firstUse.IsValid() && !info.acquires {
			accessors = append(accessors, info)
		}
	}
	if len(accessors) == 0 {
		return nil
	}

	// protected(n): every call chain reaching n goes through an acquirer.
	const (
		unknown = iota
		computing
		yes
		no
	)
	state := make(map[*modgraph.FuncNode]int)
	var protected func(n *modgraph.FuncNode) bool
	protected = func(n *modgraph.FuncNode) bool {
		switch state[n] {
		case yes:
			return true
		case no, computing: // cycles resolve conservatively to "not protected"
			return false
		}
		state[n] = computing
		ok := false
		switch {
		case acquires[n]:
			ok = true
		case ast.IsExported(n.Obj.Name()):
			ok = false // externally callable without the lock
		default:
			callers := g.Callers[n.Obj]
			ok = len(callers) > 0
			for _, c := range callers {
				if !protected(c) {
					ok = false
					break
				}
			}
		}
		if ok {
			state[n] = yes
		} else {
			state[n] = no
		}
		return ok
	}

	var out []lint.Finding
	for _, a := range accessors {
		n := a.node
		if protectedCallers(g, n, acquires, protected) {
			continue
		}
		field := gf.structName + "." + gf.field.Name()
		var why string
		switch {
		case ast.IsExported(n.Obj.Name()):
			why = "exported functions must acquire it themselves"
		case len(g.Callers[n.Obj]) == 0:
			why = "and no module caller acquires it on its behalf"
		default:
			why = fmt.Sprintf("and caller %s can reach it without the lock",
				modgraph.ShortFuncName(m.Path, witnessUnprotected(g, n, protected).Obj))
		}
		out = append(out, lint.Finding{
			Pos:  n.Pkg.Fset.Position(a.firstUse),
			Rule: "lockflow",
			Msg: fmt.Sprintf("%s touches %s (// guarded by %s) without holding %s; %s",
				modgraph.ShortFuncName(m.Path, n.Obj), field, gf.mutexName, gf.mutexName, why),
		})
	}
	return out
}

// protectedCallers reports whether every caller chain into n holds the lock.
func protectedCallers(g *modgraph.Graph, n *modgraph.FuncNode, acquires map[*modgraph.FuncNode]bool, protected func(*modgraph.FuncNode) bool) bool {
	if ast.IsExported(n.Obj.Name()) {
		return false
	}
	callers := g.Callers[n.Obj]
	if len(callers) == 0 {
		return false
	}
	for _, c := range callers {
		if !protected(c) {
			return false
		}
	}
	return true
}

// witnessUnprotected picks the first caller that fails the protected check,
// for the diagnostic.
func witnessUnprotected(g *modgraph.Graph, n *modgraph.FuncNode, protected func(*modgraph.FuncNode) bool) *modgraph.FuncNode {
	for _, c := range g.Callers[n.Obj] {
		if !protected(c) {
			return c
		}
	}
	return n
}

// scanGuardUse inspects one function body for accesses to the guarded field
// and acquisitions of its mutex.
func scanGuardUse(m *modgraph.Module, n *modgraph.FuncNode, gf *guardedField) *accessInfo {
	info := &accessInfo{node: n}
	fd := n.Decl
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			// <expr>.<mu>.Lock() / RLock(): the selector under the method
			// must resolve to the annotated mutex field.
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
				return true
			}
			inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if ok && m.SelectsField(inner, gf.mutex) {
				info.acquires = true
			}
		case *ast.SelectorExpr:
			if !m.SelectsField(node, gf.field) {
				return true
			}
			if modgraph.LocalTo(m, node.X, fd) {
				return true // caller-private value under construction
			}
			if !info.firstUse.IsValid() {
				info.firstUse = node.Pos()
			}
		}
		return true
	})
	return info
}
