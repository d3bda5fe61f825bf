package modsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The releasetrack pass is a must-release check over the
// //modsafe:acquires / //modsafe:releases annotation pairs and the sync
// locks, a set of rules on the shared obligation walker (modgraph.Walker),
// which owns paths, branches, loops, exits and function literals. Its path
// state is the list of live obligations:
//
//   - creation: an acquires call creates an obligation keyed by the
//     destination expression it is assigned to, or by the receiver when
//     the callee's results are all errors (Domain.Pause); an error result
//     assigned alongside makes it conditional, and the failure arm of
//     `if err != nil` drops it — a failed constructor returns nothing to
//     release. Lock on a sync.Mutex or sync.RWMutex owes an Unlock on the
//     same receiver, RLock an RUnlock, with no annotation. An acquire whose
//     result nothing holds is a finding at once;
//   - discharge: a releases call whose receiver or first argument has the
//     same key (or no key: conservative); `defer key.Close()`, or a
//     deferred closure calling it, discharges every later exit, panics
//     included. Returning the value, storing it into a field or element,
//     sending it, or capturing it in a go statement hands the release duty
//     to someone this pass cannot see — never for a lock. Passing it as a
//     plain argument is a borrow and discharges nothing;
//   - exit check: every live, undischarged obligation at a return, panic
//     or end of body leaks. Function literals, goroutine bodies included,
//     start with no obligations: each is checked as a function of its own.
//
// A function annotated //modsafe:acquires <kind> is exempt from obligations
// of that same kind: it is the constructor (or a transfer wrapper), and its
// contract is exactly that the *caller* releases. A //modlint:ignore
// releasetrack directive on the acquire site stops the obligation from
// being created at all.

// obligation is one live acquire awaiting its release.
type obligation struct {
	kind     string
	key      string // canonical expression holding the resource
	pos      token.Pos
	by       string // acquiring function, for the message
	errKey   string // error variable bound at the acquire site, "" if none
	viaDefer bool   // a defer discharges it on every later exit
	lock     bool   // built-in lock obligation: ownership never transfers
}

// lockMethods maps the sync.Mutex / sync.RWMutex methods to the built-in
// obligation kind they acquire or release.
var lockMethods = map[string]struct{ verb, kind string }{
	"Lock":    {"acquires", "lock"},
	"Unlock":  {"releases", "lock"},
	"RLock":   {"acquires", "read-lock"},
	"RUnlock": {"releases", "read-lock"},
}

// directive resolves a call to its directive under verb — annotated, or a
// built-in lock method of sync.Mutex or sync.RWMutex — nil if it has none
// or acquires a kind exempt in this function.
func (rt *releaseTracker) directive(call *ast.CallExpr, verb string) *modgraph.Directive {
	fn := rt.m.CalleeOf(call)
	if fn == nil {
		return nil
	}
	d := rt.ann.releases[fn]
	if verb == "acquires" {
		d = rt.ann.acquires[fn]
	}
	sig, _ := fn.Type().(*types.Signature)
	if lm, ok := lockMethods[fn.Name()]; d == nil && ok && lm.verb == verb && sig.Recv() != nil && isMutexType(sig.Recv().Type()) {
		d = &modgraph.Directive{Verb: verb, Kind: lm.kind, Fn: fn}
	}
	if d == nil || verb == "acquires" && d.Kind == rt.exemptKind {
		return nil
	}
	return d
}

// releaseTrack runs the pass over every function body in the module.
func releaseTrack(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
	rt := &releaseTracker{m: m, ann: ann, sup: sup}
	modgraph.Funcs(m, func(p *lint.Package, fd *ast.FuncDecl) {
		rt.w = &modgraph.Walker[[]obligation]{Mod: m, Decl: fd, Rules: rt}
		rt.pkg, rt.exemptKind, rt.flagged = p, "", make(map[token.Pos]bool)
		if fn, _ := m.Info.Defs[fd.Name].(*types.Func); fn != nil && ann.acquires[fn] != nil {
			rt.exemptKind = ann.acquires[fn].Kind
		}
		rt.w.Walk(nil)
	})
	return rt.out
}

// releaseTracker is releasetrack's rules for the shared walker.
type releaseTracker struct {
	m          *modgraph.Module
	ann        *annotations
	sup        lint.SuppressionSet
	w          *modgraph.Walker[[]obligation]
	pkg        *lint.Package
	exemptKind string
	flagged    map[token.Pos]bool // one finding per acquire site
	out        []lint.Finding
}

func (rt *releaseTracker) Clone(obls []obligation) []obligation { return slices.Clone(obls) }

// Join merges obligations from two paths: live on either means live, and
// a defer on both arms is needed for the defer to count.
func (rt *releaseTracker) Join(a, b []obligation) []obligation {
	out := rt.Clone(a)
	index := make(map[token.Pos]int, len(out))
	for i, o := range out {
		index[o.pos] = i
	}
	for _, o := range b {
		if i, ok := index[o.pos]; !ok {
			out = append(out, o)
		} else if !o.viaDefer {
			out[i].viaDefer = false
		}
	}
	return out
}

func (rt *releaseTracker) Stmt(st ast.Stmt, obls []obligation) []obligation {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return rt.assign(st, obls)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if !ok {
			rt.walkLits(st.X)
			return obls
		}
		obls = rt.release(call, obls)
		if d := rt.directive(call, "acquires"); d != nil {
			return rt.acquire(d, call, nil, true, obls)
		}
		rt.walkLits(call)
	case *ast.DeferStmt:
		rt.deferRelease(st, obls)
	case *ast.GoStmt:
		rt.walkLits(st.Call)
		return rt.dischargeMentioned(obls, st.Call)
	case *ast.SendStmt:
		return rt.dischargeMentioned(obls, st.Value)
	}
	return obls
}

func (rt *releaseTracker) Expr(e ast.Expr, _ []obligation) { rt.walkLits(e) }

// Branch applies the err-check idiom: the failure arm of `if err != nil`
// (or the else of `if err == nil`) drops the obligations conditional on
// err, and the other arm makes them unconditional.
func (rt *releaseTracker) Branch(cond ast.Expr, obls []obligation) (then, els []obligation) {
	errKey, isNil, ok := errCheck(cond)
	if !ok {
		return rt.Clone(obls), rt.Clone(obls)
	}
	return onErr(obls, errKey, !isNil), onErr(obls, errKey, isNil)
}

// Exit flags every live, undischarged obligation, unless the exit
// transfers ownership by returning the resource.
func (rt *releaseTracker) Exit(obls []obligation, at token.Pos, ret *ast.ReturnStmt) {
	for _, o := range obls {
		if o.viaDefer || rt.flagged[o.pos] || ret != nil && !o.lock && mentions(ret, baseOf(o.key)) {
			continue
		}
		rt.flagged[o.pos] = true
		rt.out = append(rt.out, lint.Finding{
			Pos:  rt.pkg.Fset.Position(o.pos),
			Rule: "releasetrack",
			Msg: fmt.Sprintf("%s %q acquired from %s escapes unreleased on the path exiting at line %d; release it or defer the release",
				o.kind, o.key, o.by, rt.pkg.Fset.Position(at).Line),
		})
	}
}

// assign creates obligations from acquires calls on the right and
// discharges on release calls and on stores into a field or element.
func (rt *releaseTracker) assign(st *ast.AssignStmt, obls []obligation) []obligation {
	for _, rhs := range st.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			rt.walkLits(rhs)
			continue
		}
		obls = rt.release(call, obls)
		if d := rt.directive(call, "acquires"); d != nil && len(st.Rhs) == 1 {
			obls = rt.acquire(d, call, st.Lhs, true, obls)
		} else if d != nil {
			obls = rt.acquire(d, call, nil, false, obls)
		}
	}
	for i, lhs := range st.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			if i < len(st.Rhs) {
				obls = rt.dischargeMentioned(obls, st.Rhs[i])
			} else if len(st.Rhs) == 1 {
				obls = rt.dischargeMentioned(obls, st.Rhs[0])
			}
		}
	}
	return obls
}

// acquire creates the obligation of d's call, keyed by its first
// non-error, non-blank destination in lhs or, when nothing the callee
// returns can hold the resource, by the receiver (d.Pause(),
// err := g.Engage()). held reports that lhs is every destination of the
// result: an acquire that reaches no key then is discarded.
func (rt *releaseTracker) acquire(d *modgraph.Directive, call *ast.CallExpr, lhs []ast.Expr, held bool, obls []obligation) []obligation {
	key, errKey := "", ""
	for _, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		switch {
		case ok && id.Name == "_":
			// A blank destination holds nothing: neither the resource nor
			// the error that conditions it.
		case ok && isErrorIdent(rt.m, id):
			errKey = id.Name
		case key == "":
			key = exprKey(l)
		}
	}
	if key == "" {
		if rkey, ok := receiverResourceKey(d, call); ok {
			key = rkey
		} else if held {
			if pos := rt.pkg.Fset.Position(call.Pos()); !rt.sup.Suppressed(pos.Filename, pos.Line, "releasetrack") {
				rt.out = append(rt.out, lint.Finding{
					Pos:  pos,
					Rule: "releasetrack",
					Msg: fmt.Sprintf("%s from %s is discarded; the %s it acquires can never be released",
						d.Kind, modgraph.ShortFuncName(rt.m.Path, d.Fn), d.Kind),
				})
			}
		}
	}
	if pos := rt.pkg.Fset.Position(call.Pos()); key == "" || rt.sup.Suppressed(pos.Filename, pos.Line, "releasetrack") {
		return obls
	}
	return append(obls, obligation{
		kind:   d.Kind,
		key:    key,
		pos:    call.Pos(),
		by:     modgraph.ShortFuncName(rt.m.Path, d.Fn),
		errKey: errKey,
		lock:   d.Decl == nil, // built-in: no module declaration
	})
}

// deferRelease marks the obligations a deferred release discharges —
// directly (defer s.Close()) or inside a deferred closure.
func (rt *releaseTracker) deferRelease(st *ast.DeferStmt, obls []obligation) {
	mark := func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if rd, key := rt.releaseTarget(call); rd != nil {
				for i, o := range obls {
					if o.kind == rd.Kind && (o.key == key || key == "") {
						obls[i].viaDefer = true
					}
				}
			}
		}
		return true
	}
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, mark)
	} else {
		mark(st.Call)
	}
}

// release discharges the obligations a releases call matches.
func (rt *releaseTracker) release(call *ast.CallExpr, obls []obligation) []obligation {
	rd, key := rt.releaseTarget(call)
	if rd == nil {
		return obls
	}
	var kept []obligation
	for _, o := range obls {
		if o.kind != rd.Kind || o.key != key && key != "" {
			kept = append(kept, o)
		}
	}
	return kept
}

// releaseTarget resolves a call to a releases directive and the canonical
// key of the value being released ("" when the expression is too complex to
// key, which matches any obligation of the kind — conservative).
func (rt *releaseTracker) releaseTarget(call *ast.CallExpr) (*modgraph.Directive, string) {
	rd := rt.directive(call, "releases")
	if rd == nil {
		return nil, ""
	}
	if sig, _ := rt.m.CalleeOf(call).Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return rd, exprKey(sel.X)
		}
		return rd, ""
	}
	if len(call.Args) > 0 {
		return rd, exprKey(call.Args[0])
	}
	return rd, ""
}

// receiverResourceKey reports whether the acquiring callee's shape makes
// the receiver itself the resource — a method with no results, or whose
// results are all `error` (the fallible Pause() error shape): nothing the
// call returns can hold the resource, so the receiver does. The returned
// key canonicalizes the receiver expression ("" when it is too complex).
func receiverResourceKey(d *modgraph.Directive, call *ast.CallExpr) (string, bool) {
	sig, _ := d.Fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i).Type().String() != "error" {
			return "", false
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return exprKey(sel.X), true
}

// dischargeMentioned drops obligations whose base identifier appears in e —
// ownership has been handed somewhere this pass cannot follow.
func (rt *releaseTracker) dischargeMentioned(obls []obligation, e ast.Expr) []obligation {
	var kept []obligation
	for _, o := range obls {
		if o.lock || !mentions(e, baseOf(o.key)) {
			kept = append(kept, o)
		}
	}
	return kept
}

// walkLits checks the function literals in an expression as functions of
// their own: each starts with no obligations.
func (rt *releaseTracker) walkLits(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if ok {
			rt.w.Lit(lit, nil)
		}
		return !ok
	})
}

// errCheck matches `x != nil` / `x == nil` (either operand order) over a
// plain identifier and returns the identifier name and whether it is ==.
func errCheck(cond ast.Expr) (errKey string, isNil bool, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || be.Op != token.NEQ && be.Op != token.EQL {
		return "", false, false
	}
	x, xok := ast.Unparen(be.X).(*ast.Ident)
	y, yok := ast.Unparen(be.Y).(*ast.Ident)
	if xok && yok && x.Name == "nil" {
		x, y = y, x
	}
	if !xok || !yok || y.Name != "nil" {
		return "", false, false
	}
	return x.Name, be.Op == token.EQL, true
}

// onErr returns the obligations on one arm of an err-check: the failure
// arm drops those conditional on errKey, the success arm has established
// that the acquire happened and makes them unconditional.
func onErr(obls []obligation, errKey string, failed bool) []obligation {
	var out []obligation
	for _, o := range obls {
		if o.errKey == errKey {
			if failed {
				continue
			}
			o.errKey = ""
		}
		out = append(out, o)
	}
	return out
}

// isErrorIdent reports whether the identifier's type is the error interface.
func isErrorIdent(m *modgraph.Module, id *ast.Ident) bool {
	obj := m.ObjOf(id)
	if obj == nil || obj.Type() == nil {
		return id.Name == "err" // unresolved: fall back to the idiom
	}
	return obj.Type().String() == "error"
}

// mentions reports whether the tree under n contains an identifier with
// the given name ("" never matches).
func mentions(n ast.Node, name string) bool {
	found := false
	if name != "" {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}

// baseOf extracts the leading identifier of an expression key.
func baseOf(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' || key[i] == '[' {
			return key[:i]
		}
	}
	return key
}

// exprKey renders a restricted expression to a canonical comparison string;
// "" outside the supported subset (idents, selectors, parens, & and *,
// constant indexes).
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprKey(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.IndexExpr:
		if lit, ok := e.Index.(*ast.BasicLit); ok && exprKey(e.X) != "" {
			return exprKey(e.X) + "[" + lit.Value + "]"
		}
	}
	return ""
}
