package modsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// The releasetrack pass is a path-sensitive must-release check over the
// //modsafe:acquires / //modsafe:releases annotation pairs. Calling an
// acquires function creates an *obligation* on the value it returns (or on
// the receiver, for resultless methods like Domain.Pause): some release of
// the same kind on the same value must happen on every path out of the
// function, or the resource — a sweep session, a mapped guest window, a
// paused domain, a tracer span — leaks.
//
// The walker interprets the function body statement by statement:
//
//   - an assignment from an acquires call creates an obligation keyed by the
//     destination expression; an error result assigned alongside it makes
//     the obligation conditional — the `if err != nil` branch drops it,
//     because a failed constructor returns nothing to release;
//   - a matching releases call (receiver or first argument structurally
//     equal to the key) discharges; `defer key.Close()` discharges every
//     later path including panics, and deferred closures are scanned for
//     release calls too;
//   - ownership transfers discharge conservatively: returning the value,
//     storing it into a field or element, sending it on a channel, or
//     capturing it in a `go` closure all hand the release duty to someone
//     this pass cannot see;
//   - passing the value as a plain call argument is a *borrow* and does NOT
//     discharge — helpers use the resource, they don't own it;
//   - branches merge by union (an obligation live on either arm is still
//     live), loops run their body once, and each return / panic / end of
//     body checks every live undischarged obligation.
//
// A function annotated //modsafe:acquires <kind> is exempt from obligations
// of that same kind: it is the constructor (or a transfer wrapper), and its
// contract is exactly that the *caller* releases. A //modlint:ignore
// releasetrack directive on the acquire site stops the obligation from
// being created at all.
//
// Locks are built-in obligations that need no annotation, the way poolflow
// tracks raw sync.Pool traffic: Lock on a sync.Mutex or sync.RWMutex owes
// an Unlock on the same receiver, RLock owes an RUnlock. A lock is never
// handed off — returning, storing, sending or capturing the guarded value
// does not discharge it — and function literals, goroutine bodies
// included, are checked as functions of their own.

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

// builtinLock returns the built-in directive fn carries under verb, nil
// unless fn is one of the lockMethods of sync.Mutex or sync.RWMutex.
func builtinLock(fn *types.Func, verb string) *modgraph.Directive {
	lm, ok := lockMethods[fn.Name()]
	if !ok || lm.verb != verb {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return nil
	}
	return &modgraph.Directive{Verb: verb, Kind: lm.kind, Fn: fn}
}

// releaseTrack runs the pass over every function body in the module.
func releaseTrack(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
	var out []lint.Finding
	for _, p := range m.Pkgs {
		for _, sf := range p.Files {
			if sf.IsTest {
				continue
			}
			for _, d := range sf.AST.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				rt := &releaseTracker{m: m, ann: ann, sup: sup, pkg: p, fd: fd,
					flagged: make(map[token.Pos]bool)}
				fn, _ := m.Info.Defs[fd.Name].(*types.Func)
				if fn != nil {
					if d := ann.acquires[fn]; d != nil {
						rt.exemptKind = d.Kind
					}
				}
				rt.run()
				out = append(out, rt.out...)
			}
		}
	}
	return out
}

// releaseTracker walks one function body.
type releaseTracker struct {
	m          *modgraph.Module
	ann        *annotations
	sup        lint.SuppressionSet
	pkg        *lint.Package
	fd         *ast.FuncDecl
	exemptKind string
	flagged    map[token.Pos]bool // one finding per acquire site
	out        []lint.Finding
}

func (rt *releaseTracker) run() {
	final := rt.walkStmts(rt.fd.Body.List, nil)
	rt.checkExit(final.obls, rt.fd.Body.End(), nil)
}

// flowState is the walker state along one path prefix.
type flowState struct {
	obls         []obligation
	fallsThrough bool
}

func cloneObls(obls []obligation) []obligation {
	return append([]obligation(nil), obls...)
}

// walkStmts interprets a statement list starting from the given obligations
// and returns the state at its end.
func (rt *releaseTracker) walkStmts(stmts []ast.Stmt, obls []obligation) flowState {
	obls = cloneObls(obls)
	for _, st := range stmts {
		state := rt.walkStmt(st, obls)
		if !state.fallsThrough {
			return flowState{obls: state.obls, fallsThrough: false}
		}
		obls = state.obls
	}
	return flowState{obls: obls, fallsThrough: true}
}

func (rt *releaseTracker) walkStmt(st ast.Stmt, obls []obligation) flowState {
	through := func(o []obligation) flowState { return flowState{obls: o, fallsThrough: true} }
	switch st := st.(type) {
	case *ast.AssignStmt:
		return through(rt.handleAssign(st, obls))
	case *ast.DeclStmt:
		return through(rt.handleDecl(st, obls))
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if rt.isPanicCall(call) {
				rt.checkExit(obls, st.Pos(), nil)
				return flowState{obls: nil, fallsThrough: false}
			}
			return through(rt.handleCallStmt(call, obls))
		}
		rt.walkLits(st.X, obls)
		return through(obls)
	case *ast.DeferStmt:
		return through(rt.handleDefer(st, obls))
	case *ast.GoStmt:
		return through(rt.handleGo(st, obls))
	case *ast.ReturnStmt:
		rt.checkExit(obls, st.Pos(), st.Results)
		return flowState{obls: nil, fallsThrough: false}
	case *ast.SendStmt:
		// Sending the resource transfers ownership to the receiver side.
		return through(rt.dischargeMentioned(obls, st.Value))
	case *ast.IfStmt:
		return rt.walkIf(st, obls)
	case *ast.ForStmt:
		body := rt.walkStmts(st.Body.List, obls)
		return through(unionObls(obls, body.obls))
	case *ast.RangeStmt:
		body := rt.walkStmts(st.Body.List, obls)
		return through(unionObls(obls, body.obls))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return rt.walkSwitch(st, obls)
	case *ast.BlockStmt:
		return rt.walkStmts(st.List, obls)
	case *ast.LabeledStmt:
		return rt.walkStmt(st.Stmt, obls)
	}
	return through(obls)
}

// walkIf handles the if/else ladder, including the err-check idiom that
// voids conditional obligations on the failure arm.
func (rt *releaseTracker) walkIf(st *ast.IfStmt, obls []obligation) flowState {
	if st.Init != nil {
		init := rt.walkStmt(st.Init, obls)
		obls = init.obls
	}
	thenObls, elseObls := cloneObls(obls), cloneObls(obls)
	if errKey, isNil, ok := errCheck(st.Cond); ok {
		if isNil { // if err == nil { ...obligation holds... } else { ...void... }
			elseObls = dropErrObls(elseObls, errKey)
			thenObls = clearErrKey(thenObls, errKey)
		} else { // if err != nil { ...nothing was acquired... }
			thenObls = dropErrObls(thenObls, errKey)
			elseObls = clearErrKey(elseObls, errKey)
		}
	}
	thenState := rt.walkStmts(st.Body.List, thenObls)
	elseState := flowState{obls: elseObls, fallsThrough: true}
	if st.Else != nil {
		elseState = rt.walkStmt(st.Else, elseObls)
	}
	switch {
	case thenState.fallsThrough && elseState.fallsThrough:
		return flowState{obls: unionObls(thenState.obls, elseState.obls), fallsThrough: true}
	case thenState.fallsThrough:
		return flowState{obls: thenState.obls, fallsThrough: true}
	case elseState.fallsThrough:
		return flowState{obls: elseState.obls, fallsThrough: true}
	default:
		return flowState{obls: nil, fallsThrough: false}
	}
}

// walkSwitch merges the arms of switch / type switch / select by union.
func (rt *releaseTracker) walkSwitch(st ast.Stmt, obls []obligation) flowState {
	var body *ast.BlockStmt
	hasDefault := false
	switch st := st.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			obls = rt.walkStmt(st.Init, obls).obls
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			obls = rt.walkStmt(st.Init, obls).obls
		}
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	var surviving []obligation
	anyFallsThrough := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
			if cl.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cl.Body
			if cl.Comm == nil {
				hasDefault = true
			}
		}
		s := rt.walkStmts(stmts, obls)
		if s.fallsThrough {
			anyFallsThrough = true
			surviving = unionObls(surviving, s.obls)
		}
	}
	if !hasDefault || len(body.List) == 0 {
		// The zero-matching-case path skips every arm.
		surviving = unionObls(surviving, obls)
		anyFallsThrough = true
	}
	return flowState{obls: surviving, fallsThrough: anyFallsThrough}
}

// handleAssign creates obligations from acquires calls on the RHS and
// discharges on release calls and ownership-transferring stores.
func (rt *releaseTracker) handleAssign(st *ast.AssignStmt, obls []obligation) []obligation {
	// Single call RHS: the interesting shape (s, err := Acquire(...)).
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			obls = rt.handleReleaseCall(call, obls)
			if d := rt.acquireDirective(call); d != nil {
				obls = rt.createObligation(d, call, st, obls)
			}
		} else {
			rt.walkLits(st.Rhs[0], obls)
		}
	} else {
		for _, rhs := range st.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				obls = rt.handleReleaseCall(call, obls)
				if d := rt.acquireDirective(call); d != nil {
					obls = rt.createObligation(d, call, nil, obls)
				}
			} else {
				rt.walkLits(rhs, obls)
			}
		}
	}
	// Storing the resource into a field or element transfers ownership.
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

// handleDecl treats `var s = Acquire(...)` like the assignment form.
func (rt *releaseTracker) handleDecl(st *ast.DeclStmt, obls []obligation) []obligation {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return obls
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, val := range vs.Values {
			call, ok := ast.Unparen(val).(*ast.CallExpr)
			if !ok {
				rt.walkLits(val, obls)
				continue
			}
			obls = rt.handleReleaseCall(call, obls)
			d := rt.acquireDirective(call)
			if d == nil {
				continue
			}
			if len(vs.Names) > 0 {
				obls = rt.addObligation(obls, d, call, vs.Names[0].Name, "")
			}
		}
	}
	return obls
}

// handleCallStmt processes a bare call statement: releases discharge, a
// receiver-resource acquires method creates a receiver obligation, and a
// discarded-result acquire is an immediate leak.
func (rt *releaseTracker) handleCallStmt(call *ast.CallExpr, obls []obligation) []obligation {
	obls = rt.handleReleaseCall(call, obls)
	d := rt.acquireDirective(call)
	if d == nil {
		rt.walkLits(call, obls)
		return obls
	}
	if key, ok := receiverResourceKey(d, call); ok {
		// Receiver-resource acquire (d.Pause()): the obligation lands on the
		// receiver whether or not the caller looks at the error result.
		if key != "" {
			return rt.addObligation(obls, d, call, key, "")
		}
		return obls
	}
	// The result is dropped on the floor: nothing can ever release it.
	pos := rt.pkg.Fset.Position(call.Pos())
	if !rt.sup.Suppressed(pos.Filename, pos.Line, "releasetrack") && d.Kind != rt.exemptKind {
		rt.out = append(rt.out, lint.Finding{
			Pos:  pos,
			Rule: "releasetrack",
			Msg: fmt.Sprintf("%s from %s is discarded; the %s it acquires can never be released",
				d.Kind, modgraph.ShortFuncName(rt.m.Path, d.Fn), d.Kind),
		})
	}
	return obls
}

// handleDefer discharges obligations whose release is deferred — directly
// (defer s.Close()) or inside a deferred closure.
func (rt *releaseTracker) handleDefer(st *ast.DeferStmt, obls []obligation) []obligation {
	markDeferred := func(call *ast.CallExpr) {
		if rd, key := rt.releaseTarget(call); rd != nil {
			for i := range obls {
				if !obls[i].viaDefer && obls[i].kind == rd.Kind && (obls[i].key == key || key == "") {
					obls[i].viaDefer = true
				}
			}
		}
	}
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				markDeferred(call)
			}
			return true
		})
		return obls
	}
	markDeferred(st.Call)
	return obls
}

// handleGo conservatively hands any captured obligation to the goroutine,
// and checks a goroutine literal's body as a function of its own.
func (rt *releaseTracker) handleGo(st *ast.GoStmt, obls []obligation) []obligation {
	rt.walkLits(st.Call, obls)
	return rt.dischargeMentioned(obls, st.Call)
}

// handleReleaseCall discharges obligations matched by a releases call.
func (rt *releaseTracker) handleReleaseCall(call *ast.CallExpr, obls []obligation) []obligation {
	rd, key := rt.releaseTarget(call)
	if rd == nil {
		return obls
	}
	var kept []obligation
	for _, o := range obls {
		if o.kind == rd.Kind && (o.key == key || key == "") {
			continue
		}
		kept = append(kept, o)
	}
	return kept
}

// releaseTarget resolves a call to a releases directive and the canonical
// key of the value being released ("" when the expression is too complex to
// key, which matches any obligation of the kind — conservative).
func (rt *releaseTracker) releaseTarget(call *ast.CallExpr) (*modgraph.Directive, string) {
	fn := rt.m.CalleeOf(call)
	if fn == nil {
		return nil, ""
	}
	rd := rt.ann.releases[fn]
	if rd == nil {
		rd = builtinLock(fn, "releases")
	}
	if rd == nil {
		return nil, ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
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
	if d == nil {
		return "", false
	}
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

// acquireDirective resolves a call to its acquires directive (annotated or
// a built-in lock), nil if there is none or the kind is exempt in this
// function.
func (rt *releaseTracker) acquireDirective(call *ast.CallExpr) *modgraph.Directive {
	fn := rt.m.CalleeOf(call)
	if fn == nil {
		return nil
	}
	d := rt.ann.acquires[fn]
	if d == nil {
		d = builtinLock(fn, "acquires")
	}
	if d == nil || d.Kind == rt.exemptKind {
		return nil
	}
	return d
}

// createObligation keys a new obligation off the assignment destinations.
func (rt *releaseTracker) createObligation(d *modgraph.Directive, call *ast.CallExpr, st *ast.AssignStmt, obls []obligation) []obligation {
	key, errKey := "", ""
	if st != nil {
		for _, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if ok && id.Name != "_" && isErrorIdent(rt.m, id) {
				errKey = id.Name
				continue
			}
			if key == "" {
				key = exprKey(lhs)
			}
		}
	}
	if key == "" {
		// Every destination was an error variable (or blank): when the
		// callee's receiver is the resource — err := d.Pause() — key the
		// obligation off the receiver, conditional on that error.
		if rkey, ok := receiverResourceKey(d, call); ok {
			if rkey != "" {
				return rt.addObligation(obls, d, call, rkey, errKey)
			}
			return obls
		}
	}
	if key == "" && st != nil {
		// Resource assigned to _ (or an unkeyable destination): leak now.
		pos := rt.pkg.Fset.Position(call.Pos())
		if !rt.sup.Suppressed(pos.Filename, pos.Line, "releasetrack") {
			rt.out = append(rt.out, lint.Finding{
				Pos:  pos,
				Rule: "releasetrack",
				Msg: fmt.Sprintf("%s from %s is discarded; the %s it acquires can never be released",
					d.Kind, modgraph.ShortFuncName(rt.m.Path, d.Fn), d.Kind),
			})
		}
		return obls
	}
	if key == "" {
		return obls
	}
	return rt.addObligation(obls, d, call, key, errKey)
}

func (rt *releaseTracker) addObligation(obls []obligation, d *modgraph.Directive, call *ast.CallExpr, key, errKey string) []obligation {
	pos := rt.pkg.Fset.Position(call.Pos())
	if rt.sup.Suppressed(pos.Filename, pos.Line, "releasetrack") {
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

// checkExit flags every live, undischarged obligation at an exit point,
// unless the exit transfers ownership by returning the resource.
func (rt *releaseTracker) checkExit(obls []obligation, exit token.Pos, results []ast.Expr) {
	for _, o := range obls {
		if o.viaDefer || rt.flagged[o.pos] {
			continue
		}
		escaped := false
		for _, r := range results {
			if !o.lock && mentions(r, baseOf(o.key)) {
				escaped = true
				break
			}
		}
		if escaped {
			continue
		}
		rt.flagged[o.pos] = true
		pos := rt.pkg.Fset.Position(o.pos)
		exitPos := rt.pkg.Fset.Position(exit)
		rt.out = append(rt.out, lint.Finding{
			Pos:  pos,
			Rule: "releasetrack",
			Msg: fmt.Sprintf("%s %q acquired from %s escapes unreleased on the path exiting at line %d; release it or defer the release",
				o.kind, o.key, o.by, exitPos.Line),
		})
	}
}

// dischargeMentioned drops obligations whose base identifier appears in e —
// ownership has been handed somewhere this pass cannot follow.
func (rt *releaseTracker) dischargeMentioned(obls []obligation, e ast.Expr) []obligation {
	var kept []obligation
	for _, o := range obls {
		if !o.lock && mentions(e, baseOf(o.key)) {
			continue
		}
		kept = append(kept, o)
	}
	return kept
}

// walkLits analyzes function literals in an expression as independent
// functions: their bodies run with their own obligation state.
func (rt *releaseTracker) walkLits(e ast.Expr, obls []obligation) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sub := &releaseTracker{m: rt.m, ann: rt.ann, sup: rt.sup, pkg: rt.pkg, fd: rt.fd,
			exemptKind: rt.exemptKind, flagged: rt.flagged}
		final := sub.walkStmts(lit.Body.List, nil)
		sub.checkExit(final.obls, lit.Body.End(), nil)
		rt.out = append(rt.out, sub.out...)
		return false
	})
}

// isPanicCall matches the panic builtin.
func (rt *releaseTracker) isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := rt.m.ObjOf(id)
	if obj == nil {
		return true
	}
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// errCheck matches `x != nil` / `x == nil` over a plain identifier and
// returns the identifier name and which comparison it is.
func errCheck(cond ast.Expr) (errKey string, isNil bool, ok bool) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return "", false, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if id := identNilPair(x, y); id != "" {
		return id, be.Op == token.EQL, true
	}
	return "", false, false
}

// identNilPair returns the identifier compared against nil, "" otherwise.
func identNilPair(x, y ast.Expr) string {
	xid, xok := x.(*ast.Ident)
	yid, yok := y.(*ast.Ident)
	switch {
	case xok && yok && yid.Name == "nil":
		return xid.Name
	case xok && yok && xid.Name == "nil":
		return yid.Name
	}
	return ""
}

// dropErrObls removes obligations conditional on the named error variable.
func dropErrObls(obls []obligation, errKey string) []obligation {
	var kept []obligation
	for _, o := range obls {
		if o.errKey == errKey {
			continue
		}
		kept = append(kept, o)
	}
	return kept
}

// clearErrKey makes matching obligations unconditional: the success branch
// has established that the acquire happened.
func clearErrKey(obls []obligation, errKey string) []obligation {
	out := cloneObls(obls)
	for i := range out {
		if out[i].errKey == errKey {
			out[i].errKey = ""
		}
	}
	return out
}

// unionObls merges obligations from two paths: live on either means live,
// and a defer on both arms is needed for the defer to count.
func unionObls(a, b []obligation) []obligation {
	out := cloneObls(a)
	index := make(map[token.Pos]int, len(out))
	for i, o := range out {
		index[o.pos] = i
	}
	for _, o := range b {
		if i, ok := index[o.pos]; ok {
			if !o.viaDefer {
				out[i].viaDefer = false
			}
			continue
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

// mentions reports whether the expression tree contains an identifier with
// the given name ("" never matches).
func mentions(e ast.Expr, name string) bool {
	if e == nil || name == "" {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return true
	})
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
		x := exprKey(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.StarExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	case *ast.IndexExpr:
		x := exprKey(e.X)
		if x == "" {
			return ""
		}
		if lit, ok := e.Index.(*ast.BasicLit); ok {
			return x + "[" + lit.Value + "]"
		}
	}
	return ""
}
