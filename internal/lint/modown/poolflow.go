package modown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// poolflow is the ownership pass, a set of rules on the shared obligation
// walker (modgraph.Walker), which owns paths, branches, loops, exits and
// function literals. Calling a //modown:pool <kind> get accessor (or
// sync.Pool.Get directly, outside an annotated accessor) creates an
// obligation on the result; the path state maps each local variable that
// aliases it to a binding. The pass reports
//
//   - use-after-put: any use of an alias after the value was recycled,
//   - double-put: recycling the same variable twice on one path (a defer
//     of the put counts — the defer still runs),
//   - put-of-reslice: handing the pool a reslice of the original
//     allocation, so the pool's length/capacity bookkeeping is silently
//     wrong, and wrong-pool: recycling into another kind's pool,
//   - pooled-escape: storing the value in a field, a package-level
//     variable, a returned closure or composite, or returning it from a
//     function that is not itself annotated get for the kind,
//   - leak: an obligation that no path ever recycles, transfers, or
//     returns under a get annotation.
//
// Passing a pooled value as a plain argument is borrowing; ownership moves
// only through //modown:transfer. Function literals run in the enclosing
// path where they are written (a synchronous-call assumption), goroutine
// bodies on a copy of it. Double-put and use-after-put are tracked per
// variable, not per allocation, so a put through a second alias of the
// same value is not flagged — the fixture corpus documents the limitation.

// poolKind identifies a pool: an annotated kind name, or the identity of a
// raw sync.Pool variable.
type poolKind struct {
	name string       // display name ("fetch-buf", or the pool variable name)
	obj  types.Object // non-nil for raw sync.Pool tracking
}

// obligation is one pooled value handed out at one call site.
type obligation struct {
	kind       poolKind
	pos        token.Pos // the get call site
	src        string    // rendering of the producing call for messages
	aliases    map[types.Object]bool
	discharged bool // some path put, transferred, or returned it
	reported   bool // an escape finding already covers it
}

// binding is one variable's view of an obligation on one path.
type binding struct {
	ob          *obligation
	released    bool // recycled earlier on this path
	deferred    bool // recycling registered via defer (runs at exit)
	transferred bool // ownership moved to a //modown:transfer callee
	relLine     int
}

// pathState maps in-scope variables to their bindings.
type pathState map[types.Object]binding

// poolFlow runs the ownership pass over every function in the module.
func poolFlow(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
	var out []lint.Finding
	modgraph.Funcs(m, func(p *lint.Package, fd *ast.FuncDecl) {
		out = append(out, checkFunc(m, ann, sup, p, fd)...)
	})
	return out
}

// pfWalker is poolflow's rules for one function declaration.
type pfWalker struct {
	m   *modgraph.Module
	ann *annotations
	sup lint.SuppressionSet
	pkg *lint.Package
	fd  *ast.FuncDecl
	w   *modgraph.Walker[pathState]
	// accessor marks the body of an annotated pool accessor: its raw
	// sync.Pool traffic is the contract's implementation, not tracked.
	accessor bool
	// getKind / transferKind are the kinds the function is annotated get /
	// transfer for (discharge-by-return, store-as-owner), "" if none.
	getKind, transferKind string
	obs                   map[token.Pos]*obligation
	order                 []*obligation
	deferredLits          []*ast.FuncLit
	findings              []lint.Finding
	seen                  map[token.Position]bool // one finding per position across loop passes
}

func checkFunc(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet, p *lint.Package, fd *ast.FuncDecl) []lint.Finding {
	w := &pfWalker{
		m: m, ann: ann, sup: sup, pkg: p, fd: fd,
		accessor: ann.annotated[fd],
		obs:      make(map[token.Pos]*obligation),
		seen:     make(map[token.Position]bool),
	}
	if fn, _ := m.Info.Defs[fd.Name].(*types.Func); fn != nil {
		if d := ann.poolGet[fn]; d != nil {
			w.getKind = d.Kind
		}
		if d := ann.transfer[fn]; d != nil {
			w.transferKind = d.Kind
		}
	}
	w.w = &modgraph.Walker[pathState]{Mod: m, Decl: fd, Rules: w}
	w.w.Walk(make(pathState))
	for _, lit := range w.deferredLits {
		w.postDischarge(lit)
	}
	// Leak check: weak by design (modsafe releasetrack owns path-sensitive
	// must-release) — flag only obligations no path discharges at all.
	for _, ob := range w.order {
		if !ob.discharged && !ob.reported {
			w.report(ob.pos, fmt.Sprintf("pooled %s value from %s is never recycled, transferred, or returned under a get annotation (pool leak)", ob.kind.name, ob.src))
		}
	}
	return w.findings
}

func (w *pfWalker) Clone(st pathState) pathState { return maps.Clone(st) }

// Join merges b into a: released/deferred/transferred are may-facts.
func (w *pfWalker) Join(a, b pathState) pathState {
	for obj, bb := range b {
		ab, ok := a[obj]
		if !ok {
			a[obj] = bb
			continue
		}
		if bb.released && !ab.released {
			ab.released, ab.relLine = true, bb.relLine
		}
		ab.deferred = ab.deferred || bb.deferred
		ab.transferred = ab.transferred || bb.transferred
		a[obj] = ab
	}
	return a
}

func (w *pfWalker) Stmt(s ast.Stmt, st pathState) pathState {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.exprs(st, s.Chan, s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
	case *ast.GoStmt:
		w.asyncCall(s.Call, st)
	case *ast.RangeStmt:
		// The range variable rebinds fresh from the container on every
		// iteration: a put on the previous iteration's value is not a
		// double-put on this one's.
		w.bindRange(s, st)
	}
	return st
}

func (w *pfWalker) Expr(e ast.Expr, st pathState) { w.expr(e, st) }

func (w *pfWalker) Branch(cond ast.Expr, st pathState) (then, els pathState) {
	w.expr(cond, st)
	return w.Clone(st), w.Clone(st)
}

func (w *pfWalker) Exit(st pathState, _ token.Pos, ret *ast.ReturnStmt) {
	if ret != nil {
		w.returnStmt(ret, st)
	}
}

func (w *pfWalker) report(pos token.Pos, msg string) {
	position := w.pkg.Fset.Position(pos)
	if !w.seen[position] {
		w.seen[position] = true
		w.findings = append(w.findings, lint.Finding{Pos: position, Rule: "poolflow", Msg: msg})
	}
}

// --- call classification -------------------------------------------------

// calleeDirective resolves call's callee through the annotation maps
// (direct or via a module interface method).
func calleeDirective(m *modgraph.Module, dm map[*types.Func]*modgraph.Directive, call *ast.CallExpr) *modgraph.Directive {
	fn := m.CalleeOf(call)
	if fn == nil {
		return nil
	}
	return dm[fn]
}

// rawPool matches a direct (*sync.Pool) method call named role ("Get" or
// "Put") outside an annotated accessor and returns the pool's kind.
func (w *pfWalker) rawPool(call *ast.CallExpr, role string) (poolKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if w.accessor || !ok {
		return poolKind{}, false
	}
	fn := w.m.CalleeOf(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != role {
		return poolKind{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return poolKind{}, false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); !ok || named.Obj().Name() != "Pool" {
		return poolKind{}, false
	}
	base := modgraph.BaseIdent(sel.X)
	if base == nil || w.m.ObjOf(base) == nil {
		return poolKind{}, false
	}
	obj := w.m.ObjOf(base)
	return poolKind{name: obj.Name(), obj: obj}, true
}

// getCall classifies a call as a pooled-value producer.
func (w *pfWalker) getCall(call *ast.CallExpr) (poolKind, string, bool) {
	if d := calleeDirective(w.m, w.ann.poolGet, call); d != nil {
		return poolKind{name: d.Kind}, d.Fn.Name(), true
	}
	kind, ok := w.rawPool(call, "Get")
	return kind, kind.name + ".Get", ok
}

// putCall classifies a call as a pooled-value recycler.
func (w *pfWalker) putCall(call *ast.CallExpr) (poolKind, bool) {
	if d := calleeDirective(w.m, w.ann.poolPut, call); d != nil {
		return poolKind{name: d.Kind}, true
	}
	return w.rawPool(call, "Put")
}

// bindRange aliases the range value variable when ranging over a
// container that aliases an obligation (for _, f := range fetches).
func (w *pfWalker) bindRange(s *ast.RangeStmt, st pathState) {
	base := modgraph.BaseIdent(s.X)
	if base == nil {
		return
	}
	b, ok := st[w.m.ObjOf(base)]
	if !ok {
		return
	}
	if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
		if vo := w.m.ObjOf(id); vo != nil {
			st[vo] = binding{ob: b.ob, released: b.released, relLine: b.relLine}
		}
	}
}

// --- creation and aliasing -----------------------------------------------

func (w *pfWalker) assign(s *ast.AssignStmt, st pathState) {
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			w.assignPair(s.Lhs[i], s.Rhs[i], st)
		}
		return
	}
	if len(s.Rhs) != 1 {
		return
	}
	// Tuple assignment x, err := produce(): only pointer/slice-typed
	// results bind to the obligation — error and counter results are not
	// pooled values and must not alias it.
	ob := w.creation(s.Rhs[0], st)
	if ob == nil {
		w.expr(s.Rhs[0], st)
	}
	for _, l := range s.Lhs {
		if ob == nil {
			w.clearLHS(l, st)
			continue
		}
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
			if obj := w.m.ObjOf(id); obj != nil && !isViewType(obj.Type()) {
				continue
			}
		}
		w.bindLHS(l, ob, binding{ob: ob}, st)
	}
}

func (w *pfWalker) assignPair(lhs, rhs ast.Expr, st pathState) {
	// Creation: rhs is a get call (possibly behind a type assertion).
	if ob := w.creation(rhs, st); ob != nil {
		w.bindLHS(lhs, ob, binding{ob: ob}, st)
		return
	}
	// Alias: rhs reaches an obligated variable.
	if b, ok := w.aliasOf(rhs, st); ok {
		if b.released {
			w.report(rhs.Pos(), fmt.Sprintf("pooled %s value used after being recycled (recycled at line %d)", b.ob.kind.name, b.relLine))
		}
		w.bindLHS(lhs, b.ob, b, st)
		return
	}
	w.expr(rhs, st)
	w.clearLHS(lhs, st)
}

// creation returns the obligation rhs creates when it produces a fresh
// pooled value, after checking the producing call's arguments for uses. A
// suppressed get site propagates no facts.
func (w *pfWalker) creation(rhs ast.Expr, st pathState) *obligation {
	call := unwrapCall(rhs)
	if call == nil {
		return nil
	}
	kind, src, ok := w.getCall(call)
	if !ok {
		return nil
	}
	w.exprs(st, call.Args...)
	if pos := w.pkg.Fset.Position(call.Pos()); w.sup.Suppressed(pos.Filename, pos.Line, "poolflow") {
		return nil
	}
	return w.obtain(call, kind, src)
}

// unwrapCall returns the call under parens and type assertions, or nil.
func unwrapCall(e ast.Expr) *ast.CallExpr {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.TypeAssertExpr:
			e = t.X
		default:
			call, _ := e.(*ast.CallExpr)
			return call
		}
	}
}

// obtain returns the get call's obligation; a loop's second pass finds
// the first pass's.
func (w *pfWalker) obtain(call *ast.CallExpr, kind poolKind, src string) *obligation {
	if ob, ok := w.obs[call.Pos()]; ok {
		return ob
	}
	ob := &obligation{kind: kind, pos: call.Pos(), src: src, aliases: make(map[types.Object]bool)}
	w.obs[call.Pos()] = ob
	w.order = append(w.order, ob)
	return ob
}

// bindLHS records lhs as an alias of ob, or reports an escape when the
// target outlives the function (field, package-level variable).
func (w *pfWalker) bindLHS(lhs ast.Expr, ob *obligation, b binding, st pathState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := w.m.ObjOf(l)
		switch {
		case l.Name == "_" || obj == nil:
			// discarded: the leak check flags it if never recycled
		case w.isPackageLevel(obj):
			w.escape(lhs.Pos(), ob, fmt.Sprintf("pooled %s value stored in package-level variable %s; a recycled buffer must not outlive the sweep", ob.kind.name, l.Name))
		default:
			st[obj] = b
			ob.aliases[obj] = true
		}
	case *ast.IndexExpr:
		base := modgraph.BaseIdent(l.X)
		if base == nil || w.m.ObjOf(base) == nil {
			return
		}
		obj := w.m.ObjOf(base)
		if w.isPackageLevel(obj) || isSelectorBased(l.X) {
			w.escape(lhs.Pos(), ob, fmt.Sprintf("pooled %s value stored in retained container %s; move ownership with //modown:transfer", ob.kind.name, render(l.X)))
			return
		}
		// Element of a local container: the container aliases the value.
		if _, tracked := st[obj]; !tracked {
			st[obj] = binding{ob: ob}
		}
		ob.aliases[obj] = true
	case *ast.SelectorExpr:
		if w.transferKind != "" && w.transferKind == ob.kind.name {
			ob.discharged = true // the annotated owner storing it is the transfer's other half
			return
		}
		w.escape(lhs.Pos(), ob, fmt.Sprintf("pooled %s value stored in field %s; a recycled buffer must not outlive its owner (move ownership with //modown:transfer)", ob.kind.name, render(l)))
	case *ast.StarExpr:
		w.expr(l.X, st)
	}
}

func (w *pfWalker) escape(pos token.Pos, ob *obligation, msg string) {
	ob.reported = true
	w.report(pos, msg)
}

// clearLHS drops bindings overwritten by untracked values; writes through
// an index or deref are uses of the base (b[0] = x after a put is a
// use-after-put).
func (w *pfWalker) clearLHS(lhs ast.Expr, st pathState) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := w.m.ObjOf(l); obj != nil && l.Name != "_" {
			delete(st, obj)
		}
	case *ast.IndexExpr, *ast.StarExpr, *ast.SelectorExpr:
		w.expr(l, st)
	}
}

// aliasOf resolves an expression to an existing binding: an ident, a
// reslice/deref of one, or a composite/closure capturing one.
func (w *pfWalker) aliasOf(e ast.Expr, st pathState) (binding, bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.m.ObjOf(t); obj != nil {
			b, ok := st[obj]
			return b, ok
		}
	case *ast.SliceExpr:
		return w.aliasOf(t.X, st)
	case *ast.StarExpr:
		return w.aliasOf(t.X, st)
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			return w.aliasOf(t.X, st)
		}
	case *ast.CallExpr:
		// append(local, pooled...) propagates the obligation to the result.
		if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "append" && len(t.Args) > 0 {
			for _, a := range t.Args[1:] {
				if b, ok := w.aliasOf(a, st); ok {
					return b, true
				}
			}
			return w.aliasOf(t.Args[0], st)
		}
	case *ast.CompositeLit:
		return w.capturedBinding(t, st)
	case *ast.FuncLit:
		// Walk the closure body in place, then treat the closure value as
		// an alias of anything it captures.
		w.w.Lit(t, st)
		return w.capturedBinding(t, st)
	}
	return binding{}, false
}

// capturedBinding finds a tracked variable referenced anywhere inside a
// composite literal or closure. Composite literals capture only bare
// identifiers: Result{Name: pf.target.Name} copies a scalar part out of
// the tracked record and does not alias it, while Result{buf: pf} retains
// the record itself. Closures capture through any reference — a field
// read inside the closure body keeps the variable alive.
func (w *pfWalker) capturedBinding(n ast.Node, st pathState) (binding, bool) {
	skip := make(map[*ast.Ident]bool)
	if _, isComposite := n.(*ast.CompositeLit); isComposite {
		ast.Inspect(n, func(nd ast.Node) bool {
			if sel, is := nd.(*ast.SelectorExpr); is {
				if id, is := ast.Unparen(sel.X).(*ast.Ident); is {
					skip[id] = true
				}
			}
			return true
		})
	}
	var found binding
	ok := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if id, isID := nd.(*ast.Ident); isID && !skip[id] && !ok {
			found, ok = st[w.m.ObjOf(id)]
		}
		return !ok
	})
	return found, ok
}

func (w *pfWalker) isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return true // fields and non-vars never hold a local binding
	}
	return obj.Pos() < w.fd.Pos() || obj.Pos() >= w.fd.End()
}

func isSelectorBased(e ast.Expr) bool {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return false
		}
	}
}

func render(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return render(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return render(t.X) + "[...]"
	case *ast.StarExpr:
		return "*" + render(t.X)
	case *ast.CallExpr:
		return render(t.Fun) + "(...)"
	}
	return "expression"
}

// --- uses, discharges and exits ------------------------------------------

func (w *pfWalker) returnStmt(s *ast.ReturnStmt, st pathState) {
	if w.w.InLit() {
		// A return inside a function literal leaves the literal, not the
		// declaration under analysis; only check uses.
		w.exprs(st, s.Results...)
		return
	}
	for _, r := range s.Results {
		// return getBuf(n) directly: the obligation lives exactly as long
		// as the return expression.
		ob := w.creation(r, st)
		if ob == nil {
			b, ok := w.aliasOf(r, st)
			if !ok {
				w.expr(r, st)
				continue
			}
			if ob = b.ob; b.released {
				w.report(r.Pos(), fmt.Sprintf("pooled %s value returned after being recycled at line %d", ob.kind.name, b.relLine))
				continue
			}
		}
		if ob.kind.obj == nil && w.getKind == ob.kind.name {
			ob.discharged = true // ownership transfers to the caller
			continue
		}
		w.escape(r.Pos(), ob, fmt.Sprintf("pooled %s value returned by %s, which is not annotated //modown:pool %s get — the caller cannot see the recycling obligation", ob.kind.name, w.fd.Name.Name, ob.kind.name))
	}
}

// expr processes an expression for uses, puts, transfers, dropped gets
// and closures, which run in place.
func (w *pfWalker) expr(e ast.Expr, st pathState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if kind, ok := w.putCall(t); ok {
				w.put(t, kind, st, false)
			} else if d := calleeDirective(w.m, w.ann.transfer, t); d != nil {
				w.transferCall(t, d.Kind, st)
			} else if kind, src, ok := w.getCall(t); ok {
				// A get whose result is dropped is an immediate leak candidate.
				if pos := w.pkg.Fset.Position(t.Pos()); !w.sup.Suppressed(pos.Filename, pos.Line, "poolflow") {
					w.obtain(t, kind, src)
				}
				w.exprs(st, t.Args...)
			} else {
				return true
			}
			return false
		case *ast.FuncLit:
			w.w.Lit(t, st)
			return false
		case *ast.Ident:
			if b, ok := st[w.m.ObjOf(t)]; ok && b.released {
				w.report(t.Pos(), fmt.Sprintf("pooled %s value used after being recycled (recycled at line %d)", b.ob.kind.name, b.relLine))
			}
		}
		return true
	})
}

func (w *pfWalker) exprs(st pathState, es ...ast.Expr) {
	for _, e := range es {
		w.expr(e, st)
	}
}

// put processes one recycling call.
func (w *pfWalker) put(call *ast.CallExpr, kind poolKind, st pathState, isDefer bool) {
	for _, arg := range call.Args {
		a := ast.Unparen(arg)
		if sl, ok := a.(*ast.SliceExpr); ok {
			if b, tracked := w.aliasOf(sl.X, st); tracked && b.ob.kind == kind {
				w.report(arg.Pos(), fmt.Sprintf("recycling a reslice of a pooled %s value; the pool must get back the original allocation, not a sub-slice view", kind.name))
				w.release(sl.X, b, st, isDefer, call.Pos())
			} else {
				w.expr(sl, st)
			}
			continue
		}
		if id := baseAssignable(a); id != nil {
			b, tracked := st[w.m.ObjOf(id)]
			switch {
			case !tracked:
			case b.ob.kind != kind:
				w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled into the %s pool; buffers must go back to the pool that issued them", b.ob.kind.name, kind.name))
				b.ob.discharged = true
			default:
				if b.transferred {
					w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled after its ownership was transferred; the new owner recycles it", kind.name))
				} else if b.released || b.deferred {
					w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled again (already recycled at line %d)", kind.name, b.relLine))
				}
				w.release(a, b, st, isDefer, call.Pos())
			}
			continue
		}
		// Element or field of a tracked container: discharges the
		// obligation without per-variable state (elements are untracked).
		if b, tracked := w.aliasOf(a, st); tracked && b.ob.kind == kind {
			b.ob.discharged = true
			continue
		}
		w.expr(a, st)
	}
}

// baseAssignable returns the ident a put argument resolves to when it is
// the pooled variable itself (through deref/address-of).
func baseAssignable(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return nil
			}
			e = t.X
		default:
			return nil
		}
	}
}

// release discharges b's obligation and marks the variable e names
// recycled on this path (deferred: at exit, so later uses stay legal).
func (w *pfWalker) release(e ast.Expr, b binding, st pathState, isDefer bool, at token.Pos) {
	b.ob.discharged = true
	id := baseAssignable(e)
	if id == nil || w.m.ObjOf(id) == nil {
		return
	}
	if isDefer {
		b.deferred = true
	} else {
		b.released = true
	}
	b.relLine = w.pkg.Fset.Position(at).Line
	st[w.m.ObjOf(id)] = b
}

func (w *pfWalker) transferCall(call *ast.CallExpr, kind string, st pathState) {
	for _, arg := range call.Args {
		b, ok := w.aliasOf(arg, st)
		if !ok || b.ob.kind.obj != nil || b.ob.kind.name != kind {
			w.expr(arg, st)
			continue
		}
		b.ob.discharged = true
		if id := baseAssignable(ast.Unparen(arg)); id != nil && w.m.ObjOf(id) != nil {
			b.transferred = true
			st[w.m.ObjOf(id)] = b
		}
	}
}

// deferCall handles defer put(x) (a discharge that runs at exit: later
// uses are fine, a second put is not) and defers of closures, whose
// recycling is resolved after the walk against the final alias sets.
func (w *pfWalker) deferCall(call *ast.CallExpr, st pathState) {
	if kind, ok := w.putCall(call); ok {
		w.put(call, kind, st, true)
	} else if d := calleeDirective(w.m, w.ann.transfer, call); d != nil {
		w.transferCall(call, d.Kind, st)
	} else if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.deferredLits = append(w.deferredLits, lit)
	} else {
		w.expr(call.Fun, st)
		w.exprs(st, call.Args...)
	}
}

// asyncCall handles go statements: the goroutine body runs on a copy of
// the path (its timing is unknown), so discharges count globally but path
// flags stay untouched.
func (w *pfWalker) asyncCall(call *ast.CallExpr, st pathState) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.w.Lit(lit, w.Clone(st))
	} else if kind, ok := w.putCall(call); ok {
		w.put(call, kind, w.Clone(st), false)
	} else {
		w.expr(call.Fun, st)
		w.exprs(st, call.Args...)
	}
}

// postDischarge resolves puts inside deferred closures against the final
// alias sets — a cleanup closure registered before the values it recycles
// exist (defer func() { for _, f := range fetches { release(f) } }())
// still discharges them.
func (w *pfWalker) postDischarge(lit *ast.FuncLit) {
	aliasOb := make(map[types.Object]*obligation)
	for _, ob := range w.order {
		for obj := range ob.aliases {
			aliasOb[obj] = ob
		}
	}
	resolve := func(e ast.Expr) *obligation {
		if base := modgraph.BaseIdent(e); base != nil {
			return aliasOb[w.m.ObjOf(base)]
		}
		return nil
	}
	bind := func(lhs ast.Expr, ob *obligation) {
		if id, ok := lhs.(*ast.Ident); ok && ob != nil && id.Name != "_" && w.m.ObjOf(id) != nil {
			aliasOb[w.m.ObjOf(id)] = ob
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			bind(n.Value, resolve(n.X))
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					bind(n.Lhs[i], resolve(n.Rhs[i]))
				}
			}
		case *ast.CallExpr:
			kind, isPut := w.putCall(n)
			d := calleeDirective(w.m, w.ann.transfer, n)
			for _, a := range n.Args {
				ob := resolve(a)
				if ob != nil && (isPut && ob.kind == kind || d != nil && ob.kind.obj == nil && ob.kind.name == d.Kind) {
					ob.discharged = true
				}
			}
		}
		return true
	})
}
