package modown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// poolflow is the ownership pass: calling a //modown:pool <kind> get
// accessor (or sync.Pool.Get directly, outside an annotated accessor)
// creates an obligation on the result. The pass walks each function body
// forward, branch by branch, tracking which local variables alias the
// pooled value, and reports
//
//   - use-after-put: any use of an alias after the value was recycled,
//   - double-put: recycling the same variable twice on one path (a defer
//     of the put counts — the defer still runs),
//   - put-of-reslice: handing the pool a reslice of the original
//     allocation, so the pool's length/capacity bookkeeping is silently
//     wrong,
//   - pooled-escape: storing the value in a field, a package-level
//     variable, a returned closure or composite, or returning it from a
//     function that is not itself annotated get for the kind,
//   - leak: an obligation that no path ever recycles, transfers, or
//     returns under a get annotation.
//
// The analysis is deliberately local-plus-annotations: passing a pooled
// value as a plain argument is borrowing and creates no obligation in the
// callee; ownership moves only through //modown:transfer. Double-put and
// use-after-put are tracked per variable, not per allocation, so a put
// through a second alias of the same value is not flagged — the fixture
// corpus documents the limitation.

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

// pathState maps in-scope variables to their bindings; branches walk
// clones and re-merge.
type pathState map[types.Object]binding

func clonePath(st pathState) pathState {
	out := make(pathState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// mergePaths joins the fall-through states of two branches in place into a:
// released/deferred/transferred are may-facts (union).
func mergePaths(a, b pathState) pathState {
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

// poolFlow runs the ownership pass over every function in the module.
func poolFlow(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
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
				out = append(out, checkFunc(m, ann, sup, p, fd)...)
			}
		}
	}
	return out
}

type pfWalker struct {
	m   *modgraph.Module
	ann *annotations
	sup lint.SuppressionSet
	pkg *lint.Package
	fd  *ast.FuncDecl
	// accessor marks the body of an annotated pool accessor: its raw
	// sync.Pool traffic is the contract's implementation, not tracked.
	accessor bool
	// getKinds / transferKinds are the kinds the enclosing function is
	// annotated get / transfer for (discharge-by-return, store-as-owner).
	getKinds      map[string]bool
	transferKinds map[string]bool
	obs           map[token.Pos]*obligation
	order         []*obligation
	deferredLits  []*ast.FuncLit
	findings      []lint.Finding
	seen          map[string]bool // (pos|rule) dedup across loop re-walks
	litDepth      int             // >0 while walking a function literal body
}

func checkFunc(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet, p *lint.Package, fd *ast.FuncDecl) []lint.Finding {
	w := &pfWalker{
		m: m, ann: ann, sup: sup, pkg: p, fd: fd,
		accessor:      ann.annotated[fd],
		getKinds:      make(map[string]bool),
		transferKinds: make(map[string]bool),
		obs:           make(map[token.Pos]*obligation),
		seen:          make(map[string]bool),
	}
	if fn, _ := m.Info.Defs[fd.Name].(*types.Func); fn != nil {
		if d := ann.poolGet[fn]; d != nil {
			w.getKinds[d.Kind] = true
		}
		if d := ann.transfer[fn]; d != nil {
			w.transferKinds[d.Kind] = true
		}
	}
	st := make(pathState)
	w.stmts(fd.Body.List, st)
	for _, lit := range w.deferredLits {
		w.postDischarge(lit)
	}
	// Leak check: weak by design (modsafe releasetrack owns path-sensitive
	// must-release) — flag only obligations no path discharges at all.
	for _, ob := range w.order {
		if ob.discharged || ob.reported {
			continue
		}
		w.report(ob.pos, fmt.Sprintf("pooled %s value from %s is never recycled, transferred, or returned under a get annotation (pool leak)", ob.kind.name, ob.src))
	}
	return w.findings
}

func (w *pfWalker) report(pos token.Pos, msg string) {
	position := w.pkg.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%d", position.Filename, position.Line, position.Column)
	if w.seen[key] {
		return
	}
	w.seen[key] = true
	w.findings = append(w.findings, lint.Finding{Pos: position, Rule: "poolflow", Msg: msg})
}

func (w *pfWalker) line(pos token.Pos) int { return w.pkg.Fset.Position(pos).Line }

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

// rawPool matches a direct (*sync.Pool).Get/Put method call and returns
// the pool variable's identity.
func (w *pfWalker) rawPool(call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn := w.m.CalleeOf(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Get" && fn.Name() != "Put" {
		return nil, ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil, ""
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" {
		return nil, ""
	}
	base := modgraph.BaseIdent(sel.X)
	if base == nil {
		return nil, ""
	}
	obj := w.m.ObjOf(base)
	if obj == nil {
		return nil, ""
	}
	return obj, fn.Name()
}

// getCall classifies a call as a pooled-value producer.
func (w *pfWalker) getCall(call *ast.CallExpr) (poolKind, string, bool) {
	if d := calleeDirective(w.m, w.ann.poolGet, call); d != nil {
		return poolKind{name: d.Kind}, d.Fn.Name(), true
	}
	if w.accessor {
		return poolKind{}, "", false
	}
	if obj, role := w.rawPool(call); obj != nil && role == "Get" {
		return poolKind{name: obj.Name(), obj: obj}, obj.Name() + ".Get", true
	}
	return poolKind{}, "", false
}

// putCall classifies a call as a pooled-value recycler.
func (w *pfWalker) putCall(call *ast.CallExpr) (poolKind, bool) {
	if d := calleeDirective(w.m, w.ann.poolPut, call); d != nil {
		return poolKind{name: d.Kind}, true
	}
	if w.accessor {
		return poolKind{}, false
	}
	if obj, role := w.rawPool(call); obj != nil && role == "Put" {
		return poolKind{name: obj.Name(), obj: obj}, true
	}
	return poolKind{}, false
}

// --- statement walk ------------------------------------------------------

// stmts walks a statement list, returning the fall-through state and
// whether every path terminated (return/panic/branch).
func (w *pfWalker) stmts(list []ast.Stmt, st pathState) (pathState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *pfWalker) stmt(s ast.Stmt, st pathState) (pathState, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, st)
	case *ast.DeclStmt:
		w.declStmt(s, st)
	case *ast.ExprStmt:
		w.expr(s.X, st)
	case *ast.SendStmt:
		w.expr(s.Chan, st)
		w.expr(s.Value, st)
	case *ast.IncDecStmt:
		w.expr(s.X, st)
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
	case *ast.GoStmt:
		w.asyncCall(s.Call, st)
	case *ast.ReturnStmt:
		w.returnStmt(s, st)
		return st, true
	case *ast.BranchStmt:
		return st, s.Tok != token.GOTO // goto falls through conservatively
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.expr(s.Cond, st)
		}
		return w.loopBody(s.Body, postStmt(s), st, nil), false
	case *ast.RangeStmt:
		w.expr(s.X, st)
		// The range variable rebinds fresh from the container on every
		// iteration, so the rebind runs per body pass — a put on the
		// previous iteration's value is not a double-put on this one's.
		return w.loopBody(s.Body, nil, st, func(ps pathState) { w.bindRange(s, ps) }), false
	case *ast.SwitchStmt:
		return w.switchStmt(s.Init, s.Tag, s.Body, st)
	case *ast.TypeSwitchStmt:
		var tag ast.Expr
		if as, ok := s.Assign.(*ast.ExprStmt); ok {
			tag = as.X
		}
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			tag = as.Rhs[0]
		}
		return w.switchStmt(s.Init, tag, s.Body, st)
	case *ast.SelectStmt:
		return w.selectStmt(s, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	}
	return st, false
}

func postStmt(s *ast.ForStmt) []ast.Stmt {
	if s.Post == nil {
		return nil
	}
	return []ast.Stmt{s.Post}
}

// loopBody walks a loop body twice — once from the entry state and once
// from the merged entry/exit state — so loop-carried use-after-put and
// double-put surface; findings deduplicate by position. The pre hook runs
// before each pass for per-iteration rebinding (range variables).
func (w *pfWalker) loopBody(body *ast.BlockStmt, post []ast.Stmt, st pathState, pre func(pathState)) pathState {
	list := append(append([]ast.Stmt(nil), body.List...), post...)
	entry := clonePath(st)
	if pre != nil {
		pre(entry)
	}
	first, term := w.stmts(list, entry)
	if !term {
		mergePaths(st, first)
	}
	again := clonePath(st)
	if pre != nil {
		pre(again)
	}
	second, term2 := w.stmts(list, again)
	if !term2 {
		mergePaths(st, second)
	}
	return st
}

// bindRange aliases the range value variable when ranging over a
// container that aliases an obligation (for _, f := range fetches).
func (w *pfWalker) bindRange(s *ast.RangeStmt, st pathState) {
	base := modgraph.BaseIdent(s.X)
	if base == nil {
		return
	}
	obj := w.m.ObjOf(base)
	b, ok := st[obj]
	if !ok {
		return
	}
	if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
		if vo := w.m.ObjOf(id); vo != nil {
			st[vo] = binding{ob: b.ob, released: b.released, relLine: b.relLine}
		}
	}
}

func (w *pfWalker) ifStmt(s *ast.IfStmt, st pathState) (pathState, bool) {
	if s.Init != nil {
		st, _ = w.stmt(s.Init, st)
	}
	w.expr(s.Cond, st)
	thenSt, thenTerm := w.stmts(s.Body.List, clonePath(st))
	elseSt, elseTerm := clonePath(st), false
	if s.Else != nil {
		elseSt, elseTerm = w.stmt(s.Else, elseSt)
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseSt, false
	case elseTerm:
		return thenSt, false
	default:
		return mergePaths(thenSt, elseSt), false
	}
}

func (w *pfWalker) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, st pathState) (pathState, bool) {
	if init != nil {
		st, _ = w.stmt(init, st)
	}
	if tag != nil {
		w.expr(tag, st)
	}
	var merged pathState
	allTerm, sawDefault, any := true, false, false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		any = true
		if cc.List == nil {
			sawDefault = true
		}
		for _, e := range cc.List {
			w.expr(e, st)
		}
		bs, term := w.stmts(cc.Body, clonePath(st))
		if term {
			continue
		}
		allTerm = false
		if merged == nil {
			merged = bs
		} else {
			mergePaths(merged, bs)
		}
	}
	if !any {
		return st, false
	}
	if !sawDefault { // no default: the zero-case falls through unchanged
		if merged == nil {
			merged = st
		} else {
			mergePaths(merged, st)
		}
		return merged, false
	}
	if allTerm {
		return st, true
	}
	return merged, false
}

func (w *pfWalker) selectStmt(s *ast.SelectStmt, st pathState) (pathState, bool) {
	var merged pathState
	allTerm := true
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		branch := clonePath(st)
		if cc.Comm != nil {
			branch, _ = w.stmt(cc.Comm, branch)
		}
		bs, term := w.stmts(cc.Body, branch)
		if term {
			continue
		}
		allTerm = false
		if merged == nil {
			merged = bs
		} else {
			mergePaths(merged, bs)
		}
	}
	if merged == nil {
		return st, allTerm && len(s.Body.List) > 0
	}
	return merged, false
}

// --- assignments ---------------------------------------------------------

func (w *pfWalker) declStmt(s *ast.DeclStmt, st pathState) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				w.assignPair(name, vs.Values[i], st, true)
			}
		}
	}
}

func (w *pfWalker) assign(s *ast.AssignStmt, st pathState) {
	define := s.Tok == token.DEFINE
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			w.assignPair(s.Lhs[i], s.Rhs[i], st, define)
		}
		return
	}
	// Tuple assignment: one call, many results.
	if len(s.Rhs) == 1 {
		w.assignTuple(s.Lhs, s.Rhs[0], st, define)
	}
}

// assignTuple handles x, err := produce(): only pointer/slice-typed LHS
// results bind to the obligation — error and counter results are not
// pooled values and must not alias it.
func (w *pfWalker) assignTuple(lhs []ast.Expr, rhs ast.Expr, st pathState, define bool) {
	if kind, src, ok := w.creation(rhs, st); ok {
		ob := w.obtain(rhs, kind, src)
		for _, l := range lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
				if obj := w.m.ObjOf(id); obj != nil && !isViewType(obj.Type()) {
					continue
				}
			}
			w.bindLHS(l, ob, binding{ob: ob}, st)
		}
		return
	}
	w.expr(rhs, st)
	for _, l := range lhs {
		w.clearLHS(l, st)
	}
	_ = define
}

func (w *pfWalker) assignPair(lhs, rhs ast.Expr, st pathState, define bool) {
	// Creation: rhs is a get call (possibly behind a type assertion).
	if kind, src, ok := w.creation(rhs, st); ok {
		ob := w.obtain(rhs, kind, src)
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
	_ = define
}

// creation reports whether rhs produces a fresh pooled value.
func (w *pfWalker) creation(rhs ast.Expr, st pathState) (poolKind, string, bool) {
	call, ok := unwrapCall(rhs)
	if !ok {
		return poolKind{}, "", false
	}
	kind, src, ok := w.getCall(call)
	if !ok {
		return poolKind{}, "", false
	}
	// A suppressed get site propagates no facts.
	pos := w.pkg.Fset.Position(call.Pos())
	if w.sup.Suppressed(pos.Filename, pos.Line, "poolflow") {
		w.argUses(call, st)
		return poolKind{}, "", false
	}
	w.argUses(call, st)
	return kind, src, true
}

func unwrapCall(e ast.Expr) (*ast.CallExpr, bool) {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.TypeAssertExpr:
			e = t.X
		default:
			call, ok := e.(*ast.CallExpr)
			return call, ok
		}
	}
}

func (w *pfWalker) obtain(rhs ast.Expr, kind poolKind, src string) *obligation {
	call, _ := unwrapCall(rhs)
	if ob, ok := w.obs[call.Pos()]; ok {
		return ob // loop re-walk: same call site, same obligation
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
		if l.Name == "_" {
			return // discarded: the leak check will flag it if never recycled
		}
		obj := w.m.ObjOf(l)
		if obj == nil {
			return
		}
		if w.isPackageLevel(obj) {
			w.escape(lhs.Pos(), ob, fmt.Sprintf("pooled %s value stored in package-level variable %s; a recycled buffer must not outlive the sweep", ob.kind.name, l.Name))
			return
		}
		st[obj] = b
		ob.aliases[obj] = true
	case *ast.IndexExpr:
		base := modgraph.BaseIdent(l.X)
		if base == nil {
			return
		}
		obj := w.m.ObjOf(base)
		if obj == nil {
			return
		}
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
		if len(w.transferKinds) > 0 && w.transferKinds[ob.kind.name] {
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
		if l.Name == "_" {
			return
		}
		if obj := w.m.ObjOf(l); obj != nil {
			delete(st, obj)
		}
	case *ast.IndexExpr:
		w.expr(l.X, st)
		w.expr(l.Index, st)
	case *ast.StarExpr:
		w.expr(l.X, st)
	case *ast.SelectorExpr:
		w.expr(l.X, st)
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
		if b, ok := w.capturedBinding(t, st); ok {
			return b, true
		}
	case *ast.FuncLit:
		// Walk the closure body inline (synchronous-call assumption), then
		// treat the closure value as an alias of anything it captures.
		w.stmtsInLit(t.Body.List, st)
		if b, ok := w.capturedBinding(t, st); ok {
			return b, true
		}
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
		if ok {
			return false
		}
		id, isID := nd.(*ast.Ident)
		if !isID || skip[id] {
			return true
		}
		if obj := w.m.ObjOf(id); obj != nil {
			if b, tracked := st[obj]; tracked {
				found, ok = b, true
				return false
			}
		}
		return true
	})
	return found, ok
}

func (w *pfWalker) isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return true // fields and non-vars never hold a local binding
	}
	if w.fd.Body == nil {
		return false
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

// --- returns -------------------------------------------------------------

func (w *pfWalker) returnStmt(s *ast.ReturnStmt, st pathState) {
	if w.litDepth > 0 {
		// A return inside a function literal leaves the literal, not the
		// declaration under analysis; only check uses.
		for _, r := range s.Results {
			w.expr(r, st)
		}
		return
	}
	fnName := w.fd.Name.Name
	for _, r := range s.Results {
		// return getBuf(n) directly: the obligation lives exactly as long
		// as the return expression.
		if kind, src, ok := w.creation(r, st); ok {
			ob := w.obtain(r, kind, src)
			if kind.obj == nil && w.getKinds[kind.name] {
				ob.discharged = true
				continue
			}
			w.escape(r.Pos(), ob, fmt.Sprintf("pooled %s value returned by %s, which is not annotated //modown:pool %s get — the caller cannot see the recycling obligation", kind.name, fnName, kind.name))
			continue
		}
		b, ok := w.aliasOf(r, st)
		if !ok {
			w.expr(r, st)
			continue
		}
		ob := b.ob
		if b.released {
			w.report(r.Pos(), fmt.Sprintf("pooled %s value returned after being recycled at line %d", ob.kind.name, b.relLine))
			continue
		}
		if ob.kind.obj == nil && w.getKinds[ob.kind.name] {
			ob.discharged = true // ownership transfers to the caller
			continue
		}
		w.escape(r.Pos(), ob, fmt.Sprintf("pooled %s value returned by %s, which is not annotated //modown:pool %s get — the caller cannot see the recycling obligation", ob.kind.name, fnName, ob.kind.name))
	}
}

// --- calls and uses ------------------------------------------------------

// expr processes an expression for uses, puts, transfers, and inline
// closures.
func (w *pfWalker) expr(e ast.Expr, st pathState) {
	if e == nil {
		return
	}
	switch t := e.(type) {
	case *ast.CallExpr:
		if kind, ok := w.putCall(t); ok {
			w.put(t, kind, st, false)
			return
		}
		if d := calleeDirective(w.m, w.ann.transfer, t); d != nil {
			w.transferCall(t, d.Kind, st)
			return
		}
		if kind, src, ok := w.getCall(t); ok {
			// A get whose result is dropped is an immediate leak candidate.
			pos := w.pkg.Fset.Position(t.Pos())
			if !w.sup.Suppressed(pos.Filename, pos.Line, "poolflow") {
				w.obtain(t, kind, src)
			}
			w.argUses(t, st)
			return
		}
		w.expr(t.Fun, st)
		w.argUses(t, st)
	case *ast.FuncLit:
		w.stmtsInLit(t.Body.List, st)
	case *ast.Ident:
		if obj := w.m.ObjOf(t); obj != nil {
			if b, ok := st[obj]; ok && b.released {
				w.report(t.Pos(), fmt.Sprintf("pooled %s value used after being recycled (recycled at line %d)", b.ob.kind.name, b.relLine))
			}
		}
	case *ast.ParenExpr:
		w.expr(t.X, st)
	case *ast.SelectorExpr:
		w.expr(t.X, st)
	case *ast.IndexExpr:
		w.expr(t.X, st)
		w.expr(t.Index, st)
	case *ast.IndexListExpr:
		w.expr(t.X, st)
	case *ast.SliceExpr:
		w.expr(t.X, st)
		w.expr(t.Low, st)
		w.expr(t.High, st)
		w.expr(t.Max, st)
	case *ast.StarExpr:
		w.expr(t.X, st)
	case *ast.UnaryExpr:
		w.expr(t.X, st)
	case *ast.BinaryExpr:
		w.expr(t.X, st)
		w.expr(t.Y, st)
	case *ast.TypeAssertExpr:
		w.expr(t.X, st)
	case *ast.CompositeLit:
		for _, el := range t.Elts {
			w.expr(el, st)
		}
	case *ast.KeyValueExpr:
		w.expr(t.Key, st)
		w.expr(t.Value, st)
	}
}

func (w *pfWalker) argUses(call *ast.CallExpr, st pathState) {
	for _, a := range call.Args {
		w.expr(a, st)
	}
}

func (w *pfWalker) stmtsInLit(list []ast.Stmt, st pathState) {
	w.litDepth++
	w.stmts(list, st)
	w.litDepth--
}

// put processes one recycling call.
func (w *pfWalker) put(call *ast.CallExpr, kind poolKind, st pathState, isDefer bool) {
	for _, arg := range call.Args {
		a := ast.Unparen(arg)
		if sl, ok := a.(*ast.SliceExpr); ok {
			if b, tracked := w.aliasOf(sl.X, st); tracked && b.ob.kind == kind {
				w.report(arg.Pos(), fmt.Sprintf("recycling a reslice of a pooled %s value; the pool must get back the original allocation, not a sub-slice view", kind.name))
				w.markReleased(sl.X, b, st, isDefer, call.Pos())
				b.ob.discharged = true
				continue
			}
			w.expr(sl, st)
			continue
		}
		if id := baseAssignable(a); id != nil {
			obj := w.m.ObjOf(id)
			if obj == nil {
				continue
			}
			b, tracked := st[obj]
			if !tracked {
				continue
			}
			if b.ob.kind != kind {
				w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled into the %s pool; buffers must go back to the pool that issued them", b.ob.kind.name, kind.name))
				b.ob.discharged = true
				continue
			}
			switch {
			case b.transferred:
				w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled after its ownership was transferred; the new owner recycles it", kind.name))
			case b.released || b.deferred:
				w.report(arg.Pos(), fmt.Sprintf("pooled %s value recycled again (already recycled at line %d)", kind.name, b.relLine))
			}
			if isDefer {
				b.deferred = true
			} else {
				b.released = true
			}
			b.relLine = w.line(call.Pos())
			st[obj] = b
			b.ob.discharged = true
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

func (w *pfWalker) markReleased(e ast.Expr, b binding, st pathState, isDefer bool, at token.Pos) {
	id := baseAssignable(e)
	if id == nil {
		return
	}
	obj := w.m.ObjOf(id)
	if obj == nil {
		return
	}
	if isDefer {
		b.deferred = true
	} else {
		b.released = true
	}
	b.relLine = w.line(at)
	st[obj] = b
}

func (w *pfWalker) transferCall(call *ast.CallExpr, kind string, st pathState) {
	for _, arg := range call.Args {
		if b, ok := w.aliasOf(arg, st); ok && b.ob.kind.obj == nil && b.ob.kind.name == kind {
			b.ob.discharged = true
			if id := baseAssignable(ast.Unparen(arg)); id != nil {
				if obj := w.m.ObjOf(id); obj != nil {
					b.transferred = true
					st[obj] = b
				}
			}
			continue
		}
		w.expr(arg, st)
	}
}

// deferCall handles defer put(x) (a discharge that runs at exit: later
// uses are fine, a second put is not) and defers of closures, whose
// recycling is resolved after the walk against the final alias sets.
func (w *pfWalker) deferCall(call *ast.CallExpr, st pathState) {
	if kind, ok := w.putCall(call); ok {
		w.put(call, kind, st, true)
		return
	}
	if d := calleeDirective(w.m, w.ann.transfer, call); d != nil {
		w.transferCall(call, d.Kind, st)
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.deferredLits = append(w.deferredLits, lit)
		return
	}
	w.expr(call.Fun, st)
	w.argUses(call, st)
}

// asyncCall handles go statements: the goroutine body is walked on a
// cloned state (its timing is unknown), so discharges count globally but
// path flags stay untouched.
func (w *pfWalker) asyncCall(call *ast.CallExpr, st pathState) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.stmtsInLit(lit.Body.List, clonePath(st))
		return
	}
	if kind, ok := w.putCall(call); ok {
		w.put(call, kind, clonePath(st), false)
		return
	}
	w.expr(call.Fun, st)
	w.argUses(call, st)
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
		base := modgraph.BaseIdent(e)
		if base == nil {
			return nil
		}
		if obj := w.m.ObjOf(base); obj != nil {
			return aliasOb[obj]
		}
		return nil
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if ob := resolve(n.X); ob != nil {
				if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
					if vo := w.m.ObjOf(id); vo != nil {
						aliasOb[vo] = ob
					}
				}
			}
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if ob := resolve(n.Rhs[i]); ob != nil {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						if lo := w.m.ObjOf(id); lo != nil {
							aliasOb[lo] = ob
						}
					}
				}
			}
		case *ast.CallExpr:
			kind, isPut := w.putCall(n)
			var transferKind string
			if d := calleeDirective(w.m, w.ann.transfer, n); d != nil {
				transferKind = d.Kind
			}
			if !isPut && transferKind == "" {
				return true
			}
			for _, a := range n.Args {
				ob := resolve(a)
				if ob == nil {
					continue
				}
				if isPut && ob.kind == kind || transferKind != "" && ob.kind.obj == nil && ob.kind.name == transferKind {
					ob.discharged = true
				}
			}
		}
		return true
	})
}
