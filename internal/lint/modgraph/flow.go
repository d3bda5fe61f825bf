package modgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Rules are one obligation pass's transfer rules over its path state S:
// what creates an obligation, what discharges it, which uses misuse it, and
// what an exit demands of it. Everything else about a path — statement
// order, branch arms and their merge, loops, exits and function literals —
// belongs to the Walker, so a new obligation kind adds rules, not a walker.
type Rules[S any] interface {
	// Clone copies st for one arm of a branch or one pass of a loop body.
	Clone(st S) S
	// Join merges the fall-through state b into a and returns the result,
	// which may reuse a.
	Join(a, b S) S
	// Stmt applies one straight-line statement: an assignment (a var
	// declaration with values arrives as one), expression, send, inc/dec,
	// defer or go. Before each pass over a range loop's body it gets the
	// *ast.RangeStmt itself, whose iteration variables bind afresh.
	Stmt(s ast.Stmt, st S) S
	// Expr applies an expression evaluated for its uses: a loop condition,
	// a range container, a switch tag or a case value.
	Expr(e ast.Expr, st S)
	// Branch returns the states the arms of `if cond` start from.
	Branch(cond ast.Expr, st S) (then, els S)
	// Exit checks st where a path leaves the function being walked: at a
	// return (ret is set), a panic, or the end of the body.
	Exit(st S, at token.Pos, ret *ast.ReturnStmt)
}

// Walker is the path-sensitive statement walker behind the obligation
// passes (modsafe releasetrack, modown poolflow). It interprets one function
// body forward, path by path:
//
//   - each arm of an if, switch or select starts from a clone of the state
//     before it, and the arms that fall through merge by Join; a switch
//     without a default also merges the path that matches no case;
//   - a loop body runs twice, once from the entry state and once from the
//     entry merged with the first pass's end, so loop-carried misuse
//     surfaces; the loop's exit state is the entry merged with both passes.
//     Inside a second pass, nested loops run once, which keeps a deep nest
//     of loops quadratic rather than exponential;
//   - break, continue and fallthrough carry their path's state to their
//     target: the exit of the loop, switch or select (a break), the end of
//     the loop pass (a continue), or the entry of the next case clause (a
//     fallthrough); labels pick the target by name; goto falls through;
//   - return and panic end a path at an Exit, and so does the end of the
//     body;
//   - Lit walks a function literal's body as a function of its own: its
//     returns and end are the literal's exits. The rules pick the state it
//     starts from: an empty one when the literal's obligations are its own,
//     the enclosing path when the literal runs where it is written.
type Walker[S any] struct {
	Mod     *Module
	Decl    *ast.FuncDecl
	Rules   Rules[S]
	lits    int
	again   int          // enclosing loops in their second pass
	label   string       // label of the statement being walked
	targets []*target[S] // enclosing loops, switches and selects
}

// target is an enclosing loop, switch or select, collecting the states its
// branch statements carry to it.
type target[S any] struct {
	label string
	loop  bool
	brk   []S // states leaving by break
	cont  []S // states leaving by continue
	fall  []S // states falling through into the next case clause
}

// Walk interprets the declaration's body from st.
func (w *Walker[S]) Walk(st S) { w.body(w.Decl.Body, st) }

// Lit walks a function literal's body from st as a function of its own.
func (w *Walker[S]) Lit(lit *ast.FuncLit, st S) {
	targets := w.targets
	w.lits, w.targets = w.lits+1, nil
	w.body(lit.Body, st)
	w.lits, w.targets = w.lits-1, targets
}

// InLit reports whether the walk is inside a function literal.
func (w *Walker[S]) InLit() bool { return w.lits > 0 }

func (w *Walker[S]) body(b *ast.BlockStmt, st S) {
	if st, term := w.stmts(b.List, st); !term {
		w.Rules.Exit(st, b.End(), nil)
	}
}

// stmts walks a statement list and returns its fall-through state, or
// reports that every path through it ended.
func (w *Walker[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var term bool
		if st, term = w.stmt(s, st); term {
			return st, true
		}
	}
	return st, false
}

func (w *Walker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	r, label := w.Rules, w.label
	w.label = ""
	switch s := s.(type) {
	case *ast.ReturnStmt:
		r.Exit(st, s.Pos(), s)
		return st, true
	case *ast.ExprStmt:
		st = r.Stmt(s, st)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && w.isPanic(call) {
			r.Exit(st, s.Pos(), nil)
			return st, true
		}
		return st, false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					st = r.Stmt(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values}, st)
				}
			}
		}
		return st, false
	case *ast.BranchStmt:
		return st, w.branch(s, st)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		w.label = s.Label.Name
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		then, els := r.Branch(s.Cond, st)
		thenSt, thenTerm := w.stmts(s.Body.List, then)
		elseSt, elseTerm := els, false
		if s.Else != nil {
			elseSt, elseTerm = w.stmt(s.Else, els)
		}
		switch {
		case thenTerm:
			return elseSt, elseTerm
		case elseTerm:
			return thenSt, false
		}
		return r.Join(thenSt, elseSt), false
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			r.Expr(s.Cond, st)
		}
		return w.loop(s.Body.List, s.Post, nil, label, st), false
	case *ast.RangeStmt:
		r.Expr(s.X, st)
		return w.loop(s.Body.List, nil, s, label, st), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			r.Expr(s.Tag, st)
		}
		return w.arms(s.Body, label, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		switch a := s.Assign.(type) {
		case *ast.ExprStmt:
			r.Expr(a.X, st)
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				r.Expr(a.Rhs[0], st)
			}
		}
		return w.arms(s.Body, label, st)
	case *ast.SelectStmt:
		return w.arms(s.Body, label, st)
	}
	return r.Stmt(s, st), false
}

// branch sends st to the target of a break, continue or fallthrough and
// reports whether the path ends there (goto falls through).
func (w *Walker[S]) branch(s *ast.BranchStmt, st S) bool {
	if s.Tok == token.GOTO {
		return false
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		switch {
		case s.Label != nil && s.Label.Name != t.label:
			continue
		case s.Tok == token.BREAK:
			t.brk = append(t.brk, st)
		case s.Tok == token.FALLTHROUGH:
			t.fall = append(t.fall, st)
		case t.loop:
			t.cont = append(t.cont, st)
		default: // continue skips the switches and selects inside its loop
			continue
		}
		return true
	}
	return true
}

// join merges the states of the paths that reach one point, or reports
// that none does.
func (w *Walker[S]) join(paths []S, none S) (S, bool) {
	if len(paths) == 0 {
		return none, true
	}
	st := paths[0]
	for _, p := range paths[1:] {
		st = w.Rules.Join(st, p)
	}
	return st, false
}

// loop walks a loop body (see Walker); post, when set, ends each pass that
// falls through or continues, and rng, when set, rebinds its iteration
// variables before each pass.
func (w *Walker[S]) loop(list []ast.Stmt, post ast.Stmt, rng *ast.RangeStmt, label string, st S) S {
	var brk []S
	for pass := 0; pass < 2 && (pass == 0 || w.again == 0); pass++ {
		t := &target[S]{label: label, loop: true}
		w.again, w.targets = w.again+pass, append(w.targets, t)
		entry := w.Rules.Clone(st)
		if rng != nil {
			entry = w.Rules.Stmt(rng, entry)
		}
		if end, term := w.stmts(list, entry); !term {
			t.cont = append([]S{end}, t.cont...)
		}
		if end, term := w.join(t.cont, st); !term {
			if post != nil {
				end, _ = w.stmt(post, end)
			}
			st = w.Rules.Join(st, end)
		}
		brk = append(brk, t.brk...)
		w.again, w.targets = w.again-pass, w.targets[:len(w.targets)-1]
	}
	st, _ = w.join(append([]S{st}, brk...), st)
	return st
}

// arms walks the clauses of a switch, type switch or select from st and
// merges the paths that leave it: clauses that fall through and breaks. A
// switch without a default (or with no clauses) also falls through with st
// unchanged; a select always runs one of its clauses.
func (w *Walker[S]) arms(body *ast.BlockStmt, label string, st S) (S, bool) {
	t := &target[S]{label: label}
	w.targets = append(w.targets, t)
	defer func() { w.targets = w.targets[:len(w.targets)-1] }()
	var ends []S
	cases, deflt := false, false
	for _, c := range body.List {
		arm := w.Rules.Clone(st)
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			cases, deflt = true, deflt || c.List == nil
			for _, e := range c.List {
				w.Rules.Expr(e, st)
			}
			list = c.Body
		case *ast.CommClause:
			list = c.Body
			if c.Comm != nil {
				arm, _ = w.stmt(c.Comm, arm)
			}
		}
		for _, f := range t.fall {
			arm = w.Rules.Join(arm, f)
		}
		t.fall = nil
		if end, term := w.stmts(list, arm); !term {
			ends = append(ends, end)
		}
	}
	if len(body.List) == 0 || cases && !deflt {
		ends = append(ends, st)
	}
	return w.join(append(ends, t.brk...), st)
}

// isPanic matches the panic builtin (an unresolved panic counts too).
func (w *Walker[S]) isPanic(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := w.Mod.ObjOf(id)
	_, builtin := obj.(*types.Builtin)
	return obj == nil || builtin
}
