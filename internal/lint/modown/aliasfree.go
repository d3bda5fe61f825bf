package modown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// aliasfree enforces the zero-copy aliasing rule: a buffer returned by a
// //modown:borrowed producer (a CopyMapped window, a CoW frame layer) is
// a live view of memory owned elsewhere. Callers may read it, slice it,
// and hand it on — but must not
//
//   - write an element (b[i] = x) or copy into it,
//   - append to it (append may write into the shared backing array),
//   - recycle it through a pool put accessor or sync.Pool.Put,
//   - return it from a function not itself annotated //modown:borrowed,
//     which would launder the no-mutate contract away from callers.
//
// The pass is local with alias propagation (b2 := b, views := b[4:]),
// the same shape as poolflow but without path sensitivity — borrowedness
// never goes away.

// borrow records where a borrowed value entered the function. dual marks
// producers annotated both //modown:pool ... get and //modown:borrowed
// (strategy-dependent ownership, like CopyModule): their results must not
// be mutated, but recycling is the pool contract's business — poolflow
// tracks it — so the recycle checks skip them.
type borrow struct {
	src  string
	line int
	dual bool
}

func aliasFree(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet) []lint.Finding {
	if len(ann.borrowed) == 0 {
		return nil
	}
	var out []lint.Finding
	modgraph.Funcs(m, func(p *lint.Package, fd *ast.FuncDecl) {
		out = append(out, checkBorrows(m, ann, sup, p, fd)...)
	})
	return out
}

type afWalker struct {
	m        *modgraph.Module
	ann      *annotations
	sup      lint.SuppressionSet
	pkg      *lint.Package
	fd       *ast.FuncDecl
	borrowed map[types.Object]borrow
	fnIsBor  bool // the enclosing function is itself a borrowed producer
	findings []lint.Finding
	litDepth int
}

func checkBorrows(m *modgraph.Module, ann *annotations, sup lint.SuppressionSet, p *lint.Package, fd *ast.FuncDecl) []lint.Finding {
	w := &afWalker{m: m, ann: ann, sup: sup, pkg: p, fd: fd, borrowed: make(map[types.Object]borrow)}
	if fn, _ := m.Info.Defs[fd.Name].(*types.Func); fn != nil {
		w.fnIsBor = ann.borrowed[fn] != nil
	}
	w.walk(fd.Body)
	return w.findings
}

func (w *afWalker) report(pos token.Pos, msg string) {
	w.findings = append(w.findings, lint.Finding{Pos: w.pkg.Fset.Position(pos), Rule: "aliasfree", Msg: msg})
}

// walk visits the body in syntactic order — sufficient without path
// sensitivity, since borrows only accumulate.
func (w *afWalker) walk(n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.AssignStmt:
			w.assign(nd)
		case *ast.CallExpr:
			w.call(nd)
		case *ast.ReturnStmt:
			w.ret(nd)
		case *ast.FuncLit:
			w.litDepth++
			w.walk(nd.Body)
			w.litDepth--
			return false
		}
		return true
	})
}

// borrowOf resolves an expression to a tracked borrow: an ident, a slice
// or deref of one, or a fresh call of a borrowed producer.
func (w *afWalker) borrowOf(e ast.Expr) (borrow, bool) {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.m.ObjOf(t); obj != nil {
			b, ok := w.borrowed[obj]
			return b, ok
		}
	case *ast.SliceExpr:
		return w.borrowOf(t.X)
	case *ast.StarExpr:
		return w.borrowOf(t.X)
	case *ast.CallExpr:
		if d := calleeDirective(w.m, w.ann.borrowed, t); d != nil {
			pos := w.pkg.Fset.Position(t.Pos())
			if w.sup.Suppressed(pos.Filename, pos.Line, "aliasfree") {
				return borrow{}, false // a suppressed producer site propagates no facts
			}
			_, dual := w.ann.poolGet[d.Fn]
			return borrow{src: d.Fn.Name(), line: pos.Line, dual: dual}, true
		}
	}
	return borrow{}, false
}

func (w *afWalker) assign(s *ast.AssignStmt) {
	n := len(s.Rhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if n == len(s.Lhs) {
			rhs = s.Rhs[i] // tuple assignments are bound below, by type
		}
		// Mutation through an element write.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if b, bor := w.borrowOf(idx.X); bor {
				w.report(lhs.Pos(), fmt.Sprintf("borrowed buffer from %s (line %d) mutated by element write; zero-copy views are shared with their owner", b.src, b.line))
			}
		}
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if !isIdent || id.Name == "_" || rhs == nil {
			continue
		}
		obj := w.m.ObjOf(id)
		if obj == nil {
			continue
		}
		if b, bor := w.borrowOf(rhs); bor {
			w.borrowed[obj] = b
		} else if _, tracked := w.borrowed[obj]; tracked && !isBorrowPreserving(rhs) {
			delete(w.borrowed, obj)
		}
	}
	// Tuple form: buf, err := mapRange(...) — bind the value results.
	if n == 1 && len(s.Lhs) > 1 {
		if b, bor := w.borrowOf(s.Rhs[0]); bor {
			for _, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if obj := w.m.ObjOf(id); obj != nil && isViewType(obj.Type()) {
					w.borrowed[obj] = b
				}
			}
		}
	}
}

// isViewType limits tuple binding to types that can alias guest memory.
func isViewType(t types.Type) bool {
	if t == nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// isBorrowPreserving reports whether overwriting with rhs keeps the
// variable borrowed (self-append and reslices stay aliased).
func isBorrowPreserving(rhs ast.Expr) bool {
	switch t := ast.Unparen(rhs).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		id, ok := t.Fun.(*ast.Ident)
		return ok && id.Name == "append"
	}
	return false
}

func (w *afWalker) call(call *ast.CallExpr) {
	// copy(dst, ...) into a borrowed buffer.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		switch id.Name {
		case "copy":
			if b, bor := w.borrowOf(call.Args[0]); bor {
				w.report(call.Args[0].Pos(), fmt.Sprintf("borrowed buffer from %s (line %d) used as copy destination; zero-copy views are shared with their owner", b.src, b.line))
			}
			return
		case "append":
			if b, bor := w.borrowOf(call.Args[0]); bor {
				w.report(call.Args[0].Pos(), fmt.Sprintf("append on borrowed buffer from %s (line %d) may write into the shared backing array; copy it first", b.src, b.line))
			}
			return
		}
	}
	// Recycling a borrowed buffer into a pool. Dual-annotated producers
	// (pool get + borrowed) are exempt: recycling their results is the
	// pool contract poolflow enforces.
	if d := calleeDirective(w.m, w.ann.poolPut, call); d != nil {
		for _, a := range call.Args {
			if b, bor := w.borrowOf(a); bor && !b.dual {
				w.report(a.Pos(), fmt.Sprintf("borrowed buffer from %s (line %d) recycled into the %s pool; the pool would hand guest-owned memory to the next caller", b.src, b.line, d.Kind))
			}
		}
		return
	}
	if fn := w.m.CalleeOf(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Put" {
		for _, a := range call.Args {
			if b, bor := w.borrowOf(a); bor && !b.dual {
				w.report(a.Pos(), fmt.Sprintf("borrowed buffer from %s (line %d) recycled into a sync.Pool", b.src, b.line))
			}
		}
	}
}

func (w *afWalker) ret(s *ast.ReturnStmt) {
	if w.litDepth > 0 || w.fnIsBor {
		return
	}
	for _, r := range s.Results {
		if b, bor := w.borrowOf(r); bor {
			w.report(r.Pos(), fmt.Sprintf("borrowed buffer from %s (line %d) returned by %s, which is not annotated //modown:borrowed — callers lose the no-mutate contract", b.src, b.line, w.fd.Name.Name))
		}
	}
}
