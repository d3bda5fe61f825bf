// Package modgraph is the whole-program analysis substrate shared by
// modlint's pass libraries (moddet, modsafe, modown): a go/types
// type-check of every non-test file in the module plus a conservative call
// graph over the result — stdlib go/ast + go/types only, no x/tools. Suite
// runs every pass over one type-check and one call graph, and Directives
// is the one parser for the passes' //<pass>:<verb> doc-comment
// annotations.
//
// The substrate never fails hard. Packages that cannot be type-checked
// contribute soft errors and partial (or no) type information, and every
// client pass treats missing info conservatively — the fuzz targets feed
// this arbitrary parseable Go.
package modgraph

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"modchecker/internal/lint"
)

// Module is the type-checked view of the package set: every non-test file
// of every package run through go/types in dependency order, with one
// merged types.Info so analysis passes can resolve any identifier they meet.
type Module struct {
	// Path is the module path ("modchecker"); import paths under it are
	// treated as module-internal.
	Path string
	Fset *token.FileSet
	// Pkgs is the loaded package set in deterministic (load) order.
	Pkgs []*lint.Package
	// TypesOf maps each lint package to its checked types.Package (absent
	// when type-checking failed outright for that package).
	TypesOf map[*lint.Package]*types.Package
	Info    *types.Info
	// Errs collects soft type errors; analysis proceeds on partial info.
	Errs []error
}

// ReadModulePath extracts the module path from root/go.mod ("" when absent
// or unparsable) so callers don't need to hardcode it.
func ReadModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// ImportPathOf returns the package's import path under the module path.
func ImportPathOf(modPath string, p *lint.Package) string {
	if p.RelDir == "" {
		return modPath
	}
	if modPath == "" {
		return p.RelDir
	}
	return modPath + "/" + p.RelDir
}

// stdImporter resolves non-module imports: compiled export data first (fast,
// and always present for the standard library under a release toolchain),
// falling back to type-checking from source.
type stdImporter struct {
	gc    types.Importer
	src   types.Importer
	cache map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		gc:    importer.ForCompiler(fset, "gc", nil),
		src:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*types.Package),
	}
}

func (si *stdImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("modgraph: import %q failed", path)
		}
		return pkg, nil
	}
	pkg, err := si.gc.Import(path)
	if err != nil {
		pkg, err = si.src.Import(path)
	}
	if err != nil {
		si.cache[path] = nil
		return nil, err
	}
	si.cache[path] = pkg
	return pkg, nil
}

// moduleImporter serves a types.Config: module-internal paths resolve to
// already-checked packages (the topological order below guarantees they
// exist), everything else goes to the standard importer.
type moduleImporter struct {
	modPath string
	byPath  map[string]*types.Package
	std     *stdImporter
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if mi.modPath != "" && (path == mi.modPath || strings.HasPrefix(path, mi.modPath+"/")) {
		if pkg, ok := mi.byPath[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("modgraph: internal package %q not loaded", path)
	}
	return mi.std.Import(path)
}

// NonTestFiles returns the package's primary (non-test) ASTs.
func NonTestFiles(p *lint.Package) []*ast.File {
	var out []*ast.File
	for _, sf := range p.Files {
		if !sf.IsTest {
			out = append(out, sf.AST)
		}
	}
	return out
}

// internalImports lists the RelDirs of module-internal packages imported by
// p's non-test files.
func internalImports(modPath string, p *lint.Package) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range NonTestFiles(p) {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if modPath == "" || (path != modPath && !strings.HasPrefix(path, modPath+"/")) {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(path, modPath), "/")
			if !seen[rel] {
				seen[rel] = true
				out = append(out, rel)
			}
		}
	}
	return out
}

// TypeCheck runs go/types over the packages in dependency order. It never
// fails hard: packages that cannot be checked contribute soft errors and
// partial (or no) type info.
func TypeCheck(modPath string, pkgs []*lint.Package) *Module {
	m := &Module{
		Path:    modPath,
		Pkgs:    pkgs,
		TypesOf: make(map[*lint.Package]*types.Package),
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	if len(pkgs) == 0 {
		return m
	}
	m.Fset = pkgs[0].Fset

	byRel := make(map[string]*lint.Package, len(pkgs))
	for _, p := range pkgs {
		byRel[p.RelDir] = p
	}

	// Topological order over module-internal imports (Go forbids cycles, but
	// fuzzed input may contain them — they fall out as import errors).
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[*lint.Package]int, len(pkgs))
	var order []*lint.Package
	var visit func(p *lint.Package)
	visit = func(p *lint.Package) {
		switch state[p] {
		case visiting:
			m.Errs = append(m.Errs, fmt.Errorf("modgraph: import cycle through %s", ImportPathOf(modPath, p)))
			return
		case done:
			return
		}
		state[p] = visiting
		for _, rel := range internalImports(modPath, p) {
			if dep, ok := byRel[rel]; ok && dep != p {
				visit(dep)
			}
		}
		state[p] = done
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}

	imp := &moduleImporter{
		modPath: modPath,
		byPath:  make(map[string]*types.Package, len(pkgs)),
		std:     newStdImporter(m.Fset),
	}
	for _, p := range order {
		files := NonTestFiles(p)
		if len(files) == 0 {
			continue
		}
		cfg := types.Config{
			Importer: imp,
			Error: func(err error) {
				m.Errs = append(m.Errs, err)
			},
		}
		path := ImportPathOf(modPath, p)
		// Check returns a usable (if incomplete) package even on errors.
		tp, _ := cfg.Check(path, p.Fset, files, m.Info)
		if tp != nil {
			m.TypesOf[p] = tp
			imp.byPath[path] = tp
		}
	}
	return m
}

// TypeOf returns the type of e, nil when type-checking didn't resolve it.
func (m *Module) TypeOf(e ast.Expr) types.Type {
	if tv, ok := m.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ObjOf resolves an identifier to its object (use or def), nil if unknown.
func (m *Module) ObjOf(id *ast.Ident) types.Object {
	if o := m.Info.Uses[id]; o != nil {
		return o
	}
	return m.Info.Defs[id]
}

// CalleeOf resolves a call expression to the *types.Func it invokes: a
// package function, a method (concrete or interface), or nil for builtins,
// conversions, and dynamic calls through function values.
func (m *Module) CalleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := m.ObjOf(fun).(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := m.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Fn.
		if fn, ok := m.ObjOf(fun.Sel).(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Position resolves a token.Pos against the module's file set.
func (m *Module) Position(pos token.Pos) token.Position {
	if m.Fset == nil {
		return token.Position{}
	}
	return m.Fset.Position(pos)
}

// SelectsField reports whether sel resolves to exactly the given field.
func (m *Module) SelectsField(sel *ast.SelectorExpr, field *types.Var) bool {
	if s, ok := m.Info.Selections[sel]; ok {
		return s.Obj() == field
	}
	return false
}

// IsModulePkg reports whether tp is one of the module's own packages.
func (m *Module) IsModulePkg(tp *types.Package) bool {
	if m.Path == "" {
		return false
	}
	return tp.Path() == m.Path ||
		len(tp.Path()) > len(m.Path) && tp.Path()[:len(m.Path)+1] == m.Path+"/"
}

// ShortFuncName renders a function's full name without the module-path
// noise: "internal/core.(*Checker).compare", "report.WritePoolJSON".
func ShortFuncName(modPath string, fn *types.Func) string {
	name := fn.FullName()
	if modPath == "" {
		return name
	}
	name = strings.ReplaceAll(name, modPath+"/", "")
	name = strings.ReplaceAll(name, modPath+".", baseImportName(modPath)+".")
	return name
}

// baseImportName is the default package identifier of an import path.
func baseImportName(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// BaseName is filepath.Base for slash- or backslash-separated paths.
func BaseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			return path[i+1:]
		}
	}
	return path
}

// BaseIdent returns the leftmost identifier of a selector/index chain.
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// Funcs calls visit for every function declaration with a body in the
// module's non-test files, in load order.
func Funcs(m *Module, visit func(p *lint.Package, fd *ast.FuncDecl)) {
	for _, p := range m.Pkgs {
		for _, sf := range p.Files {
			if sf.IsTest {
				continue
			}
			for _, d := range sf.AST.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					visit(p, fd)
				}
			}
		}
	}
}

// LocalTo reports whether e's base identifier is a variable declared inside
// fd's body (not a parameter or receiver) — a value the function created
// itself and has not shared yet.
func LocalTo(m *Module, e ast.Expr, fd *ast.FuncDecl) bool {
	id := BaseIdent(e)
	if id == nil {
		return false
	}
	obj := m.ObjOf(id)
	if obj == nil || fd.Body == nil {
		return false
	}
	return obj.Pos() >= fd.Body.Pos() && obj.Pos() < fd.Body.End()
}
