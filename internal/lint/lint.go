// Package lint is modlint's engine: a stdlib-only static-analysis
// framework that loads every package in the module, runs the per-package
// analyzers over their syntax trees, and hands the whole package set to
// one whole-program analyzer (modgraph.Suite, which runs the moddet,
// modsafe and modown passes over a single type-check and call graph).
//
// The per-package rules encode invariants of the ModChecker simulation
// that the Go compiler cannot check — the simulated-clock discipline, the
// no-aliasing rule for guest memory, the error-prefix convention, and
// goroutine hygiene. Lock discipline is whole-program: "// guarded by"
// fields (moddet's lockflow), Lock/Unlock pairing (modsafe's
// releasetrack) and lock order (lockorder); mutex copies are left to
// go vet's copylocks check. Each rule is documented in
// docs/static-analysis.md.
//
// Findings can be suppressed with a trailing or preceding comment of the
// form
//
//	//modlint:ignore <rule> <reason>
//
// which silences <rule> (or every rule, with "all") on that line. The
// reason is mandatory: an unexplained suppression is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the driver's file:line: [rule] message
// format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// SourceFile is one parsed .go file.
type SourceFile struct {
	Path   string
	AST    *ast.File
	IsTest bool
}

// Package is one directory's worth of parsed Go source. Files of the
// in-package test variant (package foo, file foo_test.go) and the external
// test package (package foo_test) are carried alongside the primary files,
// marked IsTest; analyzers decide whether test code is in scope.
type Package struct {
	// Name is the primary (non-test) package name.
	Name string
	// Dir is the absolute directory; RelDir is the module-root-relative
	// path ("" for the root package, "internal/mm", "cmd/modlint", ...),
	// always slash-separated.
	Dir    string
	RelDir string
	Fset   *token.FileSet
	Files  []*SourceFile
}

// IsMain reports whether the package is a command.
func (p *Package) IsMain() bool { return p.Name == "main" }

// Analyzer is one modlint rule.
type Analyzer interface {
	// Name is the rule identifier used in reports and ignore directives.
	Name() string
	// Doc is a one-line description for -help output.
	Doc() string
	// Check inspects one package and returns raw findings; suppression is
	// applied by Run.
	Check(p *Package) []Finding
}

// ModuleAnalyzer is the whole-program half of a run (modgraph.Suite): it
// sees every package of the module at once, so it can reason across call
// boundaries. It receives the run's suppression set up front —
// interprocedural passes need to know a site is suppressed *before*
// propagating facts from it, not merely filter the final report.
type ModuleAnalyzer interface {
	// Rules lists every rule identifier the analyzer can report; ignore
	// directives naming any of them are valid whether or not they run.
	Rules() []string
	// CheckModule inspects the whole package set, running only the work
	// that owns a rule in only (all of it when only is nil). It returns raw
	// findings, which RunAll filters through sup, plus the soft
	// load/type-check errors that made packages drop out of the analysis.
	CheckModule(pkgs []*Package, sup SuppressionSet, only map[string]bool) ([]Finding, []error)
}

// KnownRules is a ModuleAnalyzer that owns the named rules and checks
// nothing. A run that does not load the whole module passes the suite's
// rule names this way, so //modlint:ignore directives naming whole-program
// rules stay valid without the suite running.
type KnownRules []string

// Rules returns the names.
func (r KnownRules) Rules() []string { return r }

// CheckModule reports nothing.
func (KnownRules) CheckModule([]*Package, SuppressionSet, map[string]bool) ([]Finding, []error) {
	return nil, nil
}

// Analyzers returns the full rule set in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		clockDiscipline{},
		sliceEscape{},
		errPrefix{},
		goroutineCapture{},
	}
}

// LoadPackage parses every .go file directly inside dir. relDir is the
// module-root-relative path recorded on the package. Directories with no
// Go files return (nil, nil).
func LoadPackage(fset *token.FileSet, dir, relDir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	p := &Package{Dir: dir, RelDir: filepath.ToSlash(relDir), Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: reading %s: %w", path, err)
		}
		if !buildTagOK(src) {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		sf := &SourceFile{Path: path, AST: f, IsTest: strings.HasSuffix(e.Name(), "_test.go")}
		p.Files = append(p.Files, sf)
		if !sf.IsTest && p.Name == "" {
			p.Name = f.Name.Name
		}
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	if p.Name == "" { // test-only directory
		p.Name = strings.TrimSuffix(p.Files[0].AST.Name.Name, "_test")
	}
	return p, nil
}

// buildTagOK reports whether the file's build constraint (if any) is
// satisfied by the default build: host OS/arch, the gc toolchain, release
// tags. Files gated behind opt-in tags like modpoison are compiled out of
// the default build; analyzing them next to their !tag twins would see
// every symbol declared twice.
func buildTagOK(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			if expr, err := constraint.Parse(line); err == nil {
				return expr.Eval(defaultBuildTag)
			}
			continue
		}
		break // reached the package clause without a constraint line
	}
	return true
}

func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, runtime.Compiler, "unix":
		return true
	}
	return strings.HasPrefix(tag, "go1")
}

// LoadModule loads every package under root (the directory holding go.mod),
// skipping testdata, vendor and hidden directories.
func LoadModule(fset *token.FileSet, root string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		p, err := LoadPackage(fset, path, rel)
		if err != nil {
			return err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// Run executes the per-package analyzers over the packages, drops
// suppressed findings, and returns the rest sorted by position. Ignore
// directives that lack a reason are reported as findings themselves.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	out, _ := RunAll(pkgs, analyzers, nil, nil)
	return out
}

// RunAll executes the per-package analyzers and then the whole-program
// analyzer mod (nil, or KnownRules, when the whole module is not loaded)
// over the package set, applies //modlint:ignore suppression to everything,
// and returns the surviving findings sorted by position. only, when
// non-nil, is the set of rules to run and report; ignore directives naming
// any other rule the analyzers own stay valid.
//
// The second result is the substrate errors mod hit on the way: soft
// type-check failures that made a package drop out of whole-program
// analysis. Findings and errors are distinct results — a broken package in
// one corner of the module reduces coverage there but must not mask
// findings elsewhere, and a non-empty error list means the finding list is
// a lower bound, not a verdict. Errors are deduplicated by message and
// sorted.
func RunAll(pkgs []*Package, analyzers []Analyzer, mod ModuleAnalyzer, only map[string]bool) ([]Finding, []error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	if mod != nil {
		for _, r := range mod.Rules() {
			known[r] = true
		}
	}
	sup, out := CollectSuppressions(pkgs, known)
	if only != nil {
		out = nil // directive hygiene is not a selectable rule
	}
	keep := func(f Finding) bool {
		return (only == nil || only[f.Rule]) && !sup.Suppressed(f.Pos.Filename, f.Pos.Line, f.Rule)
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			if only != nil && !only[a.Name()] {
				continue
			}
			for _, f := range a.Check(p) {
				if keep(f) {
					out = append(out, f)
				}
			}
		}
	}
	var errs []error
	if mod != nil {
		fs, es := mod.CheckModule(pkgs, sup, only)
		for _, f := range fs {
			if keep(f) {
				out = append(out, f)
			}
		}
		seenErr := make(map[string]bool)
		for _, e := range es {
			if e != nil && !seenErr[e.Error()] {
				seenErr[e.Error()] = true
				errs = append(errs, e)
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	// The merged stream is byte-stable: ordered by (file, line, column,
	// rule, message) and deduplicated, so per-package and whole-module
	// analyzers reporting the same defect at the same site collapse to one
	// diagnostic and reruns produce identical bytes.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	dedup := out[:0]
	for i, f := range out {
		if i > 0 && f.Pos == out[i-1].Pos && f.Rule == out[i-1].Rule && f.Msg == out[i-1].Msg {
			continue
		}
		dedup = append(dedup, f)
	}
	return dedup, errs
}

// ignoreKey identifies one suppressed (file, line, rule) site; rule "all"
// matches every rule.
type ignoreKey struct {
	file string
	line int
	rule string
}

// SuppressionSet is the set of (file, line, rule) sites silenced by
// //modlint:ignore directives. Module analyzers consult it to avoid
// propagating facts from suppressed sites.
type SuppressionSet struct {
	m map[ignoreKey]bool
}

// Suppressed reports whether the given rule is silenced at file:line.
func (s SuppressionSet) Suppressed(file string, line int, rule string) bool {
	return s.m[ignoreKey{file, line, rule}] || s.m[ignoreKey{file, line, "all"}]
}

const ignorePrefix = "modlint:ignore"

// CollectSuppressions gathers every //modlint:ignore directive across the
// packages into one set. A directive on line L suppresses the named rule on
// L and L+1, so it works both as a trailing comment and on its own line
// above the flagged code. Malformed or unknown-rule directives suppress
// nothing and come back as findings.
func CollectSuppressions(pkgs []*Package, known map[string]bool) (SuppressionSet, []Finding) {
	set := SuppressionSet{m: make(map[ignoreKey]bool)}
	var bad []Finding
	for _, p := range pkgs {
		b := collectPackage(p, known, set)
		bad = append(bad, b...)
	}
	return set, bad
}

// collectPackage scans one package's comments into set.
func collectPackage(p *Package, known map[string]bool, set SuppressionSet) []Finding {
	var bad []Finding
	for _, sf := range p.Files {
		for _, cg := range sf.AST.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, ignorePrefix))
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:  pos,
						Rule: "ignore-directive",
						Msg:  "malformed ignore directive: want //modlint:ignore <rule> <reason>",
					})
					continue
				}
				rule := fields[0]
				if rule != "all" && !known[rule] {
					bad = append(bad, Finding{
						Pos:  pos,
						Rule: "ignore-directive",
						Msg:  fmt.Sprintf("ignore directive names unknown rule %q", rule),
					})
					continue
				}
				set.m[ignoreKey{pos.Filename, pos.Line, rule}] = true
				set.m[ignoreKey{pos.Filename, pos.Line + 1, rule}] = true
			}
		}
	}
	return bad
}

// --- shared AST helpers -------------------------------------------------

// importName returns the identifier a file refers to the given import path
// by ("" when not imported; the base name when not renamed).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return p[strings.LastIndex(p, "/")+1:]
	}
	return ""
}

// pkgCall matches a call of the form <pkgIdent>.<fn>(...) and returns fn
// ("" when the call does not match).
func pkgCall(call *ast.CallExpr, pkgIdent string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgIdent {
		return ""
	}
	return sel.Sel.Name
}

// exprString renders a restricted expression (idents, selectors, parens,
// unary &/*) to a canonical string for structural comparison. Returns ""
// for expressions outside that subset.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := exprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprString(e.X)
		}
	}
	return ""
}

// funcsOf yields every function and method declaration in the file.
func funcsOf(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			out = append(out, fd)
		}
	}
	return out
}

// recvName returns the receiver variable name ("" when anonymous).
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// inspectScope walks n in source order, skipping nested function literals.
func inspectScope(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}
