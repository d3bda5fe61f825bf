package modgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"modchecker/internal/lint"
)

// Pass is one library of whole-program rules (moddet, modsafe, modown) run
// over the shared substrate.
type Pass struct {
	// Name and Doc describe the pass in -list output.
	Name, Doc string
	// Rules lists every rule identifier the pass can report.
	Rules []string
	// Run analyzes the module's call graph (and, through g.Mod, its type
	// information) and returns raw findings; it consults sup for sites
	// whose facts must not propagate.
	Run func(g *Graph, sup lint.SuppressionSet) []lint.Finding
}

// Suite is modlint's one whole-module analyzer (a lint.ModuleAnalyzer): it
// type-checks the package set once, builds the call graph once, and runs
// every pass over the result.
type Suite struct {
	// Path is the module path (see ReadModulePath).
	Path   string
	Passes []Pass
}

// Rules lists the rules of every pass.
func (s Suite) Rules() []string {
	var out []string
	for _, p := range s.Passes {
		out = append(out, p.Rules...)
	}
	return out
}

// CheckModule runs the passes owning a rule in only (every pass when only
// is nil). It degrades gracefully on partial type information (fuzzed or
// broken input): whatever could not be resolved is simply not analyzed,
// and the soft type-check errors come back beside the findings.
func (s Suite) CheckModule(pkgs []*lint.Package, sup lint.SuppressionSet, only map[string]bool) ([]lint.Finding, []error) {
	var run []Pass
	for _, p := range s.Passes {
		for _, r := range p.Rules {
			if only == nil || only[r] {
				run = append(run, p)
				break
			}
		}
	}
	if len(pkgs) == 0 || len(run) == 0 {
		return nil, nil
	}
	g := Build(TypeCheck(s.Path, pkgs))
	var out []lint.Finding
	for _, p := range run {
		out = append(out, p.Run(g, sup)...)
	}
	return out, g.Mod.Errs
}

// Verb is the argument shape of one annotation verb in a pass's table.
type Verb struct {
	// Kind requires a lowercase kebab-case resource kind as the first
	// argument; Example shows the arguments in the missing-argument message.
	Kind    bool
	Example string
	// Roles, when non-empty (with Kind set), requires a second argument
	// from this list.
	Roles []string
}

// Directive is one parsed //<pass>:<verb> doc-comment annotation bound to
// its function.
type Directive struct {
	Verb string
	Kind string // "" for verbs without a kind
	Role string // "" for verbs without a role
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *lint.Package
	Pos  token.Pos // the directive comment
}

// kindRE constrains resource kinds to lowercase kebab-case so typos like a
// stray colon or capitalized kind don't silently create a new resource class.
var kindRE = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// Directives parses every //<name>:<verb> line in the module's function doc
// comments against the verb table, in deterministic (load) order. Malformed
// directives — an unknown verb, a missing or malformed argument, or a
// directive on a declaration the type-checker could not resolve — come
// back as findings under rule name rather than as silently dropped
// annotations.
func Directives(m *Module, name string, verbs map[string]Verb) ([]*Directive, []lint.Finding) {
	var dirs []*Directive
	var bad []lint.Finding
	for _, p := range m.Pkgs {
		for _, f := range NonTestFiles(p) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, name+":")
					if !ok {
						continue
					}
					dir, msg := parseDirective(name, rest, verbs)
					if msg == "" {
						if dir.Fn, _ = m.Info.Defs[fd.Name].(*types.Func); dir.Fn == nil {
							msg = "//" + name + ":" + dir.Verb + " directive on a declaration the type-checker could not resolve"
						}
					}
					if msg != "" {
						bad = append(bad, lint.Finding{Pos: p.Fset.Position(c.Pos()), Rule: name, Msg: msg})
						continue
					}
					dir.Decl, dir.Pkg, dir.Pos = fd, p, c.Pos()
					dirs = append(dirs, dir)
				}
			}
		}
	}
	return dirs, bad
}

// parseDirective splits the text after "<name>:" into a directive, or an
// error message for the finding.
func parseDirective(name, rest string, verbs map[string]Verb) (*Directive, string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "empty //" + name + ": directive"
	}
	d := &Directive{Verb: fields[0]}
	v, ok := verbs[d.Verb]
	if !ok {
		return nil, "unknown //" + name + ": directive " + quote(d.Verb)
	}
	if !v.Kind {
		return d, ""
	}
	at := "//" + name + ":" + d.Verb
	if len(fields) < 2 || len(v.Roles) > 0 && len(fields) < 3 {
		what := "a kind"
		if len(v.Roles) > 0 {
			what = "a kind and a role"
		}
		return nil, at + " needs " + what + " (e.g. " + at + " " + v.Example + ")"
	}
	if d.Kind = fields[1]; !kindRE.MatchString(d.Kind) {
		return nil, at + " kind " + quote(d.Kind) + " must be lowercase kebab-case"
	}
	if len(v.Roles) == 0 {
		return d, ""
	}
	d.Role = fields[2]
	quoted := make([]string, len(v.Roles))
	for i, r := range v.Roles {
		if r == d.Role {
			return d, ""
		}
		quoted[i] = quote(r)
	}
	return nil, at + " role " + quote(d.Role) + " must be " + strings.Join(quoted, " or ")
}

// quote wraps a token for an error message.
func quote(s string) string { return `"` + s + `"` }
