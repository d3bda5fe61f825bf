package moddet

import (
	"go/ast"
	"go/types"
	"regexp"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// sinkVerbs is the //moddet: annotation table. A sink declares a
// determinism-critical function: anything transitively reachable from its
// body must be free of nondeterminism roots. It goes in the function's doc
// comment:
//
//	//moddet:sink trace export must stay byte-identical across runs
//	func (t *Tracer) WriteChromeJSON(w io.Writer) error { ... }
var sinkVerbs = map[string]modgraph.Verb{"sink": {}}

// collectSinks parses the //moddet:sink directives. Directives the
// type-checker could not resolve, and sinks without a body to audit, are
// reported rather than silently dropped.
func collectSinks(m *modgraph.Module) ([]*modgraph.Directive, []lint.Finding) {
	dirs, bad := modgraph.Directives(m, "moddet", sinkVerbs)
	var sinks []*modgraph.Directive
	for _, d := range dirs {
		if d.Decl.Body == nil {
			bad = append(bad, lint.Finding{
				Pos:  d.Pkg.Fset.Position(d.Decl.Pos()),
				Rule: "moddet",
				Msg:  "//moddet:sink directive on a bodyless declaration has nothing to audit",
			})
			continue
		}
		sinks = append(sinks, d)
	}
	return sinks, bad
}

// guardRE matches the field annotation "// guarded by <mutexField>" in a
// struct field's trailing or doc comment.
var guardRE = regexp.MustCompile(`\bguarded by ([A-Za-z_][A-Za-z0-9_]*)\b`)

// guardedField is one struct field annotated "// guarded by <mu>": every
// access anywhere in the module must happen with <mu> held, either locally
// or in every caller (checked interprocedurally by lockflow).
type guardedField struct {
	structName string // the declaring struct type's name
	pkg        *lint.Package
	field      *types.Var // the guarded field's object
	mutexName  string
	mutex      *types.Var // the guarding mutex field's object
}

// collectGuards scans struct declarations for guarded-by annotations and
// resolves both sides to their field objects. An annotation naming a field
// that does not exist in the same struct is itself a finding.
func collectGuards(m *modgraph.Module) ([]*guardedField, []lint.Finding) {
	var guards []*guardedField
	var bad []lint.Finding
	for _, p := range m.Pkgs {
		for _, sf := range p.Files {
			if sf.IsTest {
				continue
			}
			ast.Inspect(sf.AST, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				// Index the struct's named fields for mutex resolution.
				fieldVar := make(map[string]*types.Var)
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if v, ok := m.Info.Defs[name].(*types.Var); ok {
							fieldVar[name.Name] = v
						}
					}
				}
				for _, f := range st.Fields.List {
					mu, ok := guardAnnotation(f)
					if !ok {
						continue
					}
					mutex := fieldVar[mu]
					if mutex == nil {
						bad = append(bad, lint.Finding{
							Pos:  p.Fset.Position(f.Pos()),
							Rule: "lockflow",
							Msg:  "// guarded by " + mu + " names no field of struct " + ts.Name.Name,
						})
						continue
					}
					for _, name := range f.Names {
						v, ok := m.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						guards = append(guards, &guardedField{
							structName: ts.Name.Name,
							pkg:        p,
							field:      v,
							mutexName:  mu,
							mutex:      mutex,
						})
					}
				}
				return true
			})
		}
	}
	return guards, bad
}

// guardAnnotation extracts the mutex name from a field's comments.
func guardAnnotation(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardRE.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}
