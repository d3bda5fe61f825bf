package modown

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// modown annotations live in function doc comments and declare the
// ownership contracts the analyzers check:
//
//	//modown:pool <kind> get [reason]
//	//modown:pool <kind> put [reason]
//	    poolflow: a get accessor hands out a pooled value of <kind>; the
//	    caller owns it until a matching put accessor recycles it, a
//	    //modown:transfer callee takes it over, or it is returned from a
//	    function that is itself annotated get for the kind. Inside an
//	    annotated accessor the raw sync.Pool traffic is the implementation
//	    of the contract and is not tracked.
//
//	//modown:transfer <kind> [reason]
//	    poolflow: calling this function moves ownership of any pooled
//	    <kind> argument into the callee (it stores the value in a struct it
//	    owns and recycles it later); the caller's obligation is discharged.
//
//	//modown:borrowed [reason]
//	    aliasfree: this function returns a zero-copy view of memory owned
//	    elsewhere (a zero-copy window, a CoW frame layer). Callers must
//	    not mutate, append to, or recycle the result, and may only return
//	    it from functions that carry the same annotation.
//
// Malformed directives — unknown verbs, a missing kind or role, or a
// directive on a declaration the type-checker could not resolve — are
// findings under the "modown" rule, as is a pool kind with a get accessor
// but no put (or the reverse): a one-sided pool is a contract nothing can
// satisfy.

// verbs is the //modown: annotation table.
var verbs = map[string]modgraph.Verb{
	"pool":     {Kind: true, Example: "fetch-buf get", Roles: []string{"get", "put"}},
	"transfer": {Kind: true, Example: "fetch-buf"},
	"borrowed": {},
}

// annotations indexes every directive in the module. The iface maps extend
// each contract to module-declared interface methods whose implementations
// carry it, so calls through an interface (s.h.MapRange) resolve the same
// as direct calls.
type annotations struct {
	poolGet  map[*types.Func]*modgraph.Directive
	poolPut  map[*types.Func]*modgraph.Directive
	transfer map[*types.Func]*modgraph.Directive
	borrowed map[*types.Func]*modgraph.Directive
	// annotated marks declarations carrying any pool directive; their
	// bodies implement the contract and are exempt from intrinsic
	// sync.Pool tracking.
	annotated map[*ast.FuncDecl]bool
	order     []*modgraph.Directive // deterministic (load) order
}

// collectDirectives parses every //modown: line in function doc comments
// and runs the pairing hygiene check.
func collectDirectives(m *modgraph.Module) (*annotations, []lint.Finding) {
	ann := &annotations{
		poolGet:   make(map[*types.Func]*modgraph.Directive),
		poolPut:   make(map[*types.Func]*modgraph.Directive),
		transfer:  make(map[*types.Func]*modgraph.Directive),
		borrowed:  make(map[*types.Func]*modgraph.Directive),
		annotated: make(map[*ast.FuncDecl]bool),
	}
	dirs, bad := modgraph.Directives(m, "modown", verbs)
	for _, d := range dirs {
		switch {
		case d.Verb == "pool" && d.Role == "get":
			ann.poolGet[d.Fn] = d
			ann.annotated[d.Decl] = true
		case d.Verb == "pool":
			ann.poolPut[d.Fn] = d
			ann.annotated[d.Decl] = true
		case d.Verb == "transfer":
			ann.transfer[d.Fn] = d
		case d.Verb == "borrowed":
			ann.borrowed[d.Fn] = d
		}
	}
	ann.order = dirs
	bad = append(bad, ann.pairingCheck()...)
	extendToInterfaces(m, ann)
	return ann, bad
}

// pairingCheck flags pool kinds declared with only one side of the
// get/put pair, and transfer kinds that name no declared pool.
func (a *annotations) pairingCheck() []lint.Finding {
	gets := make(map[string]bool)
	puts := make(map[string]bool)
	for _, d := range a.poolGet {
		gets[d.Kind] = true
	}
	for _, d := range a.poolPut {
		puts[d.Kind] = true
	}
	var bad []lint.Finding
	for _, d := range a.order {
		switch {
		case d.Verb == "pool" && d.Role == "get" && !puts[d.Kind]:
			bad = append(bad, lint.Finding{
				Pos:  d.Pkg.Fset.Position(d.Pos),
				Rule: "modown",
				Msg:  fmt.Sprintf("pool kind %q has a get accessor but no //modown:pool %s put", d.Kind, d.Kind),
			})
		case d.Verb == "pool" && d.Role == "put" && !gets[d.Kind]:
			bad = append(bad, lint.Finding{
				Pos:  d.Pkg.Fset.Position(d.Pos),
				Rule: "modown",
				Msg:  fmt.Sprintf("pool kind %q has a put accessor but no //modown:pool %s get", d.Kind, d.Kind),
			})
		case d.Verb == "transfer" && !gets[d.Kind]:
			bad = append(bad, lint.Finding{
				Pos:  d.Pkg.Fset.Position(d.Pos),
				Rule: "modown",
				Msg:  fmt.Sprintf("//modown:transfer names pool kind %q, which has no get accessor", d.Kind),
			})
		}
	}
	return bad
}

// extendToInterfaces maps each annotated concrete method's contract onto
// module-declared interface methods it implements, so dynamic dispatch
// sites resolve annotations the same way direct calls do.
func extendToInterfaces(m *modgraph.Module, ann *annotations) {
	type ifaceMethod struct {
		iface *types.Interface
		fn    *types.Func
	}
	var methods []ifaceMethod
	for _, p := range m.Pkgs {
		tp, ok := m.TypesOf[p]
		if !ok {
			continue
		}
		scope := tp.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				methods = append(methods, ifaceMethod{iface, iface.Method(i)})
			}
		}
	}
	extend := func(dst map[*types.Func]*modgraph.Directive) {
		var fns []*types.Func
		for fn := range dst {
			fns = append(fns, fn)
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		for _, fn := range fns {
			d := dst[fn]
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil {
				continue
			}
			recv := sig.Recv().Type()
			for _, im := range methods {
				if im.fn.Name() != fn.Name() {
					continue
				}
				if !types.Implements(recv, im.iface) && !types.Implements(types.NewPointer(recv), im.iface) {
					continue
				}
				if _, taken := dst[im.fn]; !taken {
					dst[im.fn] = d
				}
			}
		}
	}
	extend(ann.poolGet)
	extend(ann.poolPut)
	extend(ann.transfer)
	extend(ann.borrowed)
}
