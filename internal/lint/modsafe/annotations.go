package modsafe

import (
	"go/types"

	"modchecker/internal/lint"
	"modchecker/internal/lint/modgraph"
)

// modsafe annotations live in function doc comments and declare the three
// contracts the analyzers check:
//
//	//modsafe:acquires <kind> [reason]
//	//modsafe:releases <kind> [reason]
//	    releasetrack: calling an acquires function creates an obligation of
//	    <kind> on the result (or the receiver for resultless methods) that
//	    every path must discharge via a matching releases call.
//
//	//modsafe:charged <reason>
//	    chargeflow: this function is an entry point whose transitive work
//	    must be charged to the simulated clock.
//
//	//modsafe:charges <reason>
//	    chargeflow: calling this function charges the clock; a caller that
//	    invokes it is considered paid for, subtree included.
//
//	//modsafe:spends <reason>
//	    chargeflow: this function performs physical work (guest reads, page
//	    walks, TLB fills) without charging; reaching it from a charged root
//	    through uncharging functions is a finding.
//
// Lock/RLock on a sync.Mutex or sync.RWMutex needs no annotation: it is a
// built-in acquires (see releasetrack.go).
//
// Malformed directives — unknown verbs, a missing kind, or a directive on a
// declaration the type-checker could not resolve — are findings under the
// "modsafe" rule rather than silently ignored annotations.

// verbs is the //modsafe: annotation table.
var verbs = map[string]modgraph.Verb{
	"acquires": {Kind: true, Example: "sweep-session"},
	"releases": {Kind: true, Example: "sweep-session"},
	"charged":  {},
	"charges":  {},
	"spends":   {},
}

// annotations indexes every directive in the module by verb.
type annotations struct {
	// acquires/releases map each annotated function to its resource kind.
	acquires map[*types.Func]*modgraph.Directive
	releases map[*types.Func]*modgraph.Directive
	charged  []*modgraph.Directive // deterministic (load) order
	charges  map[*types.Func]bool
	spends   map[*types.Func]bool
}

// collectDirectives parses every //modsafe: line in function doc comments.
func collectDirectives(m *modgraph.Module) (*annotations, []lint.Finding) {
	ann := &annotations{
		acquires: make(map[*types.Func]*modgraph.Directive),
		releases: make(map[*types.Func]*modgraph.Directive),
		charges:  make(map[*types.Func]bool),
		spends:   make(map[*types.Func]bool),
	}
	dirs, bad := modgraph.Directives(m, "modsafe", verbs)
	for _, d := range dirs {
		switch d.Verb {
		case "acquires":
			ann.acquires[d.Fn] = d
		case "releases":
			ann.releases[d.Fn] = d
		case "charged":
			ann.charged = append(ann.charged, d)
		case "charges":
			ann.charges[d.Fn] = true
		case "spends":
			ann.spends[d.Fn] = true
		}
	}
	return ann, bad
}
