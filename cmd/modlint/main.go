// Command modlint runs the project's static-analysis suite (internal/lint)
// over the module: rules the Go compiler cannot enforce but the simulation
// depends on — simulated-clock discipline, guest-memory aliasing, error
// prefixes, goroutine hygiene, and the whole-program audits: moddet
// (determinism, and "// guarded by" fields held across calls), modsafe
// (soundness: lock order, locks and annotated resources released on every
// path, charged work), and modown (ownership). Copied mutexes are left to
// go vet's copylocks check. See docs/static-analysis.md.
//
// Usage:
//
//	modlint [-list] [-json] [-sarif file] [-run rule,...] [packages]
//
// Accepts "./..." (the whole module, the default) or individual package
// directories. Prints one "file:line: [rule] message" line per finding —
// or, with -json, a machine-readable array of
// {file, line, col, analyzer, message, severity} objects (the shape the CI
// problem matcher and artifact consumers read) — and exits 1 when anything
// is found, 2 on usage or load errors. -sarif additionally writes a SARIF
// 2.1.0 log to the given file (regardless of findings), the format GitHub
// code scanning ingests.
//
// -run restricts the run to an exact comma-separated list of rule names
// (as printed by -list): only analyzers and passes owning a named rule
// execute, and only findings under the named rules are reported.
// //modlint:ignore directives naming any other rule stay valid. A name
// that matches no rule is a usage error — a typo must not silently pass CI.
//
// The moddet/modsafe/modown whole-program passes need to see every package
// at once, so they run only when the whole module is loaded (the "./..."
// default), over one type-check and one call graph (modgraph.Suite);
// explicit package-directory runs get the per-package rules alone.
// Whole-program analysis degrades gracefully on type-check failures:
// affected packages drop out of the interprocedural passes, the substrate
// errors go to stderr, and a run with errors but no findings exits 2
// rather than reporting a clean bill it cannot back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"modchecker/internal/lint"
	"modchecker/internal/lint/moddet"
	"modchecker/internal/lint/modgraph"
	"modchecker/internal/lint/modown"
	"modchecker/internal/lint/modsafe"
)

// passes is the whole-program pass set, in -list order.
var passes = []modgraph.Pass{moddet.Pass, modsafe.Pass, modown.Pass}

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "modlint:", err)
		os.Exit(2)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the driver: it lints the module containing wd as args direct and
// returns the exit code (0 clean, 1 findings, 2 usage or load error).
func run(wd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("modlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the rules and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text lines")
	sarifOut := fs.String("sarif", "", "also write a SARIF 2.1.0 log to this `file`")
	runFilter := fs.String("run", "", "run only these exact `rule,...` names (see -list); an unknown name is an error")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: modlint [-list] [-json] [-sarif file] [-run rule,...] [./... | package dirs]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "modlint:", err)
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name(), a.Doc())
		}
		for _, p := range passes {
			for _, r := range p.Rules {
				fmt.Fprintf(stdout, "%-18s %s\n", r, p.Name+": "+p.Doc)
			}
		}
		return 0
	}

	only, err := parseRunFilter(*runFilter, analyzers)
	if err != nil {
		return fail(err)
	}
	root, err := moduleRoot(wd)
	if err != nil {
		return fail(err)
	}
	pkgs, wholeModule, err := load(root, wd, fs.Args())
	if err != nil {
		return fail(err)
	}
	// Whole-program rules run only over the whole module; a run over
	// package directories still learns their names, so directives naming
	// them are not reported as unknown.
	var mod lint.ModuleAnalyzer = lint.KnownRules(modgraph.Suite{Passes: passes}.Rules())
	if wholeModule {
		mod = modgraph.Suite{Path: modgraph.ReadModulePath(root), Passes: passes}
	}

	findings, errs := lint.RunAll(pkgs, analyzers, mod, only)
	for _, e := range errs {
		fmt.Fprintln(stderr, "modlint: substrate:", e)
	}
	relativize(root, findings)
	if *sarifOut != "" {
		if err := writeSARIFFile(*sarifOut, findings); err != nil {
			return fail(err)
		}
	}
	if *jsonOut {
		if err := writeJSON(stdout, findings); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "modlint: %d finding(s)\n", len(findings))
		return 1
	}
	if len(errs) > 0 {
		// No findings, but parts of the module never got analyzed: that is
		// not a clean bill.
		return 2
	}
	return 0
}

// parseRunFilter validates a -run spec against the full rule universe
// (per-package analyzer names plus every whole-program rule) and returns
// the selected set, or nil when no filter was given. An unknown or empty
// name is an error: a typo in CI must fail loudly, not run nothing.
func parseRunFilter(spec string, analyzers []lint.Analyzer) (map[string]bool, error) {
	if spec == "" {
		return nil, nil
	}
	known := modgraph.Suite{Passes: passes}.Rules()
	for _, a := range analyzers {
		known = append(known, a.Name())
	}
	sort.Strings(known)
	selected := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-run: empty rule name in %q", spec)
		}
		if i := sort.SearchStrings(known, name); i == len(known) || known[i] != name {
			return nil, fmt.Errorf("-run: unknown rule %q (known rules: %s)", name, strings.Join(known, ", "))
		}
		selected[name] = true
	}
	return selected, nil
}

// relativize rewrites finding paths to be module-root-relative, the form CI
// problem matchers and diff annotations want.
func relativize(root string, findings []lint.Finding) {
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// jsonFinding is the -json output shape; field order is the contract.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// writeJSON renders findings as an indented JSON array ("[]" when clean).
func writeJSON(w io.Writer, findings []lint.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Rule,
			Message:  f.Msg,
			Severity: "error",
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// load resolves package patterns. "./..." (or no arguments) loads the whole
// module; any other argument is a package directory, with a trailing
// "/..." loading it recursively. The second result reports whether the
// whole module was loaded (the precondition for the moddet passes).
func load(root, wd string, patterns []string) ([]*lint.Package, bool, error) {
	fset := token.NewFileSet()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wholeModule := false
	var pkgs []*lint.Package
	seen := make(map[string]bool)
	add := func(ps []*lint.Package) {
		for _, p := range ps {
			if !seen[p.Dir] {
				seen[p.Dir] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			ps, err := lint.LoadModule(fset, root)
			if err != nil {
				return nil, false, err
			}
			wholeModule = true
			add(ps)
		case strings.HasSuffix(pat, "/..."):
			dir, err := resolveDir(root, wd, strings.TrimSuffix(pat, "/..."))
			if err != nil {
				return nil, false, err
			}
			ps, err := lint.LoadModule(fset, dir)
			if err != nil {
				return nil, false, err
			}
			// LoadModule computed RelDir against dir; recompute against root.
			for _, p := range ps {
				rel, err := filepath.Rel(root, p.Dir)
				if err != nil {
					return nil, false, err
				}
				if rel == "." {
					rel = ""
				}
				p.RelDir = filepath.ToSlash(rel)
			}
			add(ps)
		default:
			dir, err := resolveDir(root, wd, pat)
			if err != nil {
				return nil, false, err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, false, err
			}
			if rel == "." {
				rel = ""
			}
			p, err := lint.LoadPackage(fset, dir, rel)
			if err != nil {
				return nil, false, err
			}
			if p == nil {
				return nil, false, fmt.Errorf("no Go files in %s", dir)
			}
			add([]*lint.Package{p})
		}
	}
	return pkgs, wholeModule, nil
}

func resolveDir(root, wd, pat string) (string, error) {
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(wd, pat)
	}
	info, err := os.Stat(dir)
	if err != nil || !info.IsDir() {
		return "", fmt.Errorf("not a package directory: %s", pat)
	}
	if rel, err := filepath.Rel(root, dir); err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside the module", pat)
	}
	return dir, nil
}
