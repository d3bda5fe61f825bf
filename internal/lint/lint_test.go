package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture parses one testdata package, assigning it the RelDir the
// scope rules should see.
func loadFixture(t *testing.T, dir, relDir string) *Package {
	t.Helper()
	p, err := LoadPackage(token.NewFileSet(), filepath.Join("testdata", dir), relDir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if p == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	return p
}

// wantRE matches expectation comments in fixtures:
//
//	// want <rule> "message substring"
//	// want <rule> 'message substring'
//
// Several wants may share a line; the payload is optional.
var wantRE = regexp.MustCompile(`want ([a-z-]+)(?:\s+(?:"([^"]*)"|'([^']*)'))?`)

type expectation struct {
	rule   string
	substr string
	met    bool
}

// parseWants scans the fixture sources for expectation comments, keyed by
// file:line.
func parseWants(t *testing.T, p *Package) map[string][]*expectation {
	t.Helper()
	out := make(map[string][]*expectation)
	for _, sf := range p.Files {
		src, err := os.ReadFile(sf.Path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if !strings.Contains(line, "// want ") {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", sf.Path, i+1)
				out[key] = append(out[key], &expectation{rule: m[1], substr: m[2] + m[3]})
			}
		}
	}
	return out
}

// TestAnalyzerFixtures runs the full rule set over each fixture package
// and matches findings against the // want comments: every want must be
// hit, and no finding may be unexplained. Known-good files carry no wants,
// so any finding in them fails the test.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name   string
		dir    string
		relDir string
	}{
		{"clockdiscipline", "clockdiscipline", "internal/clockfix"},
		{"clockdiscipline", "clockstrict", "internal/trace"},
		{"sliceescape", "sliceescape", "internal/mm"},
		{"errprefix", "errprefix", "internal/errfix"},
		{"goroutinecapture", "goroutinecapture", "internal/gofix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, tc.dir, tc.relDir)
			wants := parseWants(t, p)
			findings := Run([]*Package{p}, Analyzers())

			sawRule := false
			for _, f := range findings {
				if f.Rule == tc.name {
					sawRule = true
				}
				key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
				matched := false
				for _, w := range wants[key] {
					if !w.met && w.rule == f.Rule && strings.Contains(f.Msg, w.substr) {
						w.met = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !w.met {
						t.Errorf("%s: expected [%s] %q, not reported", key, w.rule, w.substr)
					}
				}
			}
			if !sawRule {
				t.Errorf("fixture produced no %s finding; the known-bad corpus must demonstrate its rule", tc.name)
			}
		})
	}
}

// TestIgnoreDirectives exercises the //modlint:ignore escape hatch: valid
// directives (trailing or on the preceding line) suppress exactly their
// rule; malformed or unknown-rule directives suppress nothing and are
// findings themselves.
func TestIgnoreDirectives(t *testing.T) {
	p := loadFixture(t, "ignore", "internal/ignorefix")
	findings := Run([]*Package{p}, Analyzers())

	type key struct {
		file string
		line int
		rule string
	}
	got := make(map[key]bool)
	for _, f := range findings {
		got[key{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule}] = true
	}
	want := []key{
		{"ignored.go", 18, "clockdiscipline"},    // no directive
		{"ignored.go", 23, "clockdiscipline"},    // directive names the wrong rule
		{"malformed.go", 8, "ignore-directive"},  // reason missing
		{"malformed.go", 9, "clockdiscipline"},   // malformed directive suppresses nothing
		{"malformed.go", 13, "ignore-directive"}, // unknown rule
		{"malformed.go", 14, "clockdiscipline"},
	}
	for _, k := range want {
		if !got[k] {
			t.Errorf("missing expected finding %s:%d [%s]", k.file, k.line, k.rule)
		}
		delete(got, k)
	}
	for k := range got {
		t.Errorf("unexpected finding %s:%d [%s] (should be suppressed?)", k.file, k.line, k.rule)
	}
}

// TestKnownBadCorpusFails is the driver-level guarantee: running the suite
// over the known-bad corpus yields a non-empty finding list (the condition
// under which cmd/modlint exits non-zero).
func TestKnownBadCorpusFails(t *testing.T) {
	dirs := []struct{ dir, relDir string }{
		{"clockdiscipline", "internal/clockfix"},
		{"clockstrict", "internal/trace"},
		{"sliceescape", "internal/mm"},
		{"errprefix", "internal/errfix"},
		{"goroutinecapture", "internal/gofix"},
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkgs = append(pkgs, loadFixture(t, d.dir, d.relDir))
	}
	findings := Run(pkgs, Analyzers())
	perRule := make(map[string]int)
	for _, f := range findings {
		perRule[f.Rule]++
	}
	for _, a := range Analyzers() {
		if perRule[a.Name()] == 0 {
			t.Errorf("corpus has no %s finding", a.Name())
		}
	}
	if len(findings) == 0 {
		t.Fatal("known-bad corpus produced no findings; modlint would exit 0")
	}
}

// TestFindingFormat pins the driver's output contract.
func TestFindingFormat(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "x/y.go", Line: 7},
		Rule: "errprefix",
		Msg:  "boom",
	}
	if got, want := f.String(), "x/y.go:7: [errprefix] boom"; got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

// TestRepoIsClean runs the full suite over the real module: the tree must
// stay lint-clean so the CI gate stays green. A legitimate exception needs
// a //modlint:ignore directive with a reason, not a skipped test.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	pkgs, err := LoadModule(token.NewFileSet(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	findings, _ := RunAll(pkgs, Analyzers(), downstreamRules{}, nil)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// emitStub is a ModuleAnalyzer that reports a fixed finding list, for
// exercising RunAll's merge behavior without real packages.
type emitStub struct{ fs []Finding }

func (e emitStub) Rules() []string { return []string{"emit"} }
func (e emitStub) CheckModule([]*Package, SuppressionSet, map[string]bool) ([]Finding, []error) {
	return e.fs, nil
}

// TestRunAllOrdersAndDedupes pins the merged stream's contract: findings are
// sorted by (file, line, column, rule, message) — column before rule, so
// diagnostics read in source order even when analyzers disagree
// alphabetically — and byte-identical findings collapse to one.
func TestRunAllOrdersAndDedupes(t *testing.T) {
	at := func(file string, line, col int, rule, msg string) Finding {
		return Finding{Pos: token.Position{Filename: file, Line: line, Column: col}, Rule: rule, Msg: msg}
	}
	in := []Finding{
		at("b.go", 1, 1, "aaa", "second file sorts last"),
		at("a.go", 9, 4, "aaa", "later column loses to earlier column despite rule order"),
		at("a.go", 9, 2, "zzz", "earlier column wins"),
		at("a.go", 9, 2, "emit", "duplicated"),
		at("a.go", 9, 2, "emit", "duplicated"),
		at("a.go", 3, 7, "emit", "earlier line"),
	}
	want := []Finding{
		at("a.go", 3, 7, "emit", "earlier line"),
		at("a.go", 9, 2, "emit", "duplicated"),
		at("a.go", 9, 2, "zzz", "earlier column wins"),
		at("a.go", 9, 4, "aaa", "later column loses to earlier column despite rule order"),
		at("b.go", 1, 1, "aaa", "second file sorts last"),
	}
	got, _ := RunAll(nil, nil, emitStub{fs: in}, nil)
	if len(got) != len(want) {
		t.Fatalf("RunAll returned %d findings, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// downstreamRules registers the rule names of the whole-program passes the
// cmd/modlint driver adds (moddet, modsafe, modown) without importing them
// — they depend on this package, so the real suite cannot ride along here.
// Registering the names keeps ignore directives targeting those rules from
// tripping the ignore-directive hygiene check under this reduced run.
type downstreamRules struct{}

func (downstreamRules) Rules() []string {
	return []string{"moddet", "maporder", "lockflow", "lockorder", "releasetrack", "chargeflow", "modsafe",
		"poolflow", "atomicfield", "aliasfree", "modown"}
}
func (downstreamRules) CheckModule([]*Package, SuppressionSet, map[string]bool) ([]Finding, []error) {
	return nil, nil
}
