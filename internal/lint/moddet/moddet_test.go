package moddet_test

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"modchecker/internal/lint"
	"modchecker/internal/lint/moddet"
	"modchecker/internal/lint/modgraph"
	"modchecker/internal/lint/modown"
	"modchecker/internal/lint/modsafe"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

// fixtureModule is the module path of the testdata fixture tree; moddet
// resolves detmod/... imports against the loaded package set.
const fixtureModule = "detmod"

func loadFixture(t *testing.T) []*lint.Package {
	t.Helper()
	pkgs, err := lint.LoadModule(token.NewFileSet(), filepath.Join("testdata", fixtureModule))
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	if len(pkgs) < 4 {
		t.Fatalf("fixture module loaded only %d packages", len(pkgs))
	}
	return pkgs
}

func runFixture(t *testing.T) []lint.Finding {
	t.Helper()
	pkgs := loadFixture(t)
	findings, _ := check(fixtureModule, pkgs)
	return findings
}

// check runs the moddet pass alone over pkgs, through the modgraph.Suite entry
// point cmd/modlint uses (one type-check, one call graph).
func check(modulePath string, pkgs []*lint.Package) ([]lint.Finding, []error) {
	return lint.RunAll(pkgs, nil, modgraph.Suite{Path: modulePath, Passes: []modgraph.Pass{moddet.Pass}}, nil)
}

// repoFindings runs every whole-program pass over the real module, as
// cmd/modlint does, and reports only the moddet rules.
func repoFindings(t *testing.T) []lint.Finding {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	pkgs, err := lint.LoadModule(token.NewFileSet(), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	all := modgraph.Suite{
		Path:   modgraph.ReadModulePath(root),
		Passes: []modgraph.Pass{moddet.Pass, modsafe.Pass, modown.Pass},
	}
	only := make(map[string]bool)
	for _, r := range moddet.Pass.Rules {
		only[r] = true
	}
	findings, errs := lint.RunAll(pkgs, lint.Analyzers(), all, only)
	for _, e := range errs {
		t.Errorf("substrate: %v", e)
	}
	return findings
}

// wantRE mirrors the per-package fixture convention:
//
//	// want <rule> "message substring"
//	// want <rule> 'message substring'
var wantRE = regexp.MustCompile(`want ([a-z-]+)(?:\s+(?:"([^"]*)"|'([^']*)'))?`)

type expectation struct {
	rule   string
	substr string
	met    bool
}

func parseWants(t *testing.T, pkgs []*lint.Package) map[string][]*expectation {
	t.Helper()
	out := make(map[string][]*expectation)
	for _, p := range pkgs {
		for _, sf := range p.Files {
			src, err := os.ReadFile(sf.Path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if !strings.Contains(line, "want ") {
					continue
				}
				for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
					key := fmt.Sprintf("%s:%d", sf.Path, i+1)
					out[key] = append(out[key], &expectation{rule: m[1], substr: m[2] + m[3]})
				}
			}
		}
	}
	return out
}

// TestModdetFixtures runs the whole-program analyzer over the fixture
// module and matches findings against the // want comments: every want must
// be hit, no finding may be unexplained, and each of the three rules must
// fire at least once — the corpus is the proof that an injected time.Now in
// a pipeline stage or an unsorted map range in a report writer is caught.
func TestModdetFixtures(t *testing.T) {
	pkgs := loadFixture(t)
	wants := parseWants(t, pkgs)
	findings, _ := check(fixtureModule, pkgs)

	perRule := make(map[string]int)
	for _, f := range findings {
		perRule[f.Rule]++
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
	for _, rule := range moddet.Pass.Rules {
		if perRule[rule] == 0 {
			t.Errorf("fixture corpus produced no %s finding", rule)
		}
	}
}

// TestModdetGolden pins the full diagnostic output over the fixture corpus
// byte for byte: message wording, ordering, call-path rendering. Regenerate
// deliberately with `go test ./internal/lint/moddet -run Golden -update`.
func TestModdetGolden(t *testing.T) {
	var sb strings.Builder
	for _, f := range runFixture(t) {
		fmt.Fprintf(&sb, "%s\n", f)
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", fixtureModule+".golden")
	if dir := os.Getenv("MODLINT_GOLDEN_DIR"); dir != "" {
		goldenPath = filepath.Join(dir, fixtureModule+".golden")
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostic output diverged from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestTaintPathRendering checks the one property the want-substring harness
// cannot: the shortest sink->root call chain appears in the message.
func TestTaintPathRendering(t *testing.T) {
	for _, f := range runFixture(t) {
		if f.Rule != "moddet" || !strings.Contains(f.Msg, "host clock via time.Now") {
			continue
		}
		want := "call path: pipeline.RunStage -> clockutil.Stamp"
		if !strings.Contains(f.Msg, want) {
			t.Errorf("taint message %q lacks %q", f.Msg, want)
		}
		return
	}
	t.Fatal("no host-clock taint finding in fixture output")
}

// TestRepoIsCleanModdet runs the whole-program audit over the real module:
// the annotated sinks and guarded fields must stay clean. A legitimate
// exception needs a //modlint:ignore directive with a reason.
func TestRepoIsCleanModdet(t *testing.T) {
	for _, f := range repoFindings(t) {
		t.Errorf("%s", f)
	}
}

// FuzzModdetTaint feeds arbitrary parseable Go through the whole analyzer:
// partial type information, unresolvable imports, directive soup — none of
// it may panic. Seeds are the fixture corpus plus shapes that stress each
// pass.
func FuzzModdetTaint(f *testing.F) {
	_ = filepath.Walk("testdata", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		if src, err := os.ReadFile(path); err == nil {
			f.Add(string(src))
		}
		return nil
	})
	f.Add("package p\nfunc f() {}\n")
	f.Add("package p\nimport \"nosuch/pkg\"\nfunc f() { pkg.Do() }\n")
	f.Add("package p\n//moddet:sink x\nfunc S()\n")
	f.Add("package p\ntype T struct{ n int /* guarded by mu */ }\n")
	f.Add("package p\nfunc f(m map[int]int) { for k := range m { _ = k } }\n")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		p := &lint.Package{
			Name:  "fuzz",
			Dir:   "fuzz",
			Fset:  fset,
			Files: []*lint.SourceFile{{Path: "fuzz.go", AST: af}},
		}
		check("fuzzmod", []*lint.Package{p})
	})
}
