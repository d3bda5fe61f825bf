package modown_test

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

// fixtureModule is the module path of the testdata fixture tree; modown
// resolves ownmod/... imports against the loaded package set.
const fixtureModule = "ownmod"

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

// check runs the modown pass alone over pkgs, through the modgraph.Suite entry
// point cmd/modlint uses (one type-check, one call graph).
func check(modulePath string, pkgs []*lint.Package) ([]lint.Finding, []error) {
	return lint.RunAll(pkgs, nil, modgraph.Suite{Path: modulePath, Passes: []modgraph.Pass{modown.Pass}}, nil)
}

// repoFindings runs every whole-program pass over the real module, as
// cmd/modlint does, and reports only the modown rules.
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
	for _, r := range modown.Pass.Rules {
		only[r] = true
	}
	findings, errs := lint.RunAll(pkgs, lint.Analyzers(), all, only)
	for _, e := range errs {
		t.Errorf("substrate: %v", e)
	}
	return findings
}

// wantRE mirrors the moddet/modsafe fixture convention:
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

// TestModownFixtures runs the analyzer over the fixture module and matches
// findings against the // want comments: every want must be hit, no
// finding may be unexplained, and each of the four rules must fire at
// least once — the corpus is the proof that a use-after-put, a plain read
// of an atomic counter, or a mutated zero-copy window is caught.
func TestModownFixtures(t *testing.T) {
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
	for _, rule := range modown.Pass.Rules {
		if perRule[rule] == 0 {
			t.Errorf("fixture corpus produced no %s finding", rule)
		}
	}
}

// TestModownGolden pins the full diagnostic output over the fixture corpus
// byte for byte: message wording, ordering, path rendering. Regenerate
// deliberately with `go test ./internal/lint/modown -run Golden -update`;
// the CI staleness guard regenerates into MODLINT_GOLDEN_DIR and diffs
// against the committed file.
func TestModownGolden(t *testing.T) {
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

// putInterplaySrc seeds the cross-function suppression hazard: the helper
// suppresses poolflow at its own put line, but the caller's obligation was
// never handed over (helper is not //modown:transfer), so the caller's
// leak must still fire — a //modlint:ignore is a positional filter, never
// a semantic fact that flows to other functions.
const putInterplaySrc = `package interplay

import "sync"

var p = sync.Pool{New: func() any { b := make([]byte, 8); return &b }}

//modown:pool buf get
func getBuf() []byte { bp := p.Get().(*[]byte); return *bp }

//modown:pool buf put
func putBuf(b []byte) { p.Put(&b) }

func helper(b []byte) {
	//modlint:ignore poolflow callee-local waiver for harness buffers
	putBuf(b)
}

func caller() {
	b := getBuf()
	helper(b)
}
`

// TestPutSuppressionDoesNotDischargeCaller runs the satellite scenario:
// exactly one poolflow leak at the caller's get line survives, and the
// suppressed helper contributes nothing.
func TestPutSuppressionDoesNotDischargeCaller(t *testing.T) {
	findings := runInline(t, "interplay", putInterplaySrc)
	var leaks []lint.Finding
	for _, f := range findings {
		if f.Rule != "poolflow" {
			t.Errorf("unexpected non-poolflow finding: %s", f)
			continue
		}
		leaks = append(leaks, f)
	}
	if len(leaks) != 1 || !strings.Contains(leaks[0].Msg, "pool leak") {
		t.Fatalf("expected exactly one pool-leak finding at the caller, got %v", leaks)
	}
	if leaks[0].Pos.Line != 19 {
		t.Errorf("leak reported at line %d, want the caller's get line 19", leaks[0].Pos.Line)
	}
}

// TestSuppressedGetPropagatesNoFacts is the other direction: ignoring
// poolflow at the get site silences every downstream fact from that
// obligation (no use-after-put, no leak), while an aliasfree violation in
// the same function still fires.
func TestSuppressedGetPropagatesNoFacts(t *testing.T) {
	src := `package interplay2

import "sync"

var p = sync.Pool{New: func() any { b := make([]byte, 8); return &b }}

var window = make([]byte, 64)

//modown:pool buf get
func getBuf() []byte { bp := p.Get().(*[]byte); return *bp }

//modown:pool buf put
func putBuf(b []byte) { p.Put(&b) }

//modown:borrowed
func view() []byte { return window }

func f() {
	//modlint:ignore poolflow harness-owned buffer
	b := getBuf()
	putBuf(b)
	putBuf(b)
	w := view()
	w[0] = 1
}
`
	findings := runInline(t, "interplay2", src)
	sawMutation := false
	for _, f := range findings {
		switch f.Rule {
		case "poolflow":
			t.Errorf("suppressed get site still propagated a fact: %s", f)
		case "aliasfree":
			sawMutation = true
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if !sawMutation {
		t.Error("aliasfree mutation was swallowed by a poolflow suppression")
	}
}

// runInline type-checks a single synthetic source file through the full
// RunAll pipeline, as the interplay tests in modsafe do.
func runInline(t *testing.T, name, src string) []lint.Finding {
	t.Helper()
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, name+".go", src,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	p := &lint.Package{
		Name:  name,
		Dir:   name,
		Fset:  fset,
		Files: []*lint.SourceFile{{Path: name + ".go", AST: af}},
	}
	findings, _ := check(name, []*lint.Package{p})
	return findings
}

// TestRunAllErrsSeparatesFindingsFromErrors loads the deliberately broken
// fixture module: the good package carries a real atomicfield defect, the
// bad package does not type-check. Findings and substrate errors must both
// surface — a type-check failure must not silently mask every finding
// from the healthy packages.
func TestRunAllErrsSeparatesFindingsFromErrors(t *testing.T) {
	pkgs, err := lint.LoadModule(token.NewFileSet(), filepath.Join("testdata", "brokenmod"))
	if err != nil {
		t.Fatalf("loading broken fixture module: %v", err)
	}
	findings, errs := check("brokenmod", pkgs)

	sawAtomic := false
	for _, f := range findings {
		if f.Rule == "atomicfield" && strings.Contains(f.Msg, "accessed plainly here") {
			sawAtomic = true
		}
	}
	if !sawAtomic {
		t.Errorf("healthy package's atomicfield finding was masked; findings: %v", findings)
	}
	if len(errs) == 0 {
		t.Error("type-check failure in the broken package surfaced no substrate error")
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "bad") && !strings.Contains(e.Error(), "undefined") {
			t.Errorf("unexpected substrate error: %v", e)
		}
	}
}

// TestRepoIsCleanModown runs the whole-program ownership audit over the
// real module: the annotated pool accessors, transfer sinks, and borrowed
// producers must stay clean. A legitimate exception needs a
// //modlint:ignore directive with a reason.
func TestRepoIsCleanModown(t *testing.T) {
	for _, f := range repoFindings(t) {
		t.Errorf("%s", f)
	}
}

// FuzzModown feeds arbitrary parseable Go through the whole analyzer:
// partial type information, directive soup, pathological pool flows —
// none of it may panic. Seeds are the fixture corpus plus shapes that
// stress each pass.
func FuzzModown(f *testing.F) {
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
	f.Add("package p\nimport \"sync\"\nvar p sync.Pool\nfunc f() { b := p.Get(); p.Put(b); p.Put(b) }\n")
	f.Add("package p\n//modown:pool buf get\nfunc G() []byte { return nil }\n")
	f.Add("package p\n//modown:borrowed\nfunc V() []byte { return nil }\nfunc f() { V()[0] = 1 }\n")
	f.Add("package p\nimport \"sync/atomic\"\nvar n int64\nfunc f() { atomic.AddInt64(&n, 1); n = 2 }\n")

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
