package modsafe_test

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

// fixtureModule is the module path of the testdata fixture tree; modsafe
// resolves safemod/... imports against the loaded package set.
const fixtureModule = "safemod"

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

// check runs the modsafe pass alone over pkgs, through the modgraph.Suite entry
// point cmd/modlint uses (one type-check, one call graph).
func check(modulePath string, pkgs []*lint.Package) ([]lint.Finding, []error) {
	return lint.RunAll(pkgs, nil, modgraph.Suite{Path: modulePath, Passes: []modgraph.Pass{modsafe.Pass}}, nil)
}

// repoFindings runs every whole-program pass over the real module, as
// cmd/modlint does, and reports only the modsafe rules.
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
	for _, r := range modsafe.Pass.Rules {
		only[r] = true
	}
	findings, errs := lint.RunAll(pkgs, lint.Analyzers(), all, only)
	for _, e := range errs {
		t.Errorf("substrate: %v", e)
	}
	return findings
}

// wantRE mirrors the moddet fixture convention:
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

// TestModsafeFixtures runs the analyzer over the fixture module and matches
// findings against the // want comments: every want must be hit, no finding
// may be unexplained, and each of the four rules must fire at least once —
// the corpus is the proof that an ABBA nesting, a leaked session on an
// error path, or an unpaid guest read is caught.
func TestModsafeFixtures(t *testing.T) {
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
	for _, rule := range modsafe.Pass.Rules {
		if perRule[rule] == 0 {
			t.Errorf("fixture corpus produced no %s finding", rule)
		}
	}
}

// TestModsafeGolden pins the full diagnostic output over the fixture corpus
// byte for byte: message wording, ordering, path rendering. Regenerate
// deliberately with `go test ./internal/lint/modsafe -run Golden -update`.
func TestModsafeGolden(t *testing.T) {
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

// TestLockorderPathRendering checks the property the want-substring harness
// cannot: both acquisition paths of the ABBA cycle appear in the message.
func TestLockorderPathRendering(t *testing.T) {
	for _, f := range runFixture(t) {
		if f.Rule != "lockorder" || !strings.Contains(f.Msg, "lock order cycle: A.mu -> B.mu") {
			continue
		}
		for _, want := range []string{
			"path: locks.TakeAB -> locks.bumpB",
			"path: locks.TakeBA",
		} {
			if !strings.Contains(f.Msg, want) {
				t.Errorf("cycle message %q lacks %q", f.Msg, want)
			}
		}
		return
	}
	t.Fatal("no ABBA cycle finding in fixture output")
}

// suppressionInterplaySrc holds a lockorder suppression, a live releasetrack
// leak on the very next line, and a suppressed chargeflow root. Exactly one
// finding — the leak — must survive: suppressing one analyzer's fact must
// not leak into the others.
const suppressionInterplaySrc = `package interplay

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var a A
var b B

//modsafe:acquires thing test resource
func open() int { return 1 }

//modsafe:releases thing test resource
func closeThing(int) {}

//modsafe:charges test hook
func charge() {}

//modsafe:spends test work
func readPhys() {}

func f(fail bool) {
	a.mu.Lock()
	t := open()
	//modlint:ignore lockorder test: this nesting is documented as safe
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
	if fail {
		return
	}
	closeThing(t)
}

func g() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

//modlint:ignore chargeflow test: cost accounted by the caller
//modsafe:charged test root
func h() { readPhys() }
`

// TestSuppressionInterplay checks that //modlint:ignore directives on a
// lockorder edge and a chargeflow root silence exactly those facts: the
// releasetrack obligation created one line above the lockorder directive
// still leaks, and nothing else fires.
func TestSuppressionInterplay(t *testing.T) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "interplay.go", suppressionInterplaySrc,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	p := &lint.Package{
		Name:  "interplay",
		Dir:   "interplay",
		Fset:  fset,
		Files: []*lint.SourceFile{{Path: "interplay.go", AST: af}},
	}
	findings, _ := check("interplay", []*lint.Package{p})

	var leaks, others []lint.Finding
	for _, f := range findings {
		if f.Rule == "releasetrack" {
			leaks = append(leaks, f)
		} else {
			others = append(others, f)
		}
	}
	if len(leaks) != 1 || !strings.Contains(leaks[0].Msg, "escapes unreleased") {
		t.Errorf("expected exactly one releasetrack leak, got %v", leaks)
	}
	for _, f := range others {
		t.Errorf("suppressed analyzer leaked a finding: %s", f)
	}
}

// TestSuppressedAcquireKeepsOtherRules is the reverse direction: ignoring
// releasetrack at an acquire site must not silence a lockorder cycle formed
// on the same lines.
func TestSuppressedAcquireKeepsOtherRules(t *testing.T) {
	src := `package interplay2

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

var a A
var b B

//modsafe:acquires thing test resource
func open() int { return 1 }

//modsafe:releases thing test resource
func closeThing(int) {}

func f() {
	a.mu.Lock()
	//modlint:ignore releasetrack test: harness releases it
	_ = open()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func g() {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, "interplay2.go", src,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	p := &lint.Package{
		Name:  "interplay2",
		Dir:   "interplay2",
		Fset:  fset,
		Files: []*lint.SourceFile{{Path: "interplay2.go", AST: af}},
	}
	findings, _ := check("interplay2", []*lint.Package{p})

	sawCycle := false
	for _, f := range findings {
		switch f.Rule {
		case "lockorder":
			sawCycle = true
		case "releasetrack":
			t.Errorf("suppressed releasetrack finding resurfaced: %s", f)
		}
	}
	if !sawCycle {
		t.Error("lockorder cycle was swallowed by a releasetrack suppression")
	}
}

// TestRepoIsCleanModsafe runs the whole-program audit over the real module:
// the annotated acquire/release pairs, charged roots, and the lock graph
// must stay clean. A legitimate exception needs a //modlint:ignore
// directive with a reason.
func TestRepoIsCleanModsafe(t *testing.T) {
	for _, f := range repoFindings(t) {
		t.Errorf("%s", f)
	}
}

// FuzzModsafeLockorder feeds arbitrary parseable Go through the whole
// analyzer: partial type information, directive soup, pathological lock
// nests — none of it may panic. Seeds are the fixture corpus plus shapes
// that stress each pass.
func FuzzModsafeLockorder(f *testing.F) {
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
	f.Add("package p\nimport \"sync\"\nvar mu sync.Mutex\nfunc f() { mu.Lock(); mu.Lock() }\n")
	f.Add("package p\n//modsafe:acquires\nfunc A() {}\n")
	f.Add("package p\n//modsafe:charged\nfunc R() { R() }\n")
	f.Add("package p\nimport \"sync\"\ntype T struct{ mu sync.Mutex }\nfunc (t *T) f() { t.mu.Lock(); defer t.mu.Unlock(); t.f() }\n")

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
