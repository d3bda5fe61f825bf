package modsafe_test

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"modchecker/internal/lint"
)

// branchSrc holds the break, continue and fallthrough shapes of
// releasetrack: each of them carries its path's obligations to its target,
// so a lock taken on a path that leaves a loop or switch early is still
// owed at the function's exit.
const branchSrc = `package branches

import "sync"

var mu sync.Mutex

//modsafe:acquires thing test resource
func open() int { return 1 }

//modsafe:releases thing test resource
func closeThing(int) {}

func breakFromLoop(ready bool) {
	for {
		if ready {
			mu.Lock() // want releasetrack "escapes unreleased on the path exiting at line 20"
			break
		}
	}
}

func breakFromCase(x int) {
	switch x {
	case 1:
		mu.Lock() // want releasetrack "escapes unreleased"
		break
	}
	return
}

func everyArmBreaks(x int) {
	switch x {
	case 1:
		break
	default:
		break
	}
	mu.Lock() // want releasetrack "escapes unreleased"
}

func continueCarries(xs []int) {
	for _, x := range xs {
		mu.Lock() // want releasetrack "escapes unreleased"
		if x > 0 {
			continue
		}
		mu.Unlock()
	}
}

func fallthroughCarries(x int) {
	switch x {
	case 1:
		mu.Lock() // want releasetrack "escapes unreleased"
		fallthrough
	case 2:
	}
}

func labeledBreak(xs []int) {
outer:
	for range xs {
		for {
			mu.Lock() // want releasetrack "escapes unreleased"
			break outer
		}
	}
}

func breakInSelect(ch chan int) {
	for {
		select {
		case <-ch:
			s := open() // want releasetrack "escapes unreleased"
			_ = s
			break
		}
		return
	}
}

func releasedBeforeBreak(xs []int) {
	for _, x := range xs {
		mu.Lock()
		if x > 0 {
			mu.Unlock()
			break
		}
		mu.Unlock()
	}
}

func releasedBeforeContinue(xs []int) {
outer:
	for _, x := range xs {
		for range xs {
			s := open()
			if x > 0 {
				closeThing(s)
				continue outer
			}
			closeThing(s)
		}
	}
}

func releasedAfterFallthrough(x int) {
	switch x {
	case 1:
		mu.Lock()
		fallthrough
	case 2:
		mu.Unlock()
	}
}
`

// lintSrc runs the modsafe pass over one source file as package name.
func lintSrc(t *testing.T, name, src string) []lint.Finding {
	t.Helper()
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, name+".go", src, parser.ParseComments|parser.SkipObjectResolution)
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

// TestReleasetrackBranchTargets matches releasetrack's findings over
// branchSrc against its // want comments, one for one.
func TestReleasetrackBranchTargets(t *testing.T) {
	wants := make(map[int]string)
	for i, line := range strings.Split(branchSrc, "\n") {
		if m := wantRE.FindStringSubmatch(line); m != nil {
			wants[i+1] = m[2]
		}
	}
	for _, f := range lintSrc(t, "branches", branchSrc) {
		if f.Rule != "releasetrack" {
			continue
		}
		want, ok := wants[f.Pos.Line]
		if !ok || !strings.Contains(f.Msg, want) {
			t.Errorf("unexpected finding: %s", f)
		}
		delete(wants, f.Pos.Line)
	}
	for line, want := range wants {
		t.Errorf("branches.go:%d: expected [releasetrack] %q, not reported", line, want)
	}
}

// TestReleasetrackDeepLoopNest walks a 40-deep nest of loops: a walker that
// ran every nested loop body twice per enclosing pass would take 2^40 walks
// of the innermost body.
func TestReleasetrackDeepLoopNest(t *testing.T) {
	const depth = 40
	src := "package nest\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc f() {\n" +
		strings.Repeat("for {\n", depth) + "mu.Lock()\nbreak\n" + strings.Repeat("}\n", depth) + "}\n"
	start := time.Now()
	findings := lintSrc(t, "nest", src)
	if len(findings) != 1 || findings[0].Rule != "releasetrack" {
		t.Errorf("want one releasetrack leak, got %v", findings)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("linting a %d-deep loop nest took %v", depth, d)
	}
}
