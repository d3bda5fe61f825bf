package modown_test

import (
	"strings"
	"testing"
)

// poolBranchSrc holds poolflow's break and continue shapes: a put on a path
// that leaves the loop by break reaches the code after the loop, and one
// that leaves the pass by continue reaches the next pass, where the same
// put recycles the value again.
const poolBranchSrc = `package branches

import "sync"

var p = sync.Pool{New: func() any { b := make([]byte, 8); return &b }}

//modown:pool buf get
func getBuf() []byte { bp := p.Get().(*[]byte); return *bp }

//modown:pool buf put
func putBuf(b []byte) { p.Put(&b) }

func putThenBreak(xs []int) byte {
	b := getBuf()
	for _, x := range xs {
		if x > 0 {
			putBuf(b)
			break
		}
	}
	return b[0] // want "used after being recycled (recycled at line 17)"
}

func putThenContinue(xs []int) {
	b := getBuf()
	for _, x := range xs {
		if x > 0 {
			putBuf(b) // want "recycled again (already recycled at line 28)"
			continue
		}
		_ = b[x] // want "used after being recycled (recycled at line 28)"
	}
}

func putBeforeBreak(xs []int) {
	for range xs {
		b := getBuf()
		b[0] = 1
		putBuf(b)
		break
	}
}
`

// TestPoolflowBranchTargets matches poolflow's findings over poolBranchSrc
// against its // want comments, one for one.
func TestPoolflowBranchTargets(t *testing.T) {
	wants := make(map[int]string)
	for i, line := range strings.Split(poolBranchSrc, "\n") {
		if _, want, ok := strings.Cut(line, `// want "`); ok {
			wants[i+1] = strings.TrimSuffix(want, `"`)
		}
	}
	for _, f := range runInline(t, "branches", poolBranchSrc) {
		want, ok := wants[f.Pos.Line]
		if f.Rule != "poolflow" || !ok || !strings.Contains(f.Msg, want) {
			t.Errorf("unexpected finding: %s", f)
		}
		delete(wants, f.Pos.Line)
	}
	for line, want := range wants {
		t.Errorf("branches.go:%d: expected [poolflow] %q, not reported", line, want)
	}
}
