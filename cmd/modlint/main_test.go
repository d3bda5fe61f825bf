package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runFilterSrc has one finding each for a per-package rule (clockdiscipline,
// errprefix) and a whole-program rule (releasetrack), one errprefix finding
// silenced by a directive naming its rule, a directive naming the
// whole-program lockflow rule, which is valid, and a directive naming the
// deleted lockdiscipline rule, which is unknown.
const runFilterSrc = `package x

import (
	"errors"
	"sync"
	"time"
)

// T is a counter.
type T struct {
	mu sync.Mutex
	n  int
}

// Leak holds the lock on the early return.
func (t *T) Leak(stop bool) {
	t.mu.Lock()
	if stop {
		return
	}
	t.n++
	t.mu.Unlock()
}

// Boom's message lacks the package prefix.
func Boom() error { return errors.New("boom") }

// Bang's message lacks it too, deliberately.
func Bang() error {
	//modlint:ignore errprefix fixture: deliberately unprefixed
	return errors.New("bang")
}

// Wait reads the host clock.
func Wait() time.Time { return time.Now() }

//modlint:ignore lockdiscipline the rule no longer exists
var _ = 0

//modlint:ignore lockflow fixture: names a whole-program rule
var _ = 1
`

// ruleRE extracts the rule of one "file:line: [rule] message" line.
var ruleRE = regexp.MustCompile(`^\S+:\d+: \[([a-z-]+)\] `)

// TestRunFilter drives the whole-module run through -run: an exact rule
// name reports only that rule's findings, an unknown name (the deleted
// lockdiscipline included) is a usage error, and a //modlint:ignore naming
// a rule that -run leaves out stays valid rather than becoming a finding.
// A run over the package directory reports the per-package rules only,
// and still accepts the directive naming a whole-program rule.
func TestRunFilter(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "x")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module runmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(runFilterSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		run    string
		dir    string // package directory to lint instead of ./...
		code   int
		rules  []string // rules of the reported findings, sorted
		stderr string   // substring of the diagnostics, for usage errors
	}{
		{name: "all rules", code: 1, rules: []string{"clockdiscipline", "errprefix", "ignore-directive", "releasetrack"}},
		{name: "one per-package rule", run: "errprefix", code: 1, rules: []string{"errprefix"}},
		{name: "one whole-program rule", run: "releasetrack", code: 1, rules: []string{"releasetrack"}},
		{name: "ignore naming a left-out rule", run: "clockdiscipline,releasetrack", code: 1, rules: []string{"clockdiscipline", "releasetrack"}},
		{name: "rule without findings", run: "lockflow", code: 0},
		{name: "deleted rule", run: "lockdiscipline", code: 2, stderr: `unknown rule "lockdiscipline"`},
		{name: "typo", run: "releasetrak", code: 2, stderr: `unknown rule "releasetrak"`},
		{name: "empty name", run: "errprefix,", code: 2, stderr: "empty rule name"},
		{name: "package directory", dir: "internal/x", code: 1, rules: []string{"clockdiscipline", "errprefix", "ignore-directive"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"./..."}
			if tc.dir != "" {
				args = []string{tc.dir}
			}
			if tc.run != "" {
				args = append([]string{"-run", tc.run}, args...)
			}
			var stdout, stderr bytes.Buffer
			code := run(root, args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			var rules []string
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				if m := ruleRE.FindStringSubmatch(line); m != nil {
					rules = append(rules, m[1])
				} else if line != "" {
					t.Errorf("unparsable output line %q", line)
				}
			}
			sort.Strings(rules)
			if !reflect.DeepEqual(rules, tc.rules) {
				t.Errorf("reported rules %v, want %v\nstdout:\n%s", rules, tc.rules, &stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, tc.stderr)
			}
		})
	}
}
