// Package analysistest drives evillint's analyzers over fixture source
// trees, mirroring golang.org/x/tools/go/analysis/analysistest: a fixture
// directory is a miniature GOPATH src tree whose packages shadow the real
// module's import paths ("evilbloom/internal/service"), so analyzers
// keyed to those paths run against fixtures unchanged. Expectations are
// written in the fixtures themselves:
//
//	reg.Get("f") // want "must not reach"
//
// Each `// want "regexp"` demands exactly one unsuppressed diagnostic on
// its line whose message matches the regexp; any diagnostic without a
// matching want, and any want without a diagnostic, fails the test.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"evilbloom/internal/lint"
	"evilbloom/internal/lint/analysis"
)

var wantRe = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)

// expectation is one parsed want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture tree at srcRoot, runs the analyzers over it, and
// checks every finding against the fixtures' want comments. It returns
// all findings (including suppressed ones) for additional assertions.
func Run(t *testing.T, srcRoot string, analyzers ...*analysis.Analyzer) []lint.Finding {
	t.Helper()
	prog, err := analysis.LoadFixture(srcRoot)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", srcRoot, err)
	}
	wants := collectWants(t, prog)
	findings, err := lint.Run(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", srcRoot, err)
	}
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		if !claim(wants, f) {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q: no diagnostic reported", w.file, w.line, w.re)
		}
	}
	return findings
}

// claim marks the first unmatched want covering f, if any.
func claim(wants []*expectation, f lint.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every fixture file's want comments off the loaded
// ASTs (they were parsed with comments).
func collectWants(t *testing.T, prog *analysis.Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Packages {
		if !pkg.Target {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pattern, err := strconv.Unquote(m[1])
					if err != nil {
						t.Fatalf("bad want comment %s: %v", c.Text, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pattern, err)
					}
					p := prog.Fset.Position(c.Pos())
					wants = append(wants, &expectation{file: p.Filename, line: p.Line, re: re})
				}
			}
		}
	}
	return wants
}

// Describe renders a finding list compactly for test failure messages.
func Describe(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		state := ""
		if f.Suppressed {
			state = " (suppressed: " + f.Reason + ")"
		}
		fmt.Fprintf(&b, "%s:%d: %s: %s%s\n", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message, state)
	}
	return b.String()
}
