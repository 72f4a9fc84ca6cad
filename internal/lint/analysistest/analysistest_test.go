package analysistest

import (
	"go/token"
	"testing"

	"evilbloom/internal/lint"
)

// Describe renders one line per finding, position first, and names the
// reason of a suppressed one.
func TestDescribe(t *testing.T) {
	findings := []lint.Finding{
		{Analyzer: "layering", Pos: token.Position{Filename: "a/b.go", Line: 7}, Message: "must not reach"},
		{Analyzer: "errmap", Pos: token.Position{Filename: "c.go", Line: 12}, Message: "unmapped", Suppressed: true, Reason: "by design"},
	}
	want := "a/b.go:7: layering: must not reach\n" +
		"c.go:12: errmap: unmapped (suppressed: by design)\n"
	if got := Describe(findings); got != want {
		t.Errorf("Describe:\n%s\nwant:\n%s", got, want)
	}
	if got := Describe(nil); got != "" {
		t.Errorf("Describe(nil) = %q, want empty", got)
	}
}
