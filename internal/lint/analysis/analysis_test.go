package analysis

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// writeFixture lays files (path relative to root → source) out as a
// fixture tree under a fresh directory and returns its root.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// A fixture package at a real module path shadows the real package: its
// importer type-checks against the fixture's declarations, and the
// package it sees is the one object the program holds at that path, built
// once although the importer sorts first and pulls it in on demand.
func TestLoadFixtureShadowsModulePath(t *testing.T) {
	root := writeFixture(t, map[string]string{
		"evilbloom/internal/app/app.go": `package app

import "evilbloom/internal/service"

var Uses = service.OnlyInTheFixture
`,
		"evilbloom/internal/service/service.go": `package service

const OnlyInTheFixture = 1
`,
		"evilbloom/internal/service/service_test.go": `package service

this file is not Go: test files are never loaded
`,
	})
	prog, err := LoadFixture(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(prog.Packages))
	}
	svc := prog.byPath["evilbloom/internal/service"]
	app := prog.byPath["evilbloom/internal/app"]
	if svc == nil || app == nil {
		t.Fatalf("packages by path: %v", prog.byPath)
	}
	if !svc.Target || !app.Target {
		t.Error("a fixture package built as an import is not a target")
	}
	if len(svc.Files) != 1 || filepath.Dir(prog.Fset.Position(svc.Files[0].Pos()).Filename) != filepath.Join(root, "evilbloom/internal/service") {
		t.Errorf("service parsed from %d files, not the fixture's one", len(svc.Files))
	}
	if svc.Types.Scope().Lookup("OnlyInTheFixture") == nil || svc.Types.Scope().Lookup("Sharded") != nil {
		t.Error("the service package holds the real module's declarations, not the fixture's")
	}
	imports := app.Types.Imports()
	if len(imports) != 1 || imports[0] != svc.Types {
		t.Errorf("app imports %v, want the program's own service package", imports)
	}
}

// Memo builds each key once however many callers race for it, and every
// caller gets the one value built.
func TestMemoBuildsOncePerKey(t *testing.T) {
	prog := &Program{}
	keys := []string{"fields", "calls"}
	var builds [2]atomic.Int32
	const callers = 16
	got := make([][2]any, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, key := range keys {
				got[c][i] = prog.Memo(key, func() any {
					builds[i].Add(1)
					return new(int)
				})
			}
		}(c)
	}
	wg.Wait()
	for i, key := range keys {
		if n := builds[i].Load(); n != 1 {
			t.Errorf("key %q built %d times, want 1", key, n)
		}
		for c := range got {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d got a different value for %q", c, key)
			}
		}
	}
	if got[0][0] == got[0][1] {
		t.Error("two keys share one value")
	}
}
