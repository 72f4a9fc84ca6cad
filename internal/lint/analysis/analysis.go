// Package analysis is a small, self-contained reimplementation of the
// golang.org/x/tools/go/analysis surface that evillint's analyzers are
// written against. The repo builds with no third-party modules, so the
// framework lives here: an Analyzer is a named check with a Run function,
// a Pass hands it one type-checked package plus the whole loaded program,
// and diagnostics are reported through the pass. Unlike the upstream
// design there is no fact serialization — analyzers that need
// cross-package knowledge (field objects, call graphs, constant sets)
// read it straight off the Program, which always holds every package of
// the analysis universe type-checked against one shared token.FileSet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// annotations.
	Name string
	// Doc is the one-paragraph description printed by evillint -list.
	Doc string
	// Run executes the check over one package. It reports findings via
	// pass.Reportf and returns an error only for analysis malfunctions,
	// never for findings.
	Run func(*Pass) error
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one parsed, type-checked package of the analysis universe.
type Package struct {
	// Path is the import path ("evilbloom/internal/service").
	Path string
	// Name is the package clause name.
	Name string
	// Files holds the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the resolution maps (Uses, Defs, Selections, Types).
	Info *types.Info
	// Target marks packages named by the load patterns; dependency
	// packages pulled in for type information have Target false and never
	// receive diagnostics.
	Target bool
}

// Program is the full analysis universe: every package loaded for one
// evillint invocation, type-checked against one FileSet so that object
// identities are comparable across packages.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	byPath map[string]*Package

	memoMu sync.Mutex
	memo   map[string]any
}

// Memo caches a program-wide computation under key, so that analyzers
// running once per package can share one expensive pass (atomic-field
// collection, I/O call-graph summaries) across the whole run.
func (p *Program) Memo(key string, build func() any) any {
	p.memoMu.Lock()
	defer p.memoMu.Unlock()
	if p.memo == nil {
		p.memo = make(map[string]any)
	}
	if v, ok := p.memo[key]; ok {
		return v
	}
	v := build()
	p.memo[key] = v
	return v
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Program  *Program
	Pkg      *Package
	// Report receives each diagnostic; the driver owns suppression and
	// rendering.
	Report func(Diagnostic)
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Program.Fset }

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf resolves an expression's type in the package under analysis.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier use or definition.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Pkg.Info.ObjectOf(id) }
