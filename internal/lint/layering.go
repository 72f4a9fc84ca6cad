package lint

import (
	"go/ast"
	"go/types"

	"evilbloom/internal/lint/analysis"
)

// Layering is the type-resolved replacement for the old grep in
// scripts/layering.sh. The engine refactor (PR 8) made internal/engine
// the only place that validates, resolves identity, charges/refunds
// rate-limit buckets and dispatches to the store; the wire codecs
// (internal/httpapi, internal/resp) are pure framing. The grep enforced
// that by scanning codec sources for tokens such as ".Store()" — which an
// innocent rename, an import alias, or a method value (f := reg.Get;
// f(...)) would dodge without anyone noticing. This analyzer resolves
// selector *objects* instead, so any reference to the forbidden methods is
// caught however it is spelled: inside the codec packages, referencing
// (*service.Registry).Get or (*service.Filter).Store is a violation — a
// codec holding a raw store handle is a second enforcement pipeline
// growing back, the exact almost-identical-paths gap the engine closed.
// (Charging needs no rule: the limiter is unexported from the engine.)
var Layering = &analysis.Analyzer{
	Name: "layering",
	Doc: "codecs must route store access through internal/engine " +
		"(type-resolved; aliasing and method values cannot dodge it)",
	Run: runLayering,
}

func runLayering(pass *analysis.Pass) error {
	if path := pass.Pkg.Path; path != pkgHTTPAPI && path != pkgRESP {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			recvPkg, recvType := recvOf(fn)
			if recvPkg != pkgService {
				return true
			}
			switch {
			case recvType == "Registry" && fn.Name() == "Get":
				pass.Reportf(sel.Sel.Pos(),
					"codec package must not reach (*service.Registry).%s: decode frames into engine commands instead",
					fn.Name())
			case recvType == "Filter" && fn.Name() == "Store":
				pass.Reportf(sel.Sel.Pos(),
					"codec package must not hold a raw store handle via (*service.Filter).Store: every item operation goes through engine commands")
			}
			return true
		})
	}
	return nil
}
