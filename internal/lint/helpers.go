package lint

import (
	"go/ast"
	"go/types"

	"evilbloom/internal/lint/analysis"
)

// The analyzers key on the real tree's import paths. Fixture trees under
// testdata shadow the same paths, so the checks run against fixtures
// unchanged — the trick the upstream analysistest GOPATH layout uses.
const (
	pkgEngine  = "evilbloom/internal/engine"
	pkgService = "evilbloom/internal/service"
	pkgMesh    = "evilbloom/internal/mesh"
	pkgHTTPAPI = "evilbloom/internal/httpapi"
	pkgRESP    = "evilbloom/internal/resp"
)

// recvOf resolves a method's receiver to its named type's package path
// and type name; non-methods return empty strings.
func recvOf(fn *types.Func) (pkgPath, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// funcPkg returns the package path a function belongs to ("" for
// builtins and universe-scope objects).
func funcPkg(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// calleeOf resolves a call expression to the concrete or interface
// *types.Func it invokes, when the callee is a simple identifier or
// selector (conversions, builtins and indirect calls through variables
// return nil).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}

// eachFunc visits every function declaration with a body in the package.
func eachFunc(pkg *analysis.Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// fieldOfAddr resolves the struct field written or addressed by an
// expression of the form x.F or x.F[i], returning nil otherwise.
func fieldOfAddr(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isMutexMethod reports whether fn is sync.Mutex/RWMutex's method with
// one of the given names.
func isMutexMethod(fn *types.Func, names ...string) bool {
	pkgPath, typeName := recvOf(fn)
	if pkgPath != "sync" || (typeName != "Mutex" && typeName != "RWMutex") {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
