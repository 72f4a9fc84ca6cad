package lint

import (
	"go/ast"
	"go/types"

	"evilbloom/internal/lint/analysis"
)

// AtomicPublish enforces the lock-free read path's publication discipline
// (PR 6). The service skips the striped RLock on membership tests:
// readers issue bare atomic.LoadUint64 on the backing word slices while
// writers — still serialized under the shard write lock — must publish
// every mutation with atomic stores (bitset.SetAtomic, bitset.Load,
// the core *Atomic index methods). A single plain write to a word that a
// lock-free reader loads is a data race the race detector only catches if
// a test happens to interleave it; this analyzer catches it structurally:
//
//  1. any struct field that is anywhere passed to a sync/atomic function
//     (&x.words[i] given to LoadUint64/StoreUint64/...) becomes an
//     "atomically published" field, program-wide;
//  2. a plain write to such a field — x.words[i] = v, x.words[i] |= m,
//     copy(x.words, ...), or wholesale reassignment — is reported. The
//     documented plain-write twins (BitSet.Set and friends, callable only
//     under full external serialization with no lock-free readers) carry
//     //lint:allow annotations that double as their contract;
//  3. inside internal/service — the package that orchestrates lock-free
//     reads against live stores — and internal/mesh, which holds digests
//     that route lookups read while refreshes replace them, any call to an
//     outside function that (transitively) performs plain writes to an
//     atomic field is reported too, so wiring a backend adapter to a plain
//     writer (bitset.Set instead of SetAtomic) fails the build even though
//     the racy write itself lives two packages away.
var AtomicPublish = &analysis.Analyzer{
	Name: "atomicpublish",
	Doc: "writers of atomically-read word slices must publish via atomic stores " +
		"(lock-free read contract); flags mixed plain/atomic access to the same field",
	Run: runAtomicPublish,
}

// apWrite is one plain write to an atomically-read field.
type apWrite struct {
	pos   ast.Node
	field *types.Var
	pkg   *analysis.Package
}

// apFacts is the program-wide computation shared by every package's pass.
type apFacts struct {
	// fields are atomically accessed somewhere in the program.
	fields map[*types.Var]bool
	// writes are plain writes to those fields, keyed by package path.
	writes map[string][]apWrite
	// plainWriter marks functions whose body (transitively) performs a
	// plain write to an atomic field.
	plainWriter map[*types.Func]bool
	// witness names a representative written field per plain writer.
	witness map[*types.Func]*types.Var
}

func atomicFacts(prog *analysis.Program) *apFacts {
	return prog.Memo("atomicpublish", func() any {
		facts := &apFacts{
			fields:      make(map[*types.Var]bool),
			writes:      make(map[string][]apWrite),
			plainWriter: make(map[*types.Func]bool),
			witness:     make(map[*types.Func]*types.Var),
		}

		// Pass 1: collect atomically accessed fields program-wide.
		for _, pkg := range prog.Packages {
			info := pkg.Info
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeOf(info, call)
					if fn == nil || funcPkg(fn) != "sync/atomic" || len(call.Args) == 0 {
						return true
					}
					addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
					if !ok {
						return true
					}
					if field := fieldOfAddr(info, addr.X); field != nil {
						facts.fields[field] = true
					}
					return true
				})
			}
		}

		// Pass 2: collect plain writes and per-function direct-writer sets.
		directWrites := make(map[*types.Func][]*types.Var)
		calls := make(map[*types.Func][]*types.Func)
		for _, pkg := range prog.Packages {
			info := pkg.Info
			eachFunc(pkg, func(decl *ast.FuncDecl) {
				owner, _ := info.Defs[decl.Name].(*types.Func)
				record := func(n ast.Node, field *types.Var) {
					facts.writes[pkg.Path] = append(facts.writes[pkg.Path], apWrite{pos: n, field: field, pkg: pkg})
					if owner != nil {
						directWrites[owner] = append(directWrites[owner], field)
					}
				}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if field := fieldOfAddr(info, lhs); field != nil && facts.fields[field] {
								record(lhs, field)
							}
						}
					case *ast.IncDecStmt:
						if field := fieldOfAddr(info, n.X); field != nil && facts.fields[field] {
							record(n.X, field)
						}
					case *ast.CallExpr:
						// copy(x.F, ...) writes through the slice header.
						if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" {
							if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 2 {
								if field := fieldOfAddr(info, n.Args[0]); field != nil && facts.fields[field] {
									record(n.Args[0], field)
								}
							}
						}
						if callee := calleeOf(info, n); callee != nil && owner != nil {
							calls[owner] = append(calls[owner], callee)
						}
					}
					return true
				})
			})
		}

		// Pass 3: close the writer relation over static calls.
		var visit func(fn *types.Func, seen map[*types.Func]bool) bool
		visit = func(fn *types.Func, seen map[*types.Func]bool) bool {
			if w, ok := facts.plainWriter[fn]; ok {
				return w
			}
			if seen[fn] {
				return false
			}
			seen[fn] = true
			if fields := directWrites[fn]; len(fields) > 0 {
				facts.plainWriter[fn] = true
				facts.witness[fn] = fields[0]
				return true
			}
			for _, callee := range calls[fn] {
				if visit(callee, seen) {
					facts.plainWriter[fn] = true
					facts.witness[fn] = facts.witness[callee]
					return true
				}
			}
			facts.plainWriter[fn] = false
			return false
		}
		for fn := range calls {
			visit(fn, make(map[*types.Func]bool))
		}
		for fn := range directWrites {
			visit(fn, make(map[*types.Func]bool))
		}
		return facts
	}).(*apFacts)
}

func runAtomicPublish(pass *analysis.Pass) error {
	facts := atomicFacts(pass.Program)

	// Rule 2: plain writes in this package.
	for _, w := range facts.writes[pass.Pkg.Path] {
		owner := "?"
		if w.field.Pkg() != nil {
			owner = w.field.Pkg().Name()
		}
		pass.Reportf(w.pos.Pos(),
			"non-atomic write to %s field read with sync/atomic elsewhere: lock-free readers can observe a torn or stale word; publish with atomic stores",
			owner+" "+fieldOwnerName(w.field)+"."+w.field.Name())
	}

	// Rule 3: service- and mesh-side calls into plain-writing functions.
	if pass.Pkg.Path != pkgService && pass.Pkg.Path != pkgMesh {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(info, call)
			if fn == nil || funcPkg(fn) == pass.Pkg.Path || !facts.plainWriter[fn] {
				return true
			}
			field := facts.witness[fn]
			pass.Reportf(call.Pos(),
				"call to %s performs non-atomic writes to %s.%s, a field read with sync/atomic: on a published store this races lock-free readers; use the atomic twin or annotate the unpublished-receiver case",
				fn.Name(), fieldOwnerName(field), field.Name())
			return true
		})
	}
	return nil
}

// fieldOwnerName best-effort names the struct type declaring field.
func fieldOwnerName(field *types.Var) string {
	if field == nil || field.Pkg() == nil {
		return "?"
	}
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return tn.Name()
			}
		}
	}
	return "?"
}
