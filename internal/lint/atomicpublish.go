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
// every mutation with atomic stores (bitset.SetAtomic, bitset.Reset, the
// core *Atomic index methods). The one exception is bitset.SetProgression's
// amd64 kernel (setprog_amd64.s), which this analyzer cannot see: it
// publishes with plain aligned MOVQ stores, sound under its rule — writers
// serialized by the one lock over the set, single-copy atomic aligned
// words, x86-64 TSO store order, and the writer's unlock draining the store
// buffer before it acknowledges — and -race builds run its Go loop over
// SetAtomic instead. Snapshot loads (bitset.Load, core's counter
// load) store plainly: they run only on a store or digest nothing has
// published yet. A single plain write to a word that a
// lock-free reader loads is a data race the race detector only catches if
// a test happens to interleave it; this analyzer catches it structurally:
//
//  1. any struct field that is anywhere passed to a sync/atomic function
//     (&x.words[i] given to LoadUint64/StoreUint64/...) becomes an
//     "atomically published" field, program-wide;
//  2. a plain write to such a field — x.words[i] = v, x.words[i] |= m,
//     copy(x.words, ...), or wholesale reassignment — is reported. The
//     documented plain-write twins (BitSet.Set and friends, callable only
//     under full external serialization with no lock-free readers) and the
//     counter load carry //lint:allow annotations that double as their
//     contract. A plain write through a slice parameter counts at every
//     call site that passes such a field for it: bitset.ReadWords(r, buf,
//     b.words) is a plain write to BitSet.words inside Load, followed
//     through parameters that are passed on, reslicing included;
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

		// Pass 2: collect plain writes and per-function direct-writer sets,
		// the slice parameters each function writes plainly, and the call
		// sites that hand a function a field or a parameter of their own.
		directWrites := make(map[*types.Func][]*types.Var)
		calls := make(map[*types.Func][]*types.Func)
		writesParam := make(map[apParam]bool)
		var passed []apPass
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
				params := sliceParams(owner)
				// plain records a plain write to e: a field read with
				// sync/atomic, or one of owner's slice parameters.
				plain := func(e ast.Expr) {
					if field := fieldOfAddr(info, e); field != nil && facts.fields[field] {
						record(e, field)
					}
					if i, ok := params[paramOf(info, e)]; ok {
						writesParam[apParam{owner, i}] = true
					}
				}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if _, rebind := ast.Unparen(lhs).(*ast.Ident); !rebind {
								plain(lhs)
							}
						}
					case *ast.IncDecStmt:
						plain(n.X)
					case *ast.CallExpr:
						// copy(x.F, ...) writes through the slice header.
						if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" {
							if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && len(n.Args) == 2 {
								plain(sliceBase(n.Args[0]))
							}
						}
						callee := calleeOf(info, n)
						if callee == nil || owner == nil {
							return true
						}
						calls[owner] = append(calls[owner], callee)
						for j, arg := range n.Args {
							arg = sliceBase(arg)
							if field := fieldOfAddr(info, arg); field != nil && facts.fields[field] {
								passed = append(passed, apPass{to: apParam{callee, j}, arg: arg, field: field, record: record})
							} else if i, ok := params[paramOf(info, arg)]; ok {
								passed = append(passed, apPass{to: apParam{callee, j}, from: apParam{owner, i}})
							}
						}
					}
					return true
				})
			})
		}
		// A function writes a parameter it passes on to one its callee
		// writes; then a field passed for a written parameter is written at
		// the call site.
		for changed := true; changed; {
			changed = false
			for _, p := range passed {
				if p.field == nil && writesParam[p.to] && !writesParam[p.from] {
					writesParam[p.from], changed = true, true
				}
			}
		}
		for _, p := range passed {
			if p.field != nil && writesParam[p.to] {
				p.record(p.arg, p.field)
			}
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

// apParam is one parameter of a function, by position.
type apParam struct {
	fn *types.Func
	i  int
}

// apPass is a call site handing a callee's parameter either a field read
// with sync/atomic (field set; record reports the write in the caller) or
// a slice parameter of the caller's own (from).
type apPass struct {
	to     apParam
	from   apParam
	arg    ast.Expr
	field  *types.Var
	record func(ast.Node, *types.Var)
}

// sliceParams maps fn's slice-typed parameters to their positions.
func sliceParams(fn *types.Func) map[*types.Var]int {
	if fn == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	out := make(map[*types.Var]int)
	for i := 0; i < sig.Params().Len(); i++ {
		if v := sig.Params().At(i); isSlice(v.Type()) {
			out[v] = i
		}
	}
	return out
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// paramOf resolves x, x[i] or x[a:b] to the variable x, or nil.
func paramOf(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	id, ok := sliceBase(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// sliceBase strips reslicing: x.F[a:b] writes where x.F does.
func sliceBase(e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		sl, ok := e.(*ast.SliceExpr)
		if !ok {
			return e
		}
		e = sl.X
	}
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
