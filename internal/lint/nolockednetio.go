package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"evilbloom/internal/lint/analysis"
)

// NoLockedNetIO guards the service's latency floor: shard and registry
// mutexes serialize every mutation and (on the locked fallback path)
// reads, so any syscall performed while one is held stretches the
// critical section from nanoseconds to milliseconds — and hands an
// adversary with a slow disk or a stalled peer connection a convoying
// primitive against every other principal on the shard. The digest mesh
// has the same exposure from the other side: its refresh, push and evict
// paths hold watch and roster mutexes next to HTTP exchanges with peers.
// The analyzer walks each function in internal/service and internal/mesh
// tracking mutex depth
// (including the lockAll/unlockAll helpers, which carry a net lock
// delta) and reports any call made while a lock is held that reaches —
// directly or transitively through module code — the network or file
// I/O surface (net.*, (*os.File) read/write/sync, os file ops).
//
// The WAL is the sanctioned exception: persist.flushLocked writes the
// journal inside the critical section *by design* (the durability
// ordering requires the append to be on disk before the mutation is
// visible), so its declaration carries //lint:allow nolockednetio and
// the analyzer treats the whole function as a sanctioned sink — calls
// to it, and to functions that only reach I/O through it, are clean.
// Any NEW I/O under a lock still fails the build.
var NoLockedNetIO = &analysis.Analyzer{
	Name: "nolockednetio",
	Doc: "no network or file I/O may be reachable while a mutex is held in " +
		"internal/service or internal/mesh (WAL flush is the annotated exception)",
	Run: runNoLockedNetIO,
}

// nlFacts is the program-wide I/O reachability computation.
type nlFacts struct {
	// doesIO marks module functions that transitively reach the I/O
	// surface (sanctioned functions and their exclusive callers excluded).
	doesIO map[*types.Func]bool
	// witness describes the concrete I/O call a doesIO function reaches.
	witness map[*types.Func]string
	// sanctioned marks functions whose declaration doc carries
	// //lint:allow nolockednetio — treated as clean sinks.
	sanctioned map[*types.Func]bool
	// lockDelta is the net mutex acquisitions a function leaves behind
	// (+1 for lockAll-style helpers, -1 for unlockAll-style).
	lockDelta map[*types.Func]int
}

// directIO classifies a callee as part of the I/O surface and names it.
func directIO(fn *types.Func) (string, bool) {
	pkg := funcPkg(fn)
	if pkg == "net" || strings.HasPrefix(pkg, "net/") {
		return pkg + "." + fn.Name(), true
	}
	if recvPkg, recvType := recvOf(fn); recvPkg == "os" && recvType == "File" {
		switch fn.Name() {
		case "Read", "ReadAt", "Write", "WriteAt", "WriteString", "Sync", "Seek", "Truncate", "Close":
			return "(*os.File)." + fn.Name(), true
		}
	}
	if pkg == "os" {
		switch fn.Name() {
		case "Open", "OpenFile", "Create", "CreateTemp", "Remove", "RemoveAll",
			"Rename", "Mkdir", "MkdirAll", "ReadFile", "WriteFile", "ReadDir", "Stat", "Truncate":
			return "os." + fn.Name(), true
		}
	}
	return "", false
}

func lockedIOFacts(prog *analysis.Program) *nlFacts {
	return prog.Memo("nolockednetio", func() any {
		facts := &nlFacts{
			doesIO:     make(map[*types.Func]bool),
			witness:    make(map[*types.Func]string),
			sanctioned: make(map[*types.Func]bool),
			lockDelta:  make(map[*types.Func]int),
		}
		direct := make(map[*types.Func]string)
		calls := make(map[*types.Func][]*types.Func)

		for _, pkg := range prog.Packages {
			info := pkg.Info
			eachFunc(pkg, func(decl *ast.FuncDecl) {
				owner, _ := info.Defs[decl.Name].(*types.Func)
				if owner == nil {
					return
				}
				if docAllows(decl.Doc, "nolockednetio") {
					facts.sanctioned[owner] = true
				}
				// Calls launched with `go` run outside the caller's critical
				// section; closure bodies are walked only where invoked. Both
				// are excluded from the synchronous call-edge set.
				async := make(map[ast.Node]bool)
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						async[g.Call] = true
					}
					return true
				})
				delta := 0
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if async[call] {
						return true // arguments still evaluate synchronously
					}
					callee := calleeOf(info, call)
					if callee == nil {
						return true
					}
					switch {
					case isMutexMethod(callee, "Lock", "RLock"):
						delta++
					case isMutexMethod(callee, "Unlock", "RUnlock"):
						delta--
					}
					if name, ok := directIO(callee); ok {
						if _, seen := direct[owner]; !seen {
							direct[owner] = name
						}
					}
					calls[owner] = append(calls[owner], callee)
					return true
				})
				if delta > 0 {
					facts.lockDelta[owner] = 1
				} else if delta < 0 {
					facts.lockDelta[owner] = -1
				}
			})
		}

		var visit func(fn *types.Func, seen map[*types.Func]bool) bool
		visit = func(fn *types.Func, seen map[*types.Func]bool) bool {
			if facts.sanctioned[fn] {
				return false
			}
			if io, ok := facts.doesIO[fn]; ok {
				return io
			}
			if seen[fn] {
				return false
			}
			seen[fn] = true
			if name, ok := direct[fn]; ok {
				facts.doesIO[fn] = true
				facts.witness[fn] = name
				return true
			}
			for _, callee := range calls[fn] {
				if _, isDirect := directIO(callee); isDirect && !facts.sanctioned[callee] {
					// callee may be a std function we have no body for
					facts.doesIO[fn] = true
					facts.witness[fn], _ = directIO(callee)
					return true
				}
				if visit(callee, seen) {
					facts.doesIO[fn] = true
					facts.witness[fn] = facts.witness[callee]
					return true
				}
			}
			facts.doesIO[fn] = false
			return false
		}
		for fn := range calls {
			visit(fn, make(map[*types.Func]bool))
		}
		return facts
	}).(*nlFacts)
}

func runNoLockedNetIO(pass *analysis.Pass) error {
	if pass.Pkg.Path != pkgService && pass.Pkg.Path != pkgMesh {
		return nil
	}
	facts := lockedIOFacts(pass.Program)
	info := pass.Pkg.Info
	eachFunc(pass.Pkg, func(decl *ast.FuncDecl) {
		if owner, _ := info.Defs[decl.Name].(*types.Func); owner != nil && facts.sanctioned[owner] {
			return
		}
		w := &nlWalker{pass: pass, info: info, facts: facts}
		w.stmts(decl.Body.List)
	})
	return nil
}

// nlWalker tracks mutex depth through one function body in source order.
type nlWalker struct {
	pass  *analysis.Pass
	info  *types.Info
	facts *nlFacts
	depth int
}

func (w *nlWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *nlWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock releases at return; the lock stays held for
		// the rest of the body, so the depth must not drop here. Any
		// other deferred call runs after the (eventual) release.
		return
	case *ast.GoStmt:
		// The goroutine body runs outside this critical section; walk it
		// with a fresh depth.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			inner := &nlWalker{pass: w.pass, info: w.info, facts: w.facts}
			inner.stmts(lit.Body.List)
		}
		return
	case *ast.BlockStmt:
		w.stmts(s.List)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.exprCalls(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmts(s.Body.List)
		return
	case *ast.RangeStmt:
		w.stmts(s.Body.List)
		return
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.exprCalls(s)
		return
	}
	w.exprCalls(s)
}

// exprCalls visits every call in a non-branching statement, outermost
// first, in source order.
func (w *nlWalker) exprCalls(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Stored closures run outside this walk; skip their bodies.
			return false
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

func (w *nlWalker) call(call *ast.CallExpr) {
	callee := calleeOf(w.info, call)
	if callee == nil {
		return
	}
	switch {
	case isMutexMethod(callee, "Lock", "RLock"):
		w.depth++
		return
	case isMutexMethod(callee, "Unlock", "RUnlock"):
		if w.depth > 0 {
			w.depth--
		}
		return
	}
	if d := w.facts.lockDelta[callee]; d != 0 {
		w.depth += d
		if w.depth < 0 {
			w.depth = 0
		}
		return
	}
	if w.depth == 0 || w.facts.sanctioned[callee] {
		return
	}
	if name, ok := directIO(callee); ok {
		w.pass.Reportf(call.Pos(),
			"%s called while a mutex is held: I/O stretches the critical section and convoys every waiter; move it outside the lock or annotate the durability decision",
			name)
		return
	}
	if w.facts.doesIO[callee] {
		w.pass.Reportf(call.Pos(),
			"call to %s while a mutex is held reaches %s: I/O under a shard or registry lock convoys every waiter; move it outside the lock or annotate the durability decision",
			callee.Name(), w.facts.witness[callee])
	}
}
