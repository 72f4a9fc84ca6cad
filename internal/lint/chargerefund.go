package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"evilbloom/internal/lint/analysis"
)

// ChargeRefund enforces the engine's budget symmetry (PR 8): once a
// command has successfully charged a principal's mutation bucket, every
// error return between the charge and the dispatch's success return must
// be an explicit decision — either the path refunds the bucket (the
// digest-push rule: a rejected push must not have cost the pusher
// anything) or it carries a //lint:allow annotation recording that the
// charge deliberately stands (the remove rule: the request was
// well-formed and the filter did the work of refusing it). Without the
// check, a new engine command that forgets the decision silently leaks
// budget on failure paths — an attacker who can trigger the failure
// drains a victim principal's budget at zero cost to the outcome.
//
// The analysis is a conservative walk of each function in
// internal/engine: a "charge" is a call to (*Engine).charge or to the
// engine's own limiter's allow; the guard that checks the charge's own
// failure (err != nil, or !ok on allow's boolean) is exempt; past the
// guard, any return whose final result is a non-nil error without a
// refund call (or deferred refund) on the path is reported. The limiter is
// unexported, so only the engine can charge or refund at all.
var ChargeRefund = &analysis.Analyzer{
	Name: "chargerefund",
	Doc: "in internal/engine, every error return after a successful bucket charge " +
		"must refund the charge or carry an explicit charge-stands annotation",
	Run: runChargeRefund,
}

func runChargeRefund(pass *analysis.Pass) error {
	if pass.Pkg.Path != pkgEngine {
		return nil
	}
	eachFunc(pass.Pkg, func(decl *ast.FuncDecl) {
		w := &crWalker{pass: pass, info: pass.Pkg.Info}
		w.stmts(decl.Body.List, &crState{})
	})
	return nil
}

// crState is the abstract state of one control-flow path.
type crState struct {
	// charged is set once a charge has succeeded on this path.
	charged bool
	// refunded is set once a refund call has run on this path.
	refunded bool
	// terminated marks a path that ended in a return.
	terminated bool
	// chargeErr / chargeOK are the variables capturing the pending
	// charge's results; the guard testing them is the charge's own
	// failure path, exempt from the refund rule.
	chargeErr types.Object
	chargeOK  types.Object
}

func (s crState) clone() *crState { return &s }

type crWalker struct {
	pass *analysis.Pass
	info *types.Info
}

// isChargeCall matches (*Engine).charge-style internal charges and
// (*limiter).allow.
func (w *crWalker) isChargeCall(call *ast.CallExpr) bool {
	fn := calleeOf(w.info, call)
	if fn == nil || funcPkg(fn) != pkgEngine {
		return false
	}
	_, typeName := recvOf(fn)
	return fn.Name() == "charge" || (typeName == "limiter" && fn.Name() == "allow")
}

// isRefundCall matches (*limiter).refund and engine-internal refund
// helpers.
func (w *crWalker) isRefundCall(call *ast.CallExpr) bool {
	fn := calleeOf(w.info, call)
	return fn != nil && funcPkg(fn) == pkgEngine && fn.Name() == "refund"
}

// containsCall reports whether expr contains a call matched by pred, and
// returns the first match.
func (w *crWalker) findCall(n ast.Node, pred func(*ast.CallExpr) bool) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && pred(call) {
			found = call
			return false
		}
		return true
	})
	return found
}

// stmts walks a statement list, mutating st in sequence order.
func (w *crWalker) stmts(list []ast.Stmt, st *crState) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *crWalker) stmt(s ast.Stmt, st *crState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if call := w.findCall(s, w.isChargeCall); call != nil {
			// Remember which variables capture the charge's outcome; the
			// guard that tests them is the charge's own failure path.
			st.chargeErr, st.chargeOK = nil, nil
			for _, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := w.info.ObjectOf(id)
				if obj == nil {
					continue
				}
				switch {
				case isErrorType(obj.Type()):
					st.chargeErr = obj
				case isBool(obj.Type()):
					st.chargeOK = obj
				}
			}
			if st.chargeErr == nil && st.chargeOK == nil {
				st.charged = true // outcome discarded: treat as charged
			}
			return
		}
		if w.findCall(s, w.isRefundCall) != nil {
			st.refunded = true
		}
	case *ast.ExprStmt:
		if w.findCall(s, w.isRefundCall) != nil {
			st.refunded = true
			return
		}
		if w.findCall(s, w.isChargeCall) != nil {
			st.charged = true
		}
	case *ast.DeferStmt:
		if w.isRefundCall(s.Call) || w.findCall(s.Call, w.isRefundCall) != nil {
			st.refunded = true
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		guard := w.isChargeGuard(s.Cond, st)
		bodySt := st.clone()
		if guard {
			// Inside the guard the charge failed; nothing to refund.
			bodySt.charged, bodySt.chargeErr, bodySt.chargeOK = st.charged, nil, nil
		}
		w.stmts(s.Body.List, bodySt)
		elseSt := st.clone()
		if s.Else != nil {
			w.stmt(s.Else, elseSt)
		}
		if guard {
			// Past the guard, the charge succeeded.
			st.charged, st.chargeErr, st.chargeOK = true, nil, nil
		}
		mergeBranches(st, bodySt, elseSt)
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.ForStmt:
		inner := st.clone()
		if s.Init != nil {
			w.stmt(s.Init, inner)
		}
		w.stmts(s.Body.List, inner)
		st.charged = st.charged || inner.charged
	case *ast.RangeStmt:
		inner := st.clone()
		w.stmts(s.Body.List, inner)
		st.charged = st.charged || inner.charged
	case *ast.SwitchStmt:
		w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		w.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, st.clone())
			}
		}
	case *ast.ReturnStmt:
		if st.charged && !st.refunded && w.returnsError(s) {
			w.pass.Reportf(s.Pos(),
				"error return after a successful charge with no refund on this path: refund the bucket or annotate the charge-stands decision")
		}
		st.terminated = true
	}
}

func (w *crWalker) caseClauses(body *ast.BlockStmt, st *crState) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.stmts(cc.Body, st.clone())
		}
	}
}

// isChargeGuard matches `err != nil` over the pending charge error and
// `!ok` over the pending charge boolean.
func (w *crWalker) isChargeGuard(cond ast.Expr, st *crState) bool {
	switch cond := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if st.chargeErr == nil || cond.Op != token.NEQ {
			return false
		}
		for _, side := range []ast.Expr{cond.X, cond.Y} {
			if id, ok := ast.Unparen(side).(*ast.Ident); ok && w.info.ObjectOf(id) == st.chargeErr {
				return true
			}
		}
	case *ast.UnaryExpr:
		if st.chargeOK == nil || cond.Op != token.NOT {
			return false
		}
		if id, ok := ast.Unparen(cond.X).(*ast.Ident); ok && w.info.ObjectOf(id) == st.chargeOK {
			return true
		}
	}
	return false
}

// returnsError reports whether the return's final result is a non-nil
// error expression.
func (w *crWalker) returnsError(s *ast.ReturnStmt) bool {
	if len(s.Results) == 0 {
		return false
	}
	last := s.Results[len(s.Results)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return isErrorType(w.info.TypeOf(last))
}

// mergeBranches folds the two arms of an if back into st: charged is
// sticky; refunded survives only when every non-terminated arm refunded.
func mergeBranches(st, bodySt, elseSt *crState) {
	st.charged = st.charged || bodySt.charged || elseSt.charged
	survivors := 0
	refunded := true
	for _, arm := range []*crState{bodySt, elseSt} {
		if arm.terminated {
			continue
		}
		survivors++
		refunded = refunded && arm.refunded
	}
	if survivors > 0 && refunded {
		st.refunded = true
	}
}

func isBool(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}
