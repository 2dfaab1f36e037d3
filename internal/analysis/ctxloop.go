package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxloop: every unbounded loop in a function that takes a context.Context
// must poll cancellation on every iteration.
//
// "Unbounded" is syntactic: a for statement with no condition (for {...}) or
// with a condition but neither init nor post (for cond {...} — the
// worklist/fixpoint shape of the GAC and join-planning loops). Range loops
// and three-clause counting loops are considered bounded.
//
// "Polls cancellation" means the loop body is guaranteed, on every path
// through one iteration, to evaluate one of:
//
//   - ctx.Err() or ctx.Done() on a context.Context value;
//   - a call to a function that itself (transitively) performs such a check —
//     so the engine's amortized cancelChecker.cancelledAfter helper and the
//     context-aware solver entry points count; the transitive set comes from
//     the shared call-graph engine's PollsCtx summaries;
//   - a select statement with a <-ctx.Done() case.
//
// One amortization idiom is recognized: `if counter%interval == 0 { ...check
// ... }` counts as a check, because the guard is evaluated every iteration
// and the poll happens on a fixed cadence (the shape of the bitset engine's
// set-up, which ticks its checker once per setupRowsPerTick rows). A check that is merely conditional on arbitrary state does
// not count — that is exactly the bug class (a branch that stops polling)
// this analyzer exists to catch.
var ctxloopAnalyzer = &Analyzer{
	Name:         "ctxloop",
	Doc:          "unbounded loops in context-taking functions must poll cancellation on every iteration",
	CheckPackage: runCtxloop,
}

func runCtxloop(pass *Pass, pkg *Package, _ any) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && hasCtxParam(pkg, fd) {
				checkCtxFunc(pass, pkg, fd.Body)
			}
		}
	}
}

// hasCtxParam reports whether the function declares a context.Context
// parameter.
func hasCtxParam(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t, ok := pkg.Info.Types[field.Type]; ok && isContextType(t.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxFunc inspects a function body (including nested function literals,
// which capture the context) for unbounded loops that fail the per-iteration
// check guarantee.
func checkCtxFunc(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || !isUnboundedLoop(loop) {
			return true
		}
		g := &guarantee{pkg: pkg, graph: pass.Graph}
		if !g.block(loop.Body) && !g.hasCheck(loop.Cond) {
			pass.Reportf(loop.For, "unbounded loop does not poll cancellation on every iteration (call ctx.Err()/ctx.Done() or a checking helper)")
		}
		return true
	})
}

// isUnboundedLoop classifies for statements with no termination structure:
// `for {}` and condition-only loops (worklist fixpoints).
func isUnboundedLoop(loop *ast.ForStmt) bool {
	return loop.Cond == nil || (loop.Init == nil && loop.Post == nil)
}

// isDirectCtxCheck matches ctx.Err() / ctx.Done() where ctx has type
// context.Context.
func isDirectCtxCheck(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	t, ok := pkg.Info.Types[sel.X]
	return ok && isContextType(t.Type)
}

// calleeFunc resolves a call's static callee, or nil (interface calls,
// function values, builtins).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// guarantee implements the per-iteration must-check analysis: does every
// path through one execution of a statement list evaluate a cancellation
// check? Transitive checking helpers are resolved through the call-graph
// engine's PollsCtx summaries.
type guarantee struct {
	pkg   *Package
	graph *CallGraph
}

// block reports whether the statement list guarantees a check.
func (g *guarantee) block(b *ast.BlockStmt) bool {
	if b == nil {
		return false
	}
	for _, s := range b.List {
		if g.stmt(s) {
			return true
		}
	}
	return false
}

func (g *guarantee) stmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return g.block(s)
	case *ast.LabeledStmt:
		return g.stmt(s.Stmt)
	case *ast.IfStmt:
		if g.hasCheck(s.Init) || g.hasCheck(s.Cond) {
			return true
		}
		// Amortized poll gate: a modulo guard runs every iteration, so a
		// check inside it fires on a fixed cadence.
		if containsModulo(s.Cond) && g.block(s.Body) {
			return true
		}
		// Both branches present and both guarantee the check.
		if s.Else != nil && g.block(s.Body) && g.stmt(s.Else) {
			return true
		}
		return false
	case *ast.SwitchStmt:
		if g.hasCheck(s.Init) || g.hasCheck(s.Tag) {
			return true
		}
		return g.allCasesGuarantee(s.Body)
	case *ast.TypeSwitchStmt:
		return g.allCasesGuarantee(s.Body)
	case *ast.SelectStmt:
		// A select with a <-ctx.Done() case polls cancellation whenever it
		// runs; otherwise require every case body to guarantee the check.
		all := len(s.Body.List) > 0
		for _, clause := range s.Body.List {
			c := clause.(*ast.CommClause)
			if g.hasCheckStmt(c.Comm) {
				return true
			}
			if !g.blockList(c.Body) {
				all = false
			}
		}
		return all
	case *ast.ForStmt, *ast.RangeStmt:
		// A nested loop may run zero iterations; no guarantee transfers.
		return false
	default:
		return g.hasCheckStmt(s)
	}
}

// allCasesGuarantee requires a default clause and every clause body to
// guarantee the check.
func (g *guarantee) allCasesGuarantee(body *ast.BlockStmt) bool {
	hasDefault := false
	for _, clause := range body.List {
		c := clause.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		if !g.blockList(c.Body) {
			return false
		}
	}
	return hasDefault
}

func (g *guarantee) blockList(list []ast.Stmt) bool {
	for _, s := range list {
		if g.stmt(s) {
			return true
		}
	}
	return false
}

// hasCheckStmt scans one non-branching statement for a check expression.
func (g *guarantee) hasCheckStmt(s ast.Stmt) bool {
	if s == nil {
		return false
	}
	found := false
	inspectSkippingFuncLits(s, func(n ast.Node) bool {
		if found {
			return false
		}
		// Do not let a nested loop's body vouch for this statement.
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if isDirectCtxCheck(g.pkg, call) || g.graph.PollsCtx(calleeFunc(g.pkg, call)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// hasCheck scans one expression or simple statement for a check.
func (g *guarantee) hasCheck(n ast.Node) bool {
	if n == nil {
		return false
	}
	switch n := n.(type) {
	case ast.Stmt:
		return g.hasCheckStmt(n)
	case ast.Expr:
		return g.hasCheckStmt(&ast.ExprStmt{X: n})
	}
	return false
}

// containsModulo reports whether the expression contains a % operation (the
// amortized-gate signature).
func containsModulo(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.REM {
			found = true
		}
		return !found
	})
	return found
}
