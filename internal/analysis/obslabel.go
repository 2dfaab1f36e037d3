package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obslabel: label values passed to obs *Vec metrics must come from fixed,
// enumerable sets.
//
// Labeled metrics (obs.CounterVec / obs.HistogramVec, PR-8) cap their series
// count and collapse overflow into an "_overflow" series, but a cap is a
// backstop, not a license: a label fed from request data or formatted
// strings silently degrades the whole vector once the cap is hit. This
// analyzer enforces the discipline statically — every label-value argument
// of a Vec recording call must be provably drawn from a finite set:
//
//   - a string literal or any constant expression;
//   - a call to a pure-literal function: one whose every return statement
//     yields only allowed expressions (the Class.label / laneLabel /
//     statusLabel pattern — a switch with a literal per case and a literal
//     default);
//   - a local variable whose every assignment is an allowed expression
//     (the `outcome := "loss"; if won { outcome = "win" }` pattern).
//
// Parameters, package-level variables, data-derived expressions and
// formatting calls are rejected: their value sets belong to the caller or
// the input, not the instrumentation site. Note the pure-literal rule is
// syntactic on purpose: a helper that echoes its (switch-matched) argument
// is rejected even though its value set is closed — each case must return
// its own literal, so the label set is readable off the helper.
//
// Span names and attribute keys are held to a stricter rule: the name
// passed to StartRoot, StartChild or StartSpan and the key passed to
// Span.SetInt or Span.SetStr must be a constant expression. The tracer
// interns them in a bounded name table, and constants are what keep it to
// a few dozen entries; a helper's or a variable's value set is not readable
// at the call.
var obslabelAnalyzer = &Analyzer{
	Name:         "obslabel",
	Doc:          "label values passed to obs *Vec metrics must come from fixed enumerable sets (literals, consts, pure-literal helpers); span names and attribute keys must be constants",
	Prepare:      prepareObslabel,
	CheckPackage: runObslabel,
}

// obsVecLabelArgs maps Vec receiver type → recording method → index of the
// first label-value argument.
var obsVecLabelArgs = map[string]map[string]int{
	"CounterVec":   {"Add": 1, "Inc": 0},
	"HistogramVec": {"Observe": 1},
}

// obsSpanNameArgs maps a tracer entry point's receiver type ("" for the
// package-level functions) → function → index of its name or key argument.
var obsSpanNameArgs = map[string]map[string]int{
	"":       {"StartRoot": 0, "StartChild": 1, "StartSpan": 1},
	"Tracer": {"StartRoot": 0, "StartChild": 1},
	"Span":   {"SetInt": 0, "SetStr": 0},
}

// obslabelIndex is the cross-package function-declaration index used to
// resolve pure-literal helpers.
type obslabelIndex struct {
	decls map[*types.Func]obslabelDecl
}

type obslabelDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// prepareObslabel builds the cross-package declaration index once; package
// checks only read it.
func prepareObslabel(pass *Pass) any {
	idx := &obslabelIndex{decls: make(map[*types.Func]obslabelDecl)}
	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx.decls[fn] = obslabelDecl{pkg: pkg, decl: fd}
				}
			}
		}
	}
	return idx
}

func runObslabel(pass *Pass, pkg *Package, facts any) {
	idx := facts.(*obslabelIndex)
	if pkg.Path == obsPkgPath {
		return // the layer itself is not an instrumentation site
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkObslabelFunc(pass, idx, pkg, fd)
			}
		}
	}
}

// checkObslabelFunc flags every non-enumerable label argument of a Vec
// recording call in one function declaration.
func checkObslabelFunc(pass *Pass, idx *obslabelIndex, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, i := obsSpanNameCall(pkg, call); name != "" && i < len(call.Args) {
			if tv, ok := pkg.Info.Types[call.Args[i]]; !ok || tv.Value == nil {
				pass.Reportf(call.Args[i].Pos(),
					"non-constant span name or attribute key passed to %s; the tracer's name table is bounded by constant names", name)
			}
			return true
		}
		name, start := obsVecRecordingCall(pkg, call)
		if name == "" {
			return true
		}
		for i := start; i < len(call.Args); i++ {
			if !idx.allowedLabelExpr(pkg, fd, call.Args[i], make(map[any]bool)) {
				pass.Reportf(call.Args[i].Pos(),
					"non-enumerable label value passed to %s; use a string literal, const, or pure-literal helper", name)
			}
		}
		return true
	})
}

// obsCallee returns the receiver type name ("" for a package-level
// function) and the name of the obs function or method call calls, or
// ok=false when call is not into the obs package.
func obsCallee(pkg *Package, call *ast.CallExpr) (recv, name string, ok bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
		named := namedRecv(sig.Recv().Type())
		if named == nil {
			return "", "", false
		}
		return named.Obj().Name(), fn.Name(), true
	}
	return "", fn.Name(), true
}

// obsVecRecordingCall returns the printable callee name and the index of the
// first label argument when call records into a labeled Vec, or ("", 0).
func obsVecRecordingCall(pkg *Package, call *ast.CallExpr) (string, int) {
	recv, name, ok := obsCallee(pkg, call)
	if !ok || recv == "" {
		return "", 0
	}
	start, ok := obsVecLabelArgs[recv][name]
	if !ok {
		return "", 0
	}
	return "obs." + recv + "." + name, start
}

// obsSpanNameCall returns the printable callee name and the index of the
// name or key argument when call is a tracer entry point, or ("", 0).
func obsSpanNameCall(pkg *Package, call *ast.CallExpr) (string, int) {
	recv, name, ok := obsCallee(pkg, call)
	if !ok {
		return "", 0
	}
	i, ok := obsSpanNameArgs[recv][name]
	if !ok {
		return "", 0
	}
	if recv != "" {
		return "obs." + recv + "." + name, i
	}
	return "obs." + name, i
}

// allowedLabelExpr reports whether e provably evaluates to a member of a
// fixed finite string set. root is the enclosing function declaration (the
// scope searched for local-variable assignments); visited (*types.Func and
// *types.Var keys) breaks recursion through mutually-recursive helpers and
// variable assignments.
func (idx *obslabelIndex) allowedLabelExpr(pkg *Package, root *ast.FuncDecl, e ast.Expr, visited map[any]bool) bool {
	e = ast.Unparen(e)
	// Any constant expression — literals, named consts, folded concats.
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pkg, e)
		return fn != nil && idx.pureLiteralFunc(fn, visited)
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok {
			return false
		}
		return idx.localLiteralVar(pkg, root, v, visited)
	}
	return false
}

// localLiteralVar reports whether v is a local variable of root whose every
// assignment is an allowed expression. Parameters and range variables have
// no visible assignment, so they fail the "at least one" requirement; taking
// the variable's address or compound-assigning to it disqualifies it.
func (idx *obslabelIndex) localLiteralVar(pkg *Package, root *ast.FuncDecl, v *types.Var, visited map[any]bool) bool {
	if visited[v] {
		return true // assignment cycle: every other write has been checked
	}
	visited[v] = true
	assigned, ok := false, true
	ast.Inspect(root, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, isIdent := lhs.(*ast.Ident)
				if !isIdent {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj == nil {
					obj = pkg.Info.Uses[id]
				}
				if obj != v {
					continue
				}
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					ok = false // compound assignment builds a new value
					return false
				}
				if len(n.Rhs) != len(n.Lhs) {
					ok = false // multi-value assignment from a call
					return false
				}
				assigned = true
				if !idx.allowedLabelExpr(pkg, root, n.Rhs[i], visited) {
					ok = false
					return false
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if pkg.Info.Defs[id] != v {
					continue
				}
				if len(n.Values) != len(n.Names) {
					ok = false // declared without a checkable initializer
					return false
				}
				assigned = true
				if !idx.allowedLabelExpr(pkg, root, n.Values[i], visited) {
					ok = false
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, isIdent := ast.Unparen(n.X).(*ast.Ident); isIdent && pkg.Info.Uses[id] == v {
					ok = false // address taken: mutations are untrackable
					return false
				}
			}
		}
		return true
	})
	return ok && assigned
}

// pureLiteralFunc reports whether fn's declaration is visible in the target
// set and every return statement yields only allowed expressions. Named
// results (naked returns) are rejected — the result flows through a
// variable the return does not show.
func (idx *obslabelIndex) pureLiteralFunc(fn *types.Func, visited map[any]bool) bool {
	if visited[fn] {
		return true // cycle: every other return has been / will be checked
	}
	visited[fn] = true
	d, ok := idx.decls[fn]
	if !ok || d.decl.Body == nil {
		return false
	}
	if res := d.decl.Type.Results; res == nil || len(res.List) != 1 || len(res.List[0].Names) != 0 {
		return false
	}
	pure := true
	inspectSkippingFuncLits(d.decl.Body, func(n ast.Node) bool {
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || !pure {
			return pure
		}
		if len(ret.Results) != 1 || !idx.allowedLabelExpr(d.pkg, d.decl, ret.Results[0], visited) {
			pure = false
		}
		return pure
	})
	return pure
}
