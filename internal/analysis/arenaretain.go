package analysis

import (
	"go/ast"
	"go/types"
)

// arenaretain: row slices handed out by the relational kernel's arena
// accessors must not be stored anywhere that outlives the call.
//
// The library keeps every tuple set in one store, relation.Table, whose rows
// live in one flat value array; Table.Row and Table.Tuples (and so
// csp.Table and structure.Interp, which are that type) and
// Relation.Tuples and Relation.SortedTuples hand out views into it. A view
// retained across a kernel mutation aliases memory the kernel may grow or
// rewrite — the classic stale-arena-pointer hazard. Reading a view inside
// the call that obtained it is fine; storing it into a struct field, a
// package-level variable, or a channel is not (use Rows, Clone, or an
// explicit copy instead).
//
// The analysis is an intra-procedural, flow-insensitive taint pass: accessor
// call results are tainted; taint propagates through assignment to locals,
// indexing, slicing, append, composite literals and range-over; a diagnostic
// fires when a tainted value is assigned into a field selector or a
// package-level variable, or sent on a channel. Calls other than append
// launder taint (callees are assumed to copy — the kernel's own Add/MustAdd
// do). The kernel's defining packages are exempt for their own accessors:
// the cache inside Relation.Tuples is the implementation, not a client.
var arenaretainAnalyzer = &Analyzer{
	Name:         "arenaretain",
	Doc:          "arena row views (Relation.Tuples & co.) must not be stored in state that outlives the call",
	CheckPackage: runArenaretain,
}

// arenaAccessors maps defining package path -> receiver type -> method names
// whose results are views into kernel-owned storage.
var arenaAccessors = map[string]map[string]map[string]bool{
	"csdb/internal/relation": {
		"Relation": {"Tuples": true, "SortedTuples": true},
		"Table":    {"Tuples": true, "Row": true},
	},
}

func runArenaretain(pass *Pass, pkg *Package, _ any) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkArenaFunc(pass, pkg, fd.Body)
			}
		}
	}
}

// arenaTaint is the per-function taint state.
type arenaTaint struct {
	pkg     *Package
	tainted map[types.Object]bool
}

func checkArenaFunc(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	t := &arenaTaint{pkg: pkg, tainted: make(map[types.Object]bool)}

	// Fixpoint over assignments and declarations: propagate accessor taint
	// into local variables (flow-insensitive, so ordering quirks and loops
	// need no special handling).
	for changed := true; changed; {
		changed = false
		inspectSkippingFuncLits(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					rhs := assignedExpr(n.Lhs, n.Rhs, i)
					if rhs != nil && t.exprTainted(rhs) {
						if t.markIdent(lhs) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					rhs := assignedExpr(nil, n.Values, i)
					if rhs != nil && t.exprTainted(rhs) {
						if t.markIdent(name) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if t.exprTainted(n.X) && n.Value != nil {
					if t.markIdent(n.Value) {
						changed = true
					}
				}
			}
			return true
		})
	}

	// Report escaping stores of tainted values.
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := assignedExpr(n.Lhs, n.Rhs, i)
				if rhs == nil || !t.exprTainted(rhs) {
					continue
				}
				if kind := t.escapingLHS(lhs); kind != "" {
					pass.Reportf(n.Pos(), "arena row view stored in %s; it aliases kernel storage that later mutations may rewrite (copy it, or use Rows)", kind)
				}
			}
		case *ast.SendStmt:
			if t.exprTainted(n.Value) {
				pass.Reportf(n.Pos(), "arena row view sent on a channel; it aliases kernel storage that later mutations may rewrite (copy it, or use Rows)")
			}
		}
		return true
	})
}

// assignedExpr pairs LHS index i with its RHS expression, handling both
// one-to-one and tuple (single-RHS) assignment forms.
func assignedExpr(lhs, rhs []ast.Expr, i int) ast.Expr {
	if len(rhs) == 0 {
		return nil
	}
	if lhs == nil || len(lhs) == len(rhs) {
		if i < len(rhs) {
			return rhs[i]
		}
		return nil
	}
	// x, y := f(): taint flows from the single call to every LHS.
	return rhs[0]
}

// markIdent taints the object behind an identifier LHS; returns whether the
// state changed.
func (t *arenaTaint) markIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := t.pkg.Info.Defs[id]
	if obj == nil {
		obj = t.pkg.Info.Uses[id]
	}
	if obj == nil || t.tainted[obj] {
		return false
	}
	t.tainted[obj] = true
	return true
}

// exprTainted reports whether the expression may be (or contain) an arena
// view.
func (t *arenaTaint) exprTainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := t.pkg.Info.Uses[e]
		return obj != nil && t.tainted[obj]
	case *ast.IndexExpr:
		return t.exprTainted(e.X)
	case *ast.SliceExpr:
		return t.exprTainted(e.X)
	case *ast.StarExpr:
		return t.exprTainted(e.X)
	case *ast.UnaryExpr:
		return t.exprTainted(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.exprTainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if t.isArenaAccessorCall(e) {
			return true
		}
		// append propagates taint; a conversion wraps the same backing
		// array; other calls are assumed to copy.
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			if obj, ok := t.pkg.Info.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
				for _, arg := range e.Args {
					if t.exprTainted(arg) {
						return true
					}
				}
				return false
			}
		}
		if len(e.Args) == 1 {
			if tv, ok := t.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
				return t.exprTainted(e.Args[0]) // type conversion
			}
		}
		return false
	}
	return false
}

// isArenaAccessorCall matches calls to the registered arena accessors,
// unless the enclosing package defines the accessor (the kernel may manage
// its own views).
func (t *arenaTaint) isArenaAccessorCall(call *ast.CallExpr) bool {
	fn := calleeFunc(t.pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	byType, ok := arenaAccessors[fn.Pkg().Path()]
	if !ok || t.pkg.Path == fn.Pkg().Path() {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedRecv(sig.Recv().Type())
	if named == nil {
		return false
	}
	methods, ok := byType[named.Obj().Name()]
	return ok && methods[fn.Name()]
}

// escapingLHS classifies an assignment target that outlives the call:
// a struct field, a package-level variable, or an element of either.
func (t *arenaTaint) escapingLHS(lhs ast.Expr) string {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := t.pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return "struct field " + sel.Obj().Name()
		}
		if obj, ok := t.pkg.Info.Uses[lhs.Sel].(*types.Var); ok && isPackageLevel(obj) {
			return "package variable " + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := t.pkg.Info.Uses[lhs].(*types.Var); ok && isPackageLevel(obj) {
			return "package variable " + obj.Name()
		}
	case *ast.IndexExpr:
		return t.escapingLHS(lhs.X)
	case *ast.StarExpr:
		return t.escapingLHS(lhs.X)
	}
	return ""
}

// isPackageLevel reports whether the variable is declared at package scope.
func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
