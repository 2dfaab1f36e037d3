package schaefer

import (
	"context"
	"fmt"
	"math/bits"

	"csdb/internal/csp"
)

// This file holds a polynomial solver per Schaefer class and the generic
// search used outside them. Each solver reads its class's polymorphism:
//
//	0/1-valid:  the constant assignment
//	Horn:       width 1: GAC, then every variable's least surviving value
//	dual Horn:  width 1: GAC, then every variable's greatest surviving value
//	bijunctive: 2-SAT on the clauses of the binary projections (Tarjan SCC)
//	affine:     Gaussian elimination over GF(2)
//
// GAC and the projection clauses only relax an instance, and CompileAffine
// refuses a relation that is not affine, so an UNSAT verdict holds whatever
// the template, and every assignment is checked before it is returned.
// Outside its class a solver returns an error, never a wrong verdict. Every
// solver that takes a context returns an Aborted result, and no error, once
// it ends.

// found returns the SAT result of assign, or an error when the assignment
// fails the instance, which only a template outside class can cause.
func found(p *Instance, assign []int, class Class) (csp.Result, error) {
	if !p.Satisfies(assign) {
		return csp.Result{}, fmt.Errorf("schaefer: the %v solver's assignment fails the instance; its template is not %v", class, class)
	}
	return csp.Result{Found: true, Solution: assign}, nil
}

// SolveConstant solves a 0-valid (value 0) or 1-valid (value 1) instance
// with the constant assignment.
func SolveConstant(p *Instance, value int) (csp.Result, error) {
	if err := p.Validate(); err != nil {
		return csp.Result{}, err
	}
	assign := make([]int, p.NumVars)
	for i := range assign {
		assign[i] = value
	}
	return found(p, assign, ZeroValid+Class(value))
}

// --- Horn and dual Horn ---

// SolveHorn decides an instance over a Horn (AND-closed) template. Such a
// template has width 1 (Feder–Vardi): generalized arc consistency decides
// it. AND is the minimum on {0,1}, so in each constraint the AND of the
// tuples supporting its variables' least surviving values is a tuple of the
// relation made of exactly those values: the least surviving values are a
// solution.
func SolveHorn(ctx context.Context, p *Instance) (csp.Result, error) {
	return solveWidthOne(ctx, p, Horn)
}

// SolveDualHorn decides an instance over a dual-Horn (OR-closed) template
// as SolveHorn does, with OR the maximum: every variable takes its greatest
// surviving value.
func SolveDualHorn(ctx context.Context, p *Instance) (csp.Result, error) {
	return solveWidthOne(ctx, p, DualHorn)
}

func solveWidthOne(ctx context.Context, p *Instance, class Class) (csp.Result, error) {
	q, err := p.ToCSP()
	if err != nil {
		return csp.Result{}, err
	}
	doms, ok, err := csp.GAC(ctx, q)
	switch {
	case err != nil: // ctx's: GAC fails no other way
		return csp.Result{Aborted: true}, nil
	case !ok:
		return csp.Result{}, nil
	}
	assign := make([]int, len(doms))
	for v, d := range doms {
		assign[v] = d[0]
		if class == DualHorn {
			assign[v] = d[len(d)-1]
		}
	}
	return found(p, assign, class)
}

// --- Bijunctive (2-SAT) ---

// twoClause is a clause of one or two literals over relation positions:
// literal 2i+a asserts that position i takes value a, and a unit clause
// repeats its literal.
type twoClause [2]int

// falsifiers returns the codes whose tuples falsify literal l.
func (r *BoolRel) falsifiers(l int) codeSet { return column(r.arity, l>>1, 1-l&1) }

// CompileTwoSat reads the relation's 1- and 2-literal clauses off its unary
// and binary projections: a value a missing at position i gives the unit
// clause x_i ≠ a, and a pair (a, b) missing at positions (i, j), with both
// values present, gives x_i ≠ a ∨ x_j ≠ b. The relation entails every
// clause, and their conjunction is exactly the relation when it is
// bijunctive (IsBijunctive). An empty relation yields both units at every
// position.
func CompileTwoSat(r *BoolRel) []twoClause {
	k := r.arity
	var cols [MaxArity][2]codeSet
	var seen [MaxArity][2]bool
	for i := range k {
		for a := range 2 {
			cols[i][a] = column(k, i, a)
			seen[i][a] = r.meets(&cols[i][a], &cols[i][a])
		}
	}
	var out []twoClause
	for i := range k {
		for a := range 2 {
			if !seen[i][a] {
				out = append(out, twoClause{2*i + 1 - a, 2*i + 1 - a})
				continue
			}
			for j := i + 1; j < k; j++ {
				for b := range 2 {
					if seen[j][b] && !r.meets(&cols[i][a], &cols[j][b]) {
						out = append(out, twoClause{2*i + 1 - a, 2*j + 1 - b})
					}
				}
			}
		}
	}
	return out
}

// SolveTwoSat decides an instance over a bijunctive template by 2-SAT on
// its relations' projection clauses, placed on each constraint's scope,
// with the linear-time implication-graph algorithm (Tarjan SCC). A scope
// variable that fills both places of a clause makes it a unit clause, or a
// tautology whose implications are self-loops.
func SolveTwoSat(ctx context.Context, p *Instance) (csp.Result, error) {
	if err := p.Validate(); err != nil {
		return csp.Result{}, err
	}
	clauses := make([][]twoClause, len(p.Template.Rels))
	for i, r := range p.Template.Rels {
		clauses[i] = CompileTwoSat(r)
	}
	// Node 2v+a is the literal x_v = a, and node^1 its negation.
	adj := make([][]int, 2*p.NumVars)
	for ci, con := range p.Cons {
		if ci%pollEvery == 0 && ctx.Err() != nil {
			return csp.Result{Aborted: true}, nil
		}
		for _, c := range clauses[con.Rel] {
			a := 2*con.Scope[c[0]>>1] + c[0]&1
			b := 2*con.Scope[c[1]>>1] + c[1]&1
			adj[a^1] = append(adj[a^1], b)
			adj[b^1] = append(adj[b^1], a)
		}
	}
	if ctx.Err() != nil {
		return csp.Result{Aborted: true}, nil
	}
	comp := tarjanSCC(adj)
	assign := make([]int, p.NumVars)
	for v := range assign {
		if comp[2*v] == comp[2*v+1] {
			return csp.Result{}, nil
		}
		// Tarjan numbers components sinks first: the literal whose
		// component comes later in topological order, the smaller number,
		// is set true, and never implies its negation.
		if comp[2*v+1] < comp[2*v] {
			assign[v] = 1
		}
	}
	return found(p, assign, Bijunctive)
}

// pollEvery is how many constraints the 2-SAT and affine solvers handle
// between two polls of their context.
const pollEvery = 256

// tarjanSCC returns the SCC index of every node; components are numbered in
// reverse topological order (sinks first).
func tarjanSCC(adj [][]int) []int {
	n := len(adj)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	counter, nComp := 0, 0

	// Iterative Tarjan to avoid deep recursion on long implication chains.
	type frame struct {
		v, childIdx int
	}
	for start := 0; start < n; start++ {
		if index[start] >= 0 {
			continue
		}
		var frames []frame
		frames = append(frames, frame{start, 0})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.childIdx < len(adj[f.v]) {
				w := adj[f.v][f.childIdx]
				f.childIdx++
				if index[w] < 0 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-process v.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				pv := frames[len(frames)-1].v
				if low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	return comp
}

// --- Affine ---

// affineRow is one GF(2) equation over relation positions.
type affineRow struct {
	coeffs []int // positions with coefficient 1
	rhs    int
}

// CompileAffine derives a GF(2) equation system whose solutions are exactly
// the relation, h·x = h·t0 for h over a basis of the space orthogonal to
// its directions; it fails when the relation is not affine.
func CompileAffine(r *BoolRel) ([]affineRow, error) {
	if !r.IsAffine() {
		return nil, fmt.Errorf("schaefer: relation %v is not affine", r)
	}
	if r.Len() == 0 {
		return []affineRow{{rhs: 1}}, nil // 0 = 1: unsatisfiable
	}
	basis, t0 := r.directions()
	var rows []affineRow
	for j := range r.arity {
		if basis[j] != 0 {
			continue
		}
		// The free code bit j, with every pivot whose vector has bit j: in
		// reduced echelon form this h is orthogonal to every basis vector.
		h := 1 << j
		for pv, v := range basis {
			if v>>j&1 == 1 {
				h |= 1 << pv
			}
		}
		row := affineRow{rhs: bits.OnesCount(uint(h&t0)) & 1}
		for b := r.arity - 1; b >= 0; b-- {
			if h>>b&1 == 1 {
				row.coeffs = append(row.coeffs, r.arity-1-b)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SolveAffine solves an affine instance by Gaussian elimination over GF(2).
func SolveAffine(ctx context.Context, p *Instance) (csp.Result, error) {
	if err := p.Validate(); err != nil {
		return csp.Result{}, err
	}
	compiled := make([][]affineRow, len(p.Template.Rels))
	for i, r := range p.Template.Rels {
		var err error
		if compiled[i], err = CompileAffine(r); err != nil {
			return csp.Result{}, err
		}
	}
	type eq struct {
		coeffs map[int]bool
		rhs    int
	}
	var system []eq
	for ci, con := range p.Cons {
		if ci%pollEvery == 0 && ctx.Err() != nil {
			return csp.Result{Aborted: true}, nil
		}
		for _, row := range compiled[con.Rel] {
			e := eq{coeffs: make(map[int]bool), rhs: row.rhs}
			for _, pos := range row.coeffs {
				v := con.Scope[pos]
				if e.coeffs[v] {
					delete(e.coeffs, v) // x ⊕ x = 0
				} else {
					e.coeffs[v] = true
				}
			}
			system = append(system, e)
		}
	}
	// Gaussian elimination in reduced row-echelon form: every pivot
	// equation contains exactly its own pivot variable plus free variables,
	// so back-substitution with all free variables zero is immediate.
	xorInto := func(dst *eq, src eq) {
		for w := range src.coeffs {
			if dst.coeffs[w] {
				delete(dst.coeffs, w)
			} else {
				dst.coeffs[w] = true
			}
		}
		dst.rhs ^= src.rhs
	}
	pivotOf := make(map[int]int) // pivot variable -> equation index
	for ei := range system {
		if ctx.Err() != nil {
			return csp.Result{Aborted: true}, nil
		}
		e := &system[ei]
		// One reduction pass suffices: pivot equations contain no other
		// pivot variables, so xoring them in cannot reintroduce one.
		for v, pe := range pivotOf {
			if e.coeffs[v] {
				xorInto(e, system[pe])
			}
		}
		if len(e.coeffs) == 0 {
			if e.rhs != 0 {
				return csp.Result{}, nil
			}
			continue
		}
		var pv int
		for v := range e.coeffs {
			pv = v
			break
		}
		// Restore the invariant: eliminate pv (free until now) from every
		// existing pivot equation.
		for _, pe := range pivotOf {
			if system[pe].coeffs[pv] {
				xorInto(&system[pe], *e)
			}
		}
		pivotOf[pv] = ei
	}
	assign := make([]int, p.NumVars)
	for pv, ei := range pivotOf {
		assign[pv] = system[ei].rhs
	}
	return found(p, assign, Affine)
}

// --- Generic search and dispatch ---

// SolveGeneric solves by general backtracking search (the NP baseline).
func SolveGeneric(ctx context.Context, p *Instance, opts csp.Options) (csp.Result, error) {
	q, err := p.ToCSP()
	if err != nil {
		return csp.Result{}, err
	}
	return csp.SolveCtx(ctx, q, opts), nil
}

// Solve runs the solver of the template's first Schaefer class, in
// Classify's order, or generic search outside all six classes. It returns
// the result and the class solved, nil when generic search ran. An expired
// ctx yields an Aborted result and no error.
func Solve(ctx context.Context, p *Instance) (csp.Result, *Class, error) {
	class, ok := p.Template.first()
	if !ok {
		res, err := SolveGeneric(ctx, p, csp.Options{})
		return res, nil, err
	}
	if ctx.Err() != nil {
		return csp.Result{Aborted: true}, &class, nil
	}
	var res csp.Result
	var err error
	switch class {
	case ZeroValid:
		res, err = SolveConstant(p, 0)
	case OneValid:
		res, err = SolveConstant(p, 1)
	case Horn:
		res, err = SolveHorn(ctx, p)
	case DualHorn:
		res, err = SolveDualHorn(ctx, p)
	case Bijunctive:
		res, err = SolveTwoSat(ctx, p)
	case Affine:
		res, err = SolveAffine(ctx, p)
	}
	return res, &class, err
}
