package schaefer

import (
	"fmt"

	"csdb/internal/csp"
)

// This file implements the dedicated polynomial-time solvers for Schaefer's
// six tractable classes, plus the generic search baseline used outside
// them. Each class solver follows the classical algorithm:
//
//	0/1-valid:  the constant assignment
//	Horn:       compile to Horn clauses, unit propagation (least model)
//	dual Horn:  value-flip reduction to Horn
//	bijunctive: compile to 2-clauses, implication-graph 2-SAT via SCC
//	affine:     compile to GF(2) linear systems, Gaussian elimination
//
// Compilation from a closed relation to clause/equation form enumerates the
// entailed clauses and verifies the conjunction is exactly the relation —
// possible precisely when the relation has the class's closure property.

// maxCompileArity bounds clause-compilation (3^arity candidate clauses).
const maxCompileArity = 10

// SolveConstant solves 0-valid or 1-valid instances with the constant
// assignment (the definition of the class guarantees it works).
func SolveConstant(p *Instance, value int) ([]int, bool) {
	assign := make([]int, p.NumVars)
	for i := range assign {
		assign[i] = value
	}
	if p.Satisfies(assign) {
		return assign, true
	}
	return nil, false
}

// --- Horn ---

// hornClause is (¬n1 ∨ ... ∨ ¬nk ∨ p), with p = -1 when there is no
// positive literal. Indices are positions (in compiled form) or variables
// (in instance form).
type hornClause struct {
	pos  int
	negs []int
}

// CompileHorn enumerates the Horn clauses entailed by the relation and
// checks they define it exactly. Fails when the relation is not Horn.
func CompileHorn(r *BoolRel) ([]hornClause, error) {
	if r.arity > maxCompileArity {
		return nil, fmt.Errorf("schaefer: relation arity %d exceeds compile bound %d", r.arity, maxCompileArity)
	}
	if r.Len() == 0 {
		// The empty relation: the empty clause (unsatisfiable).
		return []hornClause{{pos: -1}}, nil
	}
	var clauses []hornClause
	// Each position is one of: absent (0), negative (1), positive (2),
	// with at most one positive.
	state := make([]int, r.arity)
	var rec func(i, posCount int)
	rec = func(i, posCount int) {
		if i == r.arity {
			c := hornClause{pos: -1}
			any := false
			for j, s := range state {
				switch s {
				case 1:
					c.negs = append(c.negs, j)
					any = true
				case 2:
					c.pos = j
					any = true
				}
			}
			if !any {
				return
			}
			if entailsClause(r, c) {
				clauses = append(clauses, c)
			}
			return
		}
		for s := 0; s <= 2; s++ {
			if s == 2 && posCount == 1 {
				continue
			}
			state[i] = s
			np := posCount
			if s == 2 {
				np++
			}
			rec(i+1, np)
		}
		state[i] = 0
	}
	rec(0, 0)
	// Completeness: every non-member must falsify some clause.
	for code := 0; code < 1<<r.arity; code++ {
		if r.rows[code] {
			continue
		}
		t := r.decode(code)
		refuted := false
		for _, c := range clauses {
			if !satisfiesHorn(t, c) {
				refuted = true
				break
			}
		}
		if !refuted {
			return nil, fmt.Errorf("schaefer: relation %v is not Horn-definable", r)
		}
	}
	return clauses, nil
}

// entailsClause reports whether every tuple of r satisfies the clause.
func entailsClause(r *BoolRel, c hornClause) bool {
	for code := range r.rows {
		if !satisfiesHorn(r.decode(code), c) {
			return false
		}
	}
	return true
}

func satisfiesHorn(t []int, c hornClause) bool {
	if c.pos >= 0 && t[c.pos] == 1 {
		return true
	}
	for _, n := range c.negs {
		if t[n] == 0 {
			return true
		}
	}
	return false
}

// SolveHorn solves the instance by Horn-SAT unit propagation over the
// compiled clauses of each constraint. It returns the least model when
// satisfiable.
func SolveHorn(p *Instance) ([]int, bool, error) {
	clauses, err := instanceHornClauses(p, false)
	if err != nil {
		return nil, false, err
	}
	assign, ok := hornSat(p.NumVars, clauses)
	return assign, ok, nil
}

// SolveDualHorn solves dual-Horn instances by flipping values, solving the
// Horn image, and flipping back.
func SolveDualHorn(p *Instance) ([]int, bool, error) {
	clauses, err := instanceHornClauses(p, true)
	if err != nil {
		return nil, false, err
	}
	assign, ok := hornSat(p.NumVars, clauses)
	if !ok {
		return nil, false, nil
	}
	for i := range assign {
		assign[i] = 1 - assign[i]
	}
	return assign, true, nil
}

// instanceHornClauses compiles every constraint to clauses over the
// instance's variables; flip complements all relation values first (the
// dual-Horn reduction).
func instanceHornClauses(p *Instance, flip bool) ([]hornClause, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cache := make(map[int][]hornClause)
	var out []hornClause
	for _, con := range p.Cons {
		compiled, ok := cache[con.Rel]
		if !ok {
			rel := p.Template.Rels[con.Rel]
			if flip {
				rel = flipRel(rel)
			}
			var err error
			compiled, err = CompileHorn(rel)
			if err != nil {
				return nil, err
			}
			cache[con.Rel] = compiled
		}
		for _, c := range compiled {
			inst, tautology := mapHornClause(c, con.Scope)
			if tautology {
				continue
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// mapHornClause substitutes scope variables for positions, handling repeated
// variables (tautologies are dropped, duplicate negatives deduplicated).
func mapHornClause(c hornClause, scope []int) (hornClause, bool) {
	inst := hornClause{pos: -1}
	if c.pos >= 0 {
		inst.pos = scope[c.pos]
	}
	seen := make(map[int]bool)
	for _, n := range c.negs {
		v := scope[n]
		if v == inst.pos {
			return hornClause{}, true // (x ∨ ¬x): tautology
		}
		if !seen[v] {
			seen[v] = true
			inst.negs = append(inst.negs, v)
		}
	}
	return inst, false
}

// flipRel complements every value of the relation (0 ↔ 1).
func flipRel(r *BoolRel) *BoolRel {
	out := MustBoolRel(r.arity)
	mask := 1<<r.arity - 1
	for code := range r.rows {
		out.rows[code^mask] = true
	}
	return out
}

// hornSat runs unit propagation: starting from the all-false assignment,
// derive forced-true variables until fixpoint, then check the all-negative
// clauses.
func hornSat(n int, clauses []hornClause) ([]int, bool) {
	trueSet := make([]bool, n)
	changed := true
	for changed {
		changed = false
		for _, c := range clauses {
			if c.pos < 0 || trueSet[c.pos] {
				continue
			}
			forced := true
			for _, x := range c.negs {
				if !trueSet[x] {
					forced = false
					break
				}
			}
			if forced {
				trueSet[c.pos] = true
				changed = true
			}
		}
	}
	for _, c := range clauses {
		if c.pos >= 0 {
			continue
		}
		violated := true
		for _, x := range c.negs {
			if !trueSet[x] {
				violated = false
				break
			}
		}
		if violated {
			return nil, false
		}
	}
	assign := make([]int, n)
	for i, t := range trueSet {
		if t {
			assign[i] = 1
		}
	}
	return assign, true
}

// --- Bijunctive (2-SAT) ---

// lit is a literal: variable index and sign (true = positive).
type lit struct {
	v   int
	pos bool
}

// twoClause is a clause with one or two literals.
type twoClause []lit

// CompileTwoSat enumerates the 1- and 2-literal clauses entailed by the
// relation and checks completeness; fails when the relation is not
// bijunctive.
func CompileTwoSat(r *BoolRel) ([]twoClause, error) {
	if r.arity > maxCompileArity {
		return nil, fmt.Errorf("schaefer: relation arity %d exceeds compile bound %d", r.arity, maxCompileArity)
	}
	if r.Len() == 0 {
		return []twoClause{{}}, nil // empty clause
	}
	var clauses []twoClause
	try := func(c twoClause) {
		for code := range r.rows {
			if !satisfiesTwo(r.decode(code), c) {
				return
			}
		}
		clauses = append(clauses, c)
	}
	for i := 0; i < r.arity; i++ {
		for _, si := range []bool{false, true} {
			try(twoClause{{i, si}})
			for j := i + 1; j < r.arity; j++ {
				for _, sj := range []bool{false, true} {
					try(twoClause{{i, si}, {j, sj}})
				}
			}
		}
	}
	for code := 0; code < 1<<r.arity; code++ {
		if r.rows[code] {
			continue
		}
		t := r.decode(code)
		refuted := false
		for _, c := range clauses {
			if !satisfiesTwo(t, c) {
				refuted = true
				break
			}
		}
		if !refuted {
			return nil, fmt.Errorf("schaefer: relation %v is not 2-CNF-definable", r)
		}
	}
	return clauses, nil
}

func satisfiesTwo(t []int, c twoClause) bool {
	for _, l := range c {
		if (t[l.v] == 1) == l.pos {
			return true
		}
	}
	return false
}

// SolveTwoSat solves a bijunctive instance by the linear-time
// implication-graph algorithm (Tarjan SCC).
func SolveTwoSat(p *Instance) ([]int, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	cache := make(map[int][]twoClause)
	var clauses []twoClause
	for _, con := range p.Cons {
		compiled, ok := cache[con.Rel]
		if !ok {
			var err error
			compiled, err = CompileTwoSat(p.Template.Rels[con.Rel])
			if err != nil {
				return nil, false, err
			}
			cache[con.Rel] = compiled
		}
		for _, c := range compiled {
			mc := make(twoClause, len(c))
			for i, l := range c {
				mc[i] = lit{con.Scope[l.v], l.pos}
			}
			if len(mc) == 2 {
				if mc[0].v == mc[1].v {
					if mc[0].pos == mc[1].pos {
						mc = mc[:1] // (x ∨ x) = unit
					} else {
						continue // (x ∨ ¬x): tautology
					}
				}
			}
			if len(mc) == 0 {
				return nil, false, nil // empty clause: unsatisfiable
			}
			clauses = append(clauses, mc)
		}
	}
	assign, ok := twoSat(p.NumVars, clauses)
	return assign, ok, nil
}

// twoSat decides satisfiability of 1/2-clauses over n variables via the
// implication graph: node 2v is literal x_v, node 2v+1 is ¬x_v.
func twoSat(n int, clauses []twoClause) ([]int, bool) {
	nodes := 2 * n
	adj := make([][]int, nodes)
	node := func(l lit) int {
		if l.pos {
			return 2 * l.v
		}
		return 2*l.v + 1
	}
	negNode := func(x int) int { return x ^ 1 }
	addImp := func(u, v int) { adj[u] = append(adj[u], v) }
	for _, c := range clauses {
		switch len(c) {
		case 1:
			addImp(negNode(node(c[0])), node(c[0]))
		case 2:
			addImp(negNode(node(c[0])), node(c[1]))
			addImp(negNode(node(c[1])), node(c[0]))
		}
	}
	comp := tarjanSCC(adj)
	assign := make([]int, n)
	for v := 0; v < n; v++ {
		if comp[2*v] == comp[2*v+1] {
			return nil, false
		}
		// Tarjan numbers components in reverse topological order; a literal
		// later in topological order (smaller Tarjan index) is implied-by
		// more things... assign true to the literal whose component comes
		// later in topological order, i.e. with the smaller Tarjan number.
		if comp[2*v] < comp[2*v+1] {
			assign[v] = 1
		}
	}
	return assign, true
}

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

// CompileAffine derives a GF(2) equation system defining the relation;
// fails when the relation is not affine.
func CompileAffine(r *BoolRel) ([]affineRow, error) {
	if !r.IsAffine() {
		return nil, fmt.Errorf("schaefer: relation %v is not affine", r)
	}
	if r.Len() == 0 {
		return []affineRow{{rhs: 1}}, nil // 0 = 1: unsatisfiable
	}
	tuples := r.Tuples()
	t0 := tuples[0]
	// Difference vectors span the direction space V; find a basis of the
	// orthogonal complement: all h with h·(t⊕t0)=0 for all t.
	var basis []uint32 // row-reduced basis of V
	for _, t := range tuples[1:] {
		var vec uint32
		for i := range t {
			if t[i] != t0[i] {
				vec |= 1 << uint(i)
			}
		}
		// Reduce vec by the echelon basis: cancel each row's pivot bit.
		for _, b := range basis {
			if vec&lowestBit(b) != 0 {
				vec ^= b
			}
		}
		if vec != 0 {
			basis = append(basis, vec)
			basis = echelon(basis)
		}
	}
	basis = echelon(basis)
	// Null space of the row space: standard free-variable construction.
	lead := make(map[int]uint32) // leading bit position -> row
	isLead := make([]bool, r.arity)
	for _, b := range basis {
		l := trailingZeros(b)
		lead[l] = b
		isLead[l] = true
	}
	var rows []affineRow
	for j := 0; j < r.arity; j++ {
		if isLead[j] {
			continue
		}
		// Free position j: null vector with 1 at j and at every lead l whose
		// row has bit j.
		var h uint32 = 1 << uint(j)
		for l, b := range lead {
			if b&(1<<uint(j)) != 0 {
				h |= 1 << uint(l)
			}
		}
		row := affineRow{}
		parity := 0
		for i := 0; i < r.arity; i++ {
			if h&(1<<uint(i)) != 0 {
				row.coeffs = append(row.coeffs, i)
				parity ^= t0[i]
			}
		}
		row.rhs = parity
		rows = append(rows, row)
	}
	return rows, nil
}

func lowestBit(x uint32) uint32 { return x & (-x) }

func trailingZeros(x uint32) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// echelon row-reduces a GF(2) basis to reduced echelon form.
func echelon(rows []uint32) []uint32 {
	var out []uint32
	work := append([]uint32(nil), rows...)
	for bit := 0; bit < 32; bit++ {
		mask := uint32(1) << uint(bit)
		pivot := -1
		for i, r := range work {
			if r&mask != 0 && trailingZeros(r) == bit {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		p := work[pivot]
		work = append(work[:pivot], work[pivot+1:]...)
		for i := range work {
			if work[i]&mask != 0 {
				work[i] ^= p
			}
		}
		for i := range out {
			if out[i]&mask != 0 {
				out[i] ^= p
			}
		}
		out = append(out, p)
	}
	return out
}

// SolveAffine solves an affine instance by Gaussian elimination over GF(2).
func SolveAffine(p *Instance) ([]int, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	cache := make(map[int][]affineRow)
	type eq struct {
		coeffs map[int]bool
		rhs    int
	}
	var system []eq
	for _, con := range p.Cons {
		rows, ok := cache[con.Rel]
		if !ok {
			var err error
			rows, err = CompileAffine(p.Template.Rels[con.Rel])
			if err != nil {
				return nil, false, err
			}
			cache[con.Rel] = rows
		}
		for _, row := range rows {
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
				return nil, false, nil
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
	if !p.Satisfies(assign) {
		// Defensive: with correct elimination this cannot happen.
		return nil, false, fmt.Errorf("schaefer: affine back-substitution produced an invalid assignment")
	}
	return assign, true, nil
}

// --- Generic baseline and dispatch ---

// ToCSP converts the instance to a general CSP instance.
func (p *Instance) ToCSP() (*csp.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := csp.NewInstance(p.NumVars, 2)
	tabs := make([]*csp.Table, len(p.Template.Rels)) // one shared table per relation
	for _, con := range p.Cons {
		tab := tabs[con.Rel]
		if tab == nil {
			tab = csp.TableOf(len(con.Scope), p.Template.Rels[con.Rel].Tuples()...)
			tabs[con.Rel] = tab
		}
		if err := out.AddConstraint(con.Scope, tab); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SolveGeneric solves by general backtracking search (the NP baseline).
func SolveGeneric(p *Instance, opts csp.Options) ([]int, bool, error) {
	q, err := p.ToCSP()
	if err != nil {
		return nil, false, err
	}
	res := csp.Solve(q, opts)
	if !res.Found {
		return nil, false, nil
	}
	return res.Solution, true, nil
}

// Solve classifies the template and dispatches to the matching polynomial
// solver, falling back to generic search outside Schaefer's classes. It
// returns the assignment, satisfiability, and the class used (nil pointer
// when the generic solver ran).
func Solve(p *Instance) ([]int, bool, *Class, error) {
	classes := p.Template.Classify()
	for _, c := range classes {
		switch c {
		case ZeroValid:
			if a, ok := SolveConstant(p, 0); ok {
				cl := c
				return a, true, &cl, nil
			}
		case OneValid:
			if a, ok := SolveConstant(p, 1); ok {
				cl := c
				return a, true, &cl, nil
			}
		case Horn:
			a, ok, err := SolveHorn(p)
			cl := c
			return a, ok, &cl, err
		case DualHorn:
			a, ok, err := SolveDualHorn(p)
			cl := c
			return a, ok, &cl, err
		case Bijunctive:
			a, ok, err := SolveTwoSat(p)
			cl := c
			return a, ok, &cl, err
		case Affine:
			a, ok, err := SolveAffine(p)
			cl := c
			return a, ok, &cl, err
		}
	}
	a, ok, err := SolveGeneric(p, csp.Options{})
	return a, ok, nil, err
}
