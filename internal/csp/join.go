package csp

import (
	"context"
	"fmt"
	"time"

	"csdb/internal/obs"
	"csdb/internal/relation"
)

// This file implements Proposition 2.1: viewing every variable as a
// relational attribute and every constraint (t, R) as a relation R over the
// scheme t, the instance is solvable iff the natural join of all constraint
// relations is nonempty.

// attrOf names the relational attribute of variable v.
func attrOf(v int) string { return fmt.Sprintf("v%d", v) }

// constraintRelations converts the instance's constraints into
// attribute-named relations, one per constraint, plus one unary relation per
// restricted domain and one unary domain relation for every variable
// mentioned nowhere else (so the join ranges over all variables).
//
// Each relation is filled from its table in one pass, with no membership
// checks, since a table's rows are already distinct. Only a scope that
// repeats a variable goes through NormalizeDistinct's rewrite, because a
// relation's attributes must be distinct. Constraints on the same scope are
// not consolidated: the natural join intersects them anyway. A cancelChecker
// ticks once per tuple, so the build polls ctx (and may yield the processor)
// every cancelCheckInterval tuples rather than running to the end unpolled.
func constraintRelations(ctx context.Context, p *Instance) ([]*relation.Relation, error) {
	cc := newCancelChecker(ctx)
	rels := make([]*relation.Relation, 0, len(p.Constraints)+len(p.Domains))
	mentioned := make([]bool, p.Vars)
	for v, dom := range p.Domains {
		if dom == nil {
			continue
		}
		mentioned[v] = true
		r := relation.MustNew(attrOf(v))
		for _, val := range dom {
			if cc.cancelledAfter(1) {
				return nil, ctx.Err()
			}
			r.MustAdd(relation.Tuple{val})
		}
		rels = append(rels, r)
	}
	for _, con := range p.Constraints {
		scope, table := con.Scope, con.Table
		if repeatsVar(scope) {
			scope, table = dedupScope(scope, table)
		}
		attrs := make([]string, len(scope))
		for i, v := range scope {
			attrs[i] = attrOf(v)
			mentioned[v] = true
		}
		r := relation.MustNew(attrs...)
		r.Grow(table.Len())
		for t := 0; t < table.Len(); t++ {
			if cc.cancelledAfter(1) {
				return nil, ctx.Err()
			}
			r.AddDistinct(table.Row(t)) // a table's rows are already a set
		}
		rels = append(rels, r)
	}
	for v := 0; v < p.Vars; v++ {
		if mentioned[v] {
			continue
		}
		r := relation.MustNew(attrOf(v))
		for val := 0; val < p.Dom; val++ {
			r.AddDistinct(relation.Tuple{val})
		}
		rels = append(rels, r)
	}
	return rels, nil
}

// repeatsVar reports whether a constraint scope names a variable twice.
func repeatsVar(scope []int) bool {
	for i, v := range scope {
		for _, w := range scope[:i] {
			if v == w {
				return true
			}
		}
	}
	return false
}

// JoinSolve decides solvability by evaluating the natural join of the
// constraint relations (Proposition 2.1) and extracts one solution from a
// witness tuple when the join is nonempty.
func JoinSolve(p *Instance) Result {
	return JoinSolveCtx(context.Background(), p)
}

// JoinSolveCtx is JoinSolve under a context: the join evaluation polls ctx
// periodically inside every join step and returns Aborted=true once the
// context is cancelled, which bounds both the time and the growth of
// intermediate results.
func JoinSolveCtx(ctx context.Context, p *Instance) Result {
	start := time.Now()
	obsJoinSolveCalls.Inc()
	ctx, sp := obs.StartSpan(ctx, "csp.joinsolve")
	res := joinSolve(ctx, p)
	res.Stats.Duration = time.Since(start)
	res.Stats.Strategy = "Join"
	if res.Found {
		sp.SetInt("found", 1)
	}
	if res.Aborted {
		sp.SetInt("aborted", 1)
	}
	sp.End()
	return res
}

func joinSolve(ctx context.Context, p *Instance) Result {
	if ctx.Err() != nil {
		return Result{Aborted: true}
	}
	rels, err := constraintRelations(ctx, p)
	if err != nil {
		return Result{Aborted: true}
	}
	j, err := relation.JoinAllCtx(ctx, rels)
	if err != nil {
		return Result{Aborted: true}
	}
	if j.Empty() {
		return Result{}
	}
	witness := j.Tuples()[0]
	sol := make([]int, p.Vars)
	for v := range sol {
		pos := j.Pos(attrOf(v))
		if pos < 0 {
			// Variable absent from every relation: impossible, since
			// constraintRelations adds a unary domain relation; defensive.
			sol[v] = 0
			continue
		}
		sol[v] = witness[pos]
	}
	return Result{Found: true, Solution: sol}
}

// JoinSolutions returns every solution of the instance as a relation over
// the attributes v0..v(n-1) — the full join of Proposition 2.1, projected
// and reordered onto the variable attributes.
func JoinSolutions(p *Instance) (*relation.Relation, error) {
	rels, err := constraintRelations(context.Background(), p)
	if err != nil {
		return nil, err
	}
	j := relation.JoinAll(rels)
	attrs := make([]string, p.Vars)
	for v := range attrs {
		attrs[v] = attrOf(v)
	}
	if j.Empty() {
		return relation.New(attrs...)
	}
	return j.Project(attrs...)
}
