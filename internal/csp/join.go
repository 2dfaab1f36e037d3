package csp

import (
	"context"
	"fmt"
	"slices"
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

// constraintLiterals returns the instance's constraints as literals over
// the variables' attributes, each over its own table, uncopied, plus one
// unary literal per restricted domain and one unary domain literal for
// every variable mentioned nowhere else (so the join ranges over all
// variables). Constraints on the same scope are not consolidated: the
// natural join intersects them anyway.
func constraintLiterals(p *Instance) []relation.Literal {
	body := make([]relation.Literal, 0, len(p.Constraints)+len(p.Domains))
	unary := func(v int, t *relation.Table) {
		body = append(body, relation.Literal{Args: []string{attrOf(v)}, Rows: t})
	}
	mentioned := make([]bool, p.Vars)
	for v, dom := range p.Domains {
		if dom == nil {
			continue
		}
		mentioned[v] = true
		t := relation.NewTable(1)
		for _, val := range dom {
			t.Add([]int{val})
		}
		unary(v, t)
	}
	for _, con := range p.Constraints {
		args := make([]string, len(con.Scope))
		for i, v := range con.Scope {
			args[i] = attrOf(v)
			mentioned[v] = true
		}
		body = append(body, relation.Literal{Args: args, Rows: con.Table})
	}
	// The join never writes its tables, so every unmentioned variable
	// shares one table of the domain's values.
	var all *relation.Table
	for v, m := range mentioned {
		if m {
			continue
		}
		if all == nil {
			all = relation.NewTable(1)
			for val := range p.Dom {
				all.AddDistinct([]int{val})
			}
		}
		unary(v, all)
	}
	return body
}

// variableAttrs returns the attributes v0..v(n-1) of the instance's
// variables.
func variableAttrs(p *Instance) []string {
	attrs := make([]string, p.Vars)
	for v := range attrs {
		attrs[v] = attrOf(v)
	}
	return attrs
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
	// The first poll yields, as a search lane's does: the join's own
	// Poller owes none, and a lane racing others must not run a whole
	// quantum before they get the processor.
	if cc := newCancelChecker(ctx); cc.poll() {
		return Result{Aborted: true}
	}
	j, err := relation.Eval(ctx, constraintLiterals(p), variableAttrs(p))
	if err != nil {
		return Result{Aborted: true}
	}
	if j.Empty() {
		return Result{}
	}
	return Result{Found: true, Solution: slices.Clone(j.Row(0))}
}

// JoinSolutions returns every solution of the instance as a relation over
// the attributes v0..v(n-1): the join of Proposition 2.1 over the variable
// attributes.
func JoinSolutions(p *Instance) (*relation.Relation, error) {
	return relation.Eval(context.Background(), constraintLiterals(p), variableAttrs(p))
}
