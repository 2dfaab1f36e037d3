// Package core is the unifying public API of the library, realizing the
// central message of the paper: a constraint-satisfaction problem, a
// homomorphism problem, a conjunctive-query evaluation, and a
// conjunctive-query containment check are the same object viewed from four
// angles (Propositions 2.1–2.3).
//
// A Problem can be created from any of the views and converted to the
// others. Solve consults structure before searching, through the same
// strategy table every front end uses (internal/dispatch): tree-shaped
// instances go to Freuder's backtrack-free algorithm, Boolean templates in
// one of Schaefer's classes to the dedicated polynomial solver, α-acyclic
// ones to Yannakakis, instances whose primal graph has small treewidth to
// the decomposition DP of Theorem 6.2, and everything else to the search
// portfolio. The result says which route decided it and why.
package core

import (
	"context"
	"fmt"
	"math/big"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/dispatch"
	"csdb/internal/structure"
	"csdb/internal/treewidth"
)

// Problem is a constraint-satisfaction / homomorphism / query-evaluation
// problem. Exactly one canonical CSP instance backs it; the structure and
// query views are materialized on demand.
type Problem struct {
	inst *csp.Instance
	a, b *structure.Structure // cached homomorphism view
}

// FromCSP wraps a CSP instance.
func FromCSP(p *csp.Instance) *Problem {
	return &Problem{inst: p}
}

// FromStructures builds the problem "is there a homomorphism a → b?".
func FromStructures(a, b *structure.Structure) (*Problem, error) {
	inst, err := csp.FromStructures(a, b)
	if err != nil {
		return nil, err
	}
	return &Problem{inst: inst, a: a, b: b}, nil
}

// FromBooleanQuery builds the problem "is the Boolean conjunctive query q
// true in db?" — by Proposition 2.2 this is the homomorphism problem from
// q's canonical database into db.
func FromBooleanQuery(q *cq.Query, db *structure.Structure) (*Problem, error) {
	if len(q.Head) != 0 {
		return nil, fmt.Errorf("core: FromBooleanQuery requires a Boolean query, got %d head variables", len(q.Head))
	}
	canon, _, err := q.CanonicalDB(db.Voc(), false)
	if err != nil {
		return nil, err
	}
	return FromStructures(canon, db)
}

// CSP returns the canonical CSP instance view.
func (p *Problem) CSP() *csp.Instance { return p.inst }

// Structures returns the homomorphism view (A_P, B_P).
func (p *Problem) Structures() (*structure.Structure, *structure.Structure, error) {
	if p.a != nil {
		return p.a, p.b, nil
	}
	a, b, err := csp.ToStructures(p.inst)
	if err != nil {
		return nil, nil, err
	}
	p.a, p.b = a, b
	return a, b, nil
}

// Query returns the conjunctive-query view of Proposition 2.3: the Boolean
// canonical query φ_A and the database B, such that the problem is solvable
// iff φ_A is true in B.
func (p *Problem) Query() (*cq.Query, *structure.Structure, error) {
	a, b, err := p.Structures()
	if err != nil {
		return nil, nil, err
	}
	q, err := cq.StructureQuery(a)
	if err != nil {
		return nil, nil, err
	}
	return q, b, nil
}

// analyzer routes every Solve; it is immutable, so safe for concurrent use.
var analyzer = dispatch.NewAnalyzer(0, 0)

// Result reports the outcome of Solve.
type Result struct {
	Satisfiable bool
	Assignment  []int
	Stats       csp.Stats
	// Route is the structural class whose solver decided the problem; Hard
	// means the search portfolio did.
	Route dispatch.Class
	// Explanation says why the problem took that route, rendered from the
	// classification that routed it.
	Explanation string
}

// Solve decides the problem by consulting its structure first: it runs the
// dispatcher's auto strategy (see internal/dispatch), which sends tree,
// Schaefer, acyclic and bounded-width instances to their polynomial solvers
// and only the rest to the search portfolio. The error is non-nil only when
// ctx ended before a verdict.
func (p *Problem) Solve(ctx context.Context) (Result, error) {
	out, err := analyzer.Run(ctx, p.inst, "auto")
	if err != nil {
		return Result{}, err
	}
	if out.Aborted {
		return Result{}, fmt.Errorf("core: solve aborted: %w", context.Cause(ctx))
	}
	return Result{
		Satisfiable: out.Found,
		Assignment:  out.Solution,
		Stats:       out.Stats,
		Route:       out.Route,
		Explanation: out.Explain(),
	}, nil
}

// Homomorphism finds a homomorphism a → b (nil, false when none exists).
func Homomorphism(a, b *structure.Structure) ([]int, bool, error) {
	p, err := FromStructures(a, b)
	if err != nil {
		return nil, false, err
	}
	res, err := p.Solve(context.Background())
	if err != nil {
		return nil, false, err
	}
	return res.Assignment, res.Satisfiable, nil
}

// Contains decides conjunctive-query containment Q1 ⊆ Q2 (Chandra–Merlin).
func Contains(q1, q2 *cq.Query) (bool, error) {
	return cq.Contains(q1, q2)
}

// MinimizeQuery returns the core of a conjunctive query (the unique minimal
// equivalent query).
func MinimizeQuery(q *cq.Query) (*cq.Query, error) {
	return cq.Minimize(q)
}

// Count returns the exact number of solutions, computed by dynamic
// programming over a tree decomposition — polynomial for bounded treewidth
// (the counting extension of Theorem 6.2).
func (p *Problem) Count() (*big.Int, error) {
	return treewidth.Count(p.inst)
}
