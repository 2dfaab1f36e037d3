// Package dispatch routes CSP instances to provably polynomial-time solvers
// by consulting their structure first — the paper's central advice. An
// Analyzer classifies each instance along the tractability lines the
// library implements:
//
//	tree      tree-shaped binary CSP        → join-tree engine over the
//	                                           constraint forest (Freuder;
//	                                           width-1 of Thm 6.2)
//	schaefer  Boolean template in a Schaefer
//	          class                          → dedicated dichotomy solver
//	acyclic   α-acyclic constraint
//	          hypergraph (GYO)               → join-tree engine over GYO's
//	                                           join tree (Yannakakis)
//	width     primal-graph tree decomposition
//	          of width ≤ budget              → join-tree engine over the
//	                                           bags (Thm 6.2)
//	hard      none of the above              → csp.Portfolio
//
// The three bounded-width routes are one algorithm (relation.JoinTree: an
// up pass of exact messages, then backtrack-free extraction) over three
// join trees. A forest of binary constraints is routed as an acyclic
// instance, whose nodes are its constraints along GYO's join tree; a
// bounded-width instance's nodes are its bags, each holding the constraint
// tables given to it.
//
// The shape checks (forest, GYO, width) are flat kernels with no map per
// variable or edge, and the width check is a budgeted decision: each
// heuristic elimination stops at its first bag wider than the budget, so
// "no structure" costs microseconds. Each
// instance is classified afresh, and each witness (the Schaefer template
// instance, the join tree, the tree decomposition) is computed once, from
// the instance it routes, and handed to the routed solver, which trusts it.
// Every SAT answer from a routed solver is verified against the instance,
// and any routed-solver error falls back to the portfolio, so
// misclassification cannot corrupt a verdict. The join-tree routes poll the
// caller's context: an expired one ends the solve as Aborted, with no
// reroute.
//
// The package also owns the one strategy table (strategy.go) that decides
// how any front end solves an instance: Run resolves auto (the routing
// above), portfolio, mac, fc, bt, cbj or learn to a cancellable runner.
// csolve, cspd and core all call Run, so they accept the same names and
// route alike.
package dispatch

import (
	"context"
	"fmt"
	"time"

	"csdb/internal/consistency"
	"csdb/internal/csp"
	"csdb/internal/hypergraph"
	"csdb/internal/obs"
	"csdb/internal/schaefer"
	"csdb/internal/treewidth"
)

// Per-class routing counters and the fallback counter the differential gate
// asserts on (every portfolio invocation, hard-class or defensive).
var (
	obsClassTree     = obs.NewCounter("dispatch.class.tree")
	obsClassSchaefer = obs.NewCounter("dispatch.class.schaefer")
	obsClassAcyclic  = obs.NewCounter("dispatch.class.acyclic")
	obsClassWidth    = obs.NewCounter("dispatch.class.width")
	obsClassHard     = obs.NewCounter("dispatch.class.hard")
	obsFallback      = obs.NewCounter("dispatch.fallback")
	// PR-8 labeled telemetry: the same routing verdicts as one vector (so a
	// scrape sees the class mix without string-prefix games), classification
	// wall clock per class (routing cost is the dispatcher's overhead story),
	// and the reroute counter labeled by the class that mis-promised.
	obsClassVec   = obs.NewCounterVec("dispatch.class", "class")
	obsClassifyNs = obs.NewHistogramVec("dispatch.classify_ns", "class")
	obsRerouteVec = obs.NewCounterVec("dispatch.reroute.class", "class")
)

// Class is the structural class the analyzer assigns to an instance.
type Class int

const (
	// Tree: binary constraints whose primal graph is a forest.
	Tree Class = iota
	// Schaefer: Boolean template inside one of Schaefer's six classes.
	Schaefer
	// Acyclic: α-acyclic constraint hypergraph (GYO reduces it away).
	Acyclic
	// BoundedWidth: a heuristic tree decomposition of the primal graph
	// within the analyzer's width budget was found.
	BoundedWidth
	// Hard: no polynomial witness found; only this class may reach the
	// portfolio.
	Hard
)

func (c Class) String() string {
	switch c {
	case Tree:
		return "tree"
	case Schaefer:
		return "schaefer"
	case Acyclic:
		return "acyclic"
	case BoundedWidth:
		return "width"
	case Hard:
		return "hard"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// label returns the class's metric label value. Unlike String it never
// formats: every return is a literal, which is what lets csplint's obslabel
// analyzer prove the label set is closed.
func (c Class) label() string {
	switch c {
	case Tree:
		return "tree"
	case Schaefer:
		return "schaefer"
	case Acyclic:
		return "acyclic"
	case BoundedWidth:
		return "width"
	}
	return "hard"
}

func (c Class) counter() *obs.Counter {
	switch c {
	case Tree:
		return obsClassTree
	case Schaefer:
		return obsClassSchaefer
	case Acyclic:
		return obsClassAcyclic
	case BoundedWidth:
		return obsClassWidth
	}
	return obsClassHard
}

// Classification is a class verdict plus the witness that makes the routed
// solver applicable: the Boolean template instance for Schaefer, a join
// tree for Acyclic, a tree decomposition (and its width) for BoundedWidth.
// Tree and Hard carry no witness: the tree route builds GYO's join tree
// itself, and Hard needs only the instance.
type Classification struct {
	Class    Class
	Width    int
	Boolean  *schaefer.Instance
	JoinTree *hypergraph.JoinTree
	Decomp   *treewidth.Decomposition
}

// DefaultWidthBudget is the largest witnessed primal-graph width routed to
// the decomposition DP. The DP enumerates up to d^(w+1) assignments per
// bag, so the budget keeps the "polynomial" honest.
const DefaultWidthBudget = 3

// Analyzer classifies instances and routes them to matching solvers. It is
// immutable, so it is safe for concurrent use.
type Analyzer struct {
	// WidthBudget bounds the BoundedWidth class (see DefaultWidthBudget).
	WidthBudget int
}

// NewAnalyzer returns an analyzer with the given width budget; zero or
// negative selects DefaultWidthBudget. The second argument is ignored: it
// is kept only because cspdbench still passes a cache size.
func NewAnalyzer(widthBudget, _ int) *Analyzer {
	if widthBudget <= 0 {
		widthBudget = DefaultWidthBudget
	}
	return &Analyzer{WidthBudget: widthBudget}
}

// Classify determines the instance's structural class. The second result is
// always false: it is kept only because cspdbench still reads it.
func (a *Analyzer) Classify(p *csp.Instance) (Classification, bool) {
	return a.classify(p), false
}

// classify runs the decision tree. Order matters: trees are the cheapest
// check and the cheapest solve; acyclicity is tested before width because a
// single wide hyperedge turns the primal graph into a clique that no width
// budget admits, while GYO handles it in one ear removal.
func (a *Analyzer) classify(p *csp.Instance) Classification {
	if consistency.IsTreeStructured(p) {
		return Classification{Class: Tree}
	}
	if p.Dom == 2 {
		if sp, err := schaefer.FromCSP(p); err == nil && sp.Template.IsTractable() {
			return Classification{Class: Schaefer, Boolean: sp}
		}
	}
	if acyclic, jt := hypergraph.FromInstance(p).GYO(); acyclic {
		return Classification{Class: Acyclic, JoinTree: jt}
	}
	if d, ok := treewidth.DecomposeWithin(treewidth.PrimalGraph(p), a.WidthBudget); ok {
		return Classification{Class: BoundedWidth, Width: d.Width(), Decomp: d}
	}
	return Classification{Class: Hard}
}

// Outcome is the result of a dispatched solve: the verdict plus how it was
// reached.
type Outcome struct {
	csp.Result
	// Strategy is the strategy-table row that ran (set by Run).
	Strategy string
	// Classification is the verdict that routed the solve; nil for engine
	// rows, which do not consult structure.
	Classification *Classification
	// Route is the class whose solver produced the verdict. It is Hard
	// whenever the portfolio ran — including a defensive reroute after a
	// routed solver failed. It means nothing when Classification is nil.
	Route Class
	// Fallback reports that the portfolio produced the verdict.
	Fallback bool
	// Winner is the portfolio's winning lane, whenever a portfolio ran.
	Winner string
	// ClassifyTime is the wall clock spent classifying.
	ClassifyTime time.Duration
}

// Solve classifies the instance and runs the matching solver; only
// Hard-classified instances (or a routed solver failing, which the reroute
// counter records and the test suite pins to zero) reach the portfolio. A
// routed solve that ctx ends returns Aborted, neither rerouted nor handed to
// the portfolio. It is the strategy table's auto row; other callers use Run,
// and Solve stays exported only for cspdbench.
func (a *Analyzer) Solve(ctx context.Context, p *csp.Instance) Outcome {
	t0 := time.Now()
	cls := a.classify(p)
	out := Outcome{Classification: &cls, Route: cls.Class, ClassifyTime: time.Since(t0)}
	cls.Class.counter().Inc()
	obsClassVec.Inc(cls.Class.label())
	obsClassifyNs.Observe(out.ClassifyTime.Nanoseconds(), cls.Class.label())

	if cls.Class != Hard {
		solveStart := time.Now()
		res, err := a.solveClass(ctx, p, cls)
		if err == nil {
			out.Result = res
			if out.Result.Stats.Strategy == "" {
				out.Result.Stats.Strategy = cls.Class.String()
			}
			if out.Result.Stats.Duration == 0 {
				out.Result.Stats.Duration = time.Since(solveStart)
			}
			return out
		}
		// A routed solver refusing an instance it was classified for is a
		// bug; stay correct by rerouting to the portfolio.
		obsRerouteVec.Inc(cls.Class.label())
	}

	obsFallback.Inc()
	pres := csp.Portfolio(ctx, p, csp.PortfolioOptions{})
	out.Result = pres.Result
	out.Winner = pres.Winner
	out.Route = Hard
	out.Fallback = true
	return out
}

// solveClass runs the class's dedicated solver. Every SAT verdict is
// checked against the original instance before it is returned.
func (a *Analyzer) solveClass(ctx context.Context, p *csp.Instance, cls Classification) (csp.Result, error) {
	var res csp.Result
	var err error
	switch cls.Class {
	case Tree:
		res, err = hypergraph.SolveAcyclicCSP(ctx, p, nil)
	case Schaefer:
		res, _, err = schaefer.Solve(ctx, cls.Boolean)
	case Acyclic:
		res, err = hypergraph.SolveAcyclicCSP(ctx, p, cls.JoinTree)
	case BoundedWidth:
		res, err = treewidth.SolveDecomposed(ctx, p, cls.Decomp)
	default:
		err = fmt.Errorf("dispatch: class %v has no routed solver", cls.Class)
	}
	if err != nil {
		return csp.Result{}, err
	}
	if res.Found && !p.Satisfies(res.Solution) {
		return csp.Result{}, fmt.Errorf("dispatch: %v solver returned a non-solution", cls.Class)
	}
	return res, nil
}

// FallbackCount exposes the portfolio-invocation counter for tests and
// front ends that assert "no PTIME instance reached the portfolio".
func FallbackCount() int64 { return obsFallback.Load() }

// RerouteCount exposes the defensive-reroute count, summed over the routed
// classes (only they can reroute).
func RerouteCount() int64 {
	var n int64
	for _, c := range []Class{Tree, Schaefer, Acyclic, BoundedWidth} {
		n += obsRerouteVec.Load(c.label())
	}
	return n
}
