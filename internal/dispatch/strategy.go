package dispatch

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"csdb/internal/csp"
)

// strategy is one row of the strategy table: a named, cancellable way to
// decide an instance. Every front end (csolve, cspd, core) resolves its
// strategy names here, so the accepted set, the help text and the runner
// cannot drift apart.
type strategy struct {
	name string
	help string
	// workers reports that the row reads Run's worker bound; every other row
	// rejects a positive one.
	workers bool
	// run decides p.
	run func(a *Analyzer, ctx context.Context, p *csp.Instance, workers int) Outcome
}

// table lists the strategies in help order. Only auto consults structure;
// the rest are engine rows, whose Outcome carries no classification.
var table = []strategy{
	{name: "auto", help: "classify the structure and run the matching polynomial solver; the portfolio only for hard instances",
		run: func(a *Analyzer, ctx context.Context, p *csp.Instance, _ int) Outcome {
			return a.Solve(ctx, p)
		}},
	{name: "portfolio", help: "race the MAC, CBJ and learning lanes; the first verdict wins",
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance, _ int) Outcome {
			res := csp.Portfolio(ctx, p, csp.PortfolioOptions{})
			return Outcome{Result: res.Result, Winner: res.Winner}
		}},
	{name: "parallel", help: "split the root variable's domain across a pool of workers (0 = GOMAXPROCS)", workers: true,
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance, workers int) Outcome {
			res := csp.SolveParallel(ctx, p, csp.ParallelOptions{Workers: workers})
			return Outcome{Result: res.Result, Subtrees: res.Subtrees}
		}},
	{name: "mac", help: "backtracking search maintaining arc consistency", run: search(csp.Options{})},
	{name: "fc", help: "backtracking search with forward checking", run: search(csp.Options{Algorithm: csp.FC})},
	{name: "bt", help: "chronological backtracking", run: search(csp.Options{Algorithm: csp.BT})},
	{name: "cbj", help: "conflict-directed backjumping",
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance, _ int) Outcome {
			return Outcome{Result: csp.SolveCBJCtx(ctx, p, csp.Options{})}
		}},
	{name: "learn", help: "the restart/nogood learning engine", run: search(csp.Options{Learn: true})},
	{name: "join", help: "natural join of the constraint relations (Proposition 2.1)",
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance, _ int) Outcome {
			return Outcome{Result: csp.JoinSolveCtx(ctx, p)}
		}},
}

// search is the runner of a csp.SolveCtx row.
func search(opts csp.Options) func(*Analyzer, context.Context, *csp.Instance, int) Outcome {
	return func(_ *Analyzer, ctx context.Context, p *csp.Instance, _ int) Outcome {
		return Outcome{Result: csp.SolveCtx(ctx, p, opts)}
	}
}

// lookup resolves a strategy name and checks the worker bound against it.
func lookup(name string, workers int) (*strategy, error) {
	for i := range table {
		if row := &table[i]; row.name == name {
			switch {
			case workers < 0:
				return nil, fmt.Errorf("bad workers %d", workers)
			case workers > 0 && !row.workers:
				return nil, fmt.Errorf("conflicting workers=%d with strategy=%s (only parallel takes workers)", workers, name)
			}
			return row, nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q (want %s)", name, strings.Join(Names(), ", "))
}

// Check validates a (strategy, workers) pair exactly as Run would, without
// solving, so a front end can reject a request before queueing it.
func Check(name string, workers int) error {
	_, err := lookup(name, workers)
	return err
}

// Run decides p with the named strategy. workers bounds the parallel row's
// pool; any other row rejects a positive value. The error reports only a
// bad name or worker bound: an expired ctx yields an aborted Outcome.
func (a *Analyzer) Run(ctx context.Context, p *csp.Instance, name string, workers int) (Outcome, error) {
	row, err := lookup(name, workers)
	if err != nil {
		return Outcome{}, err
	}
	out := row.run(a, ctx, p, workers)
	out.Strategy = row.name
	return out, nil
}

// Names lists the strategy names in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, row := range table {
		names[i] = row.name
	}
	return names
}

// Help renders the table as an aligned "name  description" list, one
// strategy per line.
func Help() string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, row := range table {
		fmt.Fprintf(tw, "  %s\t%s\n", row.name, row.help)
	}
	tw.Flush()
	return b.String()
}

// StrategyLabel maps a requested strategy name onto its closed metric label
// set: the table's names, "none" for an absent name and "other" for an
// unknown one. Every case returns its own literal (rather than echoing the
// input) so csplint's obslabel analyzer can prove the label set is closed.
func StrategyLabel(name string) string {
	switch name {
	case "auto":
		return "auto"
	case "portfolio":
		return "portfolio"
	case "parallel":
		return "parallel"
	case "mac":
		return "mac"
	case "fc":
		return "fc"
	case "bt":
		return "bt"
	case "cbj":
		return "cbj"
	case "learn":
		return "learn"
	case "join":
		return "join"
	case "":
		return "none"
	}
	return "other"
}

// RouteName is the structural class that routed the solve, or "" for an
// engine row, which does not consult structure. (Route alone cannot say:
// its zero value is Tree.)
func (o Outcome) RouteName() string {
	if o.Classification == nil {
		return ""
	}
	return o.Route.String()
}

// Explain says why the solve ran the solver it did, rendered from the
// classification that routed it (auto) or from the engine row that was
// asked for.
func (o Outcome) Explain() string {
	cls := o.Classification
	if cls == nil {
		help := "an engine strategy"
		if row, err := lookup(o.Strategy, 0); err == nil {
			help = row.help
		}
		return fmt.Sprintf("strategy %s: %s; structure not consulted", o.Strategy, help)
	}
	var why string
	switch cls.Class {
	case Tree:
		why = "tree-structured binary instance: join-tree engine over its forest of constraints (Freuder, the width-1 case)"
	case Schaefer:
		why = "Boolean template inside one of Schaefer's classes: dedicated dichotomy solver"
	case Acyclic:
		why = "α-acyclic constraint hypergraph: join-tree engine over GYO's join tree (Yannakakis full reducer)"
	case BoundedWidth:
		why = fmt.Sprintf("primal graph has a tree decomposition of width %d: join-tree engine over its bag relations (Theorem 6.2)", cls.Width)
	default:
		why = "no tree, Schaefer, acyclic or bounded-width witness: portfolio search"
	}
	msg := fmt.Sprintf("route %v: %s", cls.Class, why)
	if o.Route != cls.Class {
		msg += "; the routed solver failed, so the portfolio decided it"
	}
	return msg
}
