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
	run  func(a *Analyzer, ctx context.Context, p *csp.Instance) Outcome
}

// table lists the strategies in help order. Only auto consults structure;
// the rest are engine rows, whose Outcome carries no classification.
var table = []strategy{
	{name: "auto", help: "classify the structure and run the matching polynomial solver; the portfolio only for hard instances",
		run: func(a *Analyzer, ctx context.Context, p *csp.Instance) Outcome {
			return a.Solve(ctx, p)
		}},
	{name: "portfolio", help: "race the MAC, CBJ and learning lanes; the first verdict wins",
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance) Outcome {
			res := csp.Portfolio(ctx, p, csp.PortfolioOptions{})
			return Outcome{Result: res.Result, Winner: res.Winner}
		}},
	{name: "mac", help: "backtracking search maintaining arc consistency", run: search(csp.Options{})},
	{name: "fc", help: "backtracking search with forward checking", run: search(csp.Options{Algorithm: csp.FC})},
	{name: "bt", help: "chronological backtracking", run: search(csp.Options{Algorithm: csp.BT})},
	{name: "cbj", help: "conflict-directed backjumping",
		run: func(_ *Analyzer, ctx context.Context, p *csp.Instance) Outcome {
			return Outcome{Result: csp.SolveCBJCtx(ctx, p, csp.Options{})}
		}},
	{name: "learn", help: "the restart/nogood learning engine", run: search(csp.Options{Learn: true})},
}

// search is the runner of a csp.SolveCtx row.
func search(opts csp.Options) func(*Analyzer, context.Context, *csp.Instance) Outcome {
	return func(_ *Analyzer, ctx context.Context, p *csp.Instance) Outcome {
		return Outcome{Result: csp.SolveCtx(ctx, p, opts)}
	}
}

// lookup resolves a strategy name.
func lookup(name string) (*strategy, error) {
	for i := range table {
		if row := &table[i]; row.name == name {
			return row, nil
		}
	}
	return nil, fmt.Errorf("unknown strategy %q (want %s)", name, strings.Join(Names(), ", "))
}

// Check validates a strategy name exactly as Run would, without solving, so
// a front end can reject a request before queueing it.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// Run decides p with the named strategy. The error reports only an unknown
// name: an expired ctx yields an aborted Outcome.
func (a *Analyzer) Run(ctx context.Context, p *csp.Instance, name string) (Outcome, error) {
	row, err := lookup(name)
	if err != nil {
		return Outcome{}, err
	}
	out := row.run(a, ctx, p)
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
		if row, err := lookup(o.Strategy); err == nil {
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
		why = fmt.Sprintf("primal graph has a tree decomposition of width %d: join-tree engine over its bags (Theorem 6.2)", cls.Width)
	default:
		why = "no tree, Schaefer, acyclic or bounded-width witness: portfolio search"
	}
	msg := fmt.Sprintf("route %v: %s", cls.Class, why)
	if o.Route != cls.Class {
		msg += "; the routed solver failed, so the portfolio decided it"
	}
	return msg
}
