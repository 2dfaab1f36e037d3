// Command csolve solves constraint-satisfaction problems from the command
// line. It reads either the library's instance text format or a DIMACS
// coloring graph, runs one strategy from the dispatcher's strategy table
// (internal/dispatch, the same table cspd serves), and prints a one-line
// summary and a solution.
//
// Usage:
//
//	csolve [-strategy name] [-timeout d] [-explain]
//	       [-trace out.jsonl] [-events out.jsonl] instance.csp
//	csolve [-all max | -count] instance.csp
//	csolve -coloring k graph.col
//
// With no file argument the instance is read from standard input. The
// default strategy, auto, classifies the instance's structure (tree /
// schaefer / acyclic / bounded width) and routes it to the matching
// polynomial solver, falling back to the portfolio only for hard
// instances; the other strategies run one engine directly (csolve -h lists
// them). The summary line names the requested strategy, the route and
// classification time (auto), the portfolio winner, the engine that ran,
// its effort and the wall clock. -timeout is the solve's deadline whatever
// the strategy: the verdict is UNKNOWN when it expires. -explain
// prints why the solve took its route, from the classification that routed
// it. -all enumerates solutions by MAC search and -count counts them by
// decomposition DP; both ignore -strategy. -trace turns on structured span
// tracing for the solve and writes the drained spans as JSON lines (the
// same schema cspd's /trace endpoint serves) to the given file. -events
// writes the solve's canonical wide event — route, verdict, effort
// counters, wall clock — as one JSON line in the schema cspd's /events
// endpoint serves; its trace_id matches the -trace root span.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
	"csdb/internal/obs"
	"csdb/internal/treewidth"
)

// config carries the parsed command-line options.
type config struct {
	strategy string
	coloring int
	explain  bool
	all      int64
	count    bool
	timeout  time.Duration
	trace    string
	events   string
	args     []string
}

func main() {
	strategy := flag.String("strategy", "auto", "solving strategy: "+strings.Join(dispatch.Names(), ", "))
	coloring := flag.Int("coloring", 0, "treat the input as a DIMACS graph and solve k-coloring")
	explain := flag.Bool("explain", false, "print why the solve took its route")
	all := flag.Int64("all", 0, "enumerate up to this many solutions by MAC search")
	count := flag.Bool("count", false, "count solutions exactly via decomposition DP")
	timeout := flag.Duration("timeout", 0, "deadline for the solve (0 = none)")
	trace := flag.String("trace", "", "write the solve's span trace to this file as JSON lines")
	events := flag.String("events", "", "write the solve's wide event to this file as a JSON line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: csolve [flags] [instance]\n\nstrategies:\n%s\nflags:\n", dispatch.Help())
		flag.PrintDefaults()
	}
	flag.Parse()

	cfg := config{
		strategy: *strategy, coloring: *coloring, explain: *explain,
		all: *all, count: *count, timeout: *timeout,
		trace: *trace, events: *events, args: flag.Args(),
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "csolve:", err)
		os.Exit(2)
	}
}

func run(w io.Writer, cfg config) (err error) {
	in := os.Stdin
	if len(cfg.args) > 1 {
		return fmt.Errorf("at most one input file expected")
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", cfg.timeout)
	}
	if err := dispatch.Check(cfg.strategy); err != nil {
		return err
	}
	if len(cfg.args) == 1 {
		f, err := os.Open(cfg.args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	var inst *csp.Instance
	if cfg.coloring > 0 {
		g, err := cspio.ParseDIMACS(in)
		if err != nil {
			return err
		}
		inst = gen.Coloring(g, cfg.coloring)
	} else {
		var err error
		inst, err = cspio.Parse(in)
		if err != nil {
			return err
		}
	}

	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// The wide event summarizes this solve in one JSONL record, in the same
	// schema cspd's /events endpoint serves. Its trace ID matches the root
	// span -trace writes, so the two files cross-link.
	ev := &obs.SolveEvent{TraceID: "csolve-1", Source: "csolve"}
	if cfg.events != "" {
		obs.SetEvents(true)
		obs.DefaultEvents().Drain()
		defer func() {
			ev.TsNs = time.Now().UnixNano()
			if err != nil && ev.Verdict == "" {
				ev.Verdict, ev.Cause = obs.VerdictError, err.Error()
			}
			obs.Emit(*ev)
			if werr := writeEvents(cfg.events); werr != nil && err == nil {
				err = fmt.Errorf("writing events: %w", werr)
			}
		}()
	}
	if cfg.trace != "" {
		// The trace flag turns the library's observability on for this
		// process and parents the whole solve under one root span, so the
		// written JSONL nests exactly like cspd's /trace output.
		obs.SetEnabled(true)
		obs.SetTracing(true)
		obs.DefaultTracer().Drain()
		root := obs.StartRoot("csolve", "csolve-1")
		ctx = obs.WithSpan(ctx, root)
		defer func() {
			root.End()
			if werr := writeTrace(cfg.trace); werr != nil && err == nil {
				err = fmt.Errorf("writing trace: %w", werr)
			}
		}()
	}

	if cfg.count {
		n, err := treewidth.Count(inst)
		if err != nil {
			return err
		}
		ev.Strategy = "count"
		ev.Verdict = obs.VerdictUnsat
		if n.Sign() > 0 {
			ev.Verdict = obs.VerdictSat
		}
		fmt.Fprintf(w, "%v solution(s)\n", n)
		return nil
	}

	if cfg.all > 0 {
		count, _ := csp.SolveAllCtx(ctx, inst, csp.Options{}, cfg.all, func(sol []int) bool {
			fmt.Fprintln(w, formatSolution(inst, sol))
			return true
		})
		ev.Strategy = "enumerate"
		ev.Verdict = eventVerdict(count > 0, false)
		fmt.Fprintf(w, "%d solution(s)\n", count)
		return nil
	}

	start := time.Now()
	out, err := dispatch.NewAnalyzer(0, 0).Run(ctx, inst, cfg.strategy)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	ev.Strategy = out.Strategy
	ev.Route = out.RouteName()
	ev.Winner = out.Winner
	ev.Verdict = eventVerdict(out.Found, out.Aborted)
	ev.WallNs = wall.Nanoseconds()
	ev.Nodes = out.Stats.Nodes
	ev.Backtracks = out.Stats.Backtracks
	ev.Restarts = out.Stats.Restarts
	ev.Nogoods = out.Stats.NogoodsRecorded
	if cfg.explain {
		fmt.Fprintln(w, "explain:", out.Explain())
	}
	fmt.Fprintln(w, summary(out, wall))
	if out.Found {
		fmt.Fprintln(w, formatSolution(inst, out.Solution))
	}
	return nil
}

// summary renders the one-line verdict of a strategy-table solve: the
// strategy asked for; for auto, the route the verdict came from and the
// classification time; the portfolio winner when one raced; then the
// engine, its effort and the wall clock.
func summary(out dispatch.Outcome, wall time.Duration) string {
	verdict := "UNSAT"
	switch {
	case out.Aborted:
		verdict = "UNKNOWN"
	case out.Found:
		verdict = "SAT"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (strategy=%s", verdict, out.Strategy)
	if route := out.RouteName(); route != "" {
		fmt.Fprintf(&b, ", route=%s, classify %v", route, out.ClassifyTime.Round(time.Microsecond))
	}
	if out.Winner != "" {
		fmt.Fprintf(&b, ", portfolio winner %s", out.Winner)
	}
	st := out.Stats
	fmt.Fprintf(&b, ", engine %s, %d nodes, depth %d", st.Strategy, st.Nodes, st.MaxDepth)
	if st.Restarts > 0 || st.NogoodsRecorded > 0 {
		fmt.Fprintf(&b, ", %d restarts, %d nogoods (%d hits)", st.Restarts, st.NogoodsRecorded, st.NogoodHits)
	}
	fmt.Fprintf(&b, ", %v)", wall.Round(time.Microsecond))
	return b.String()
}

func formatSolution(inst *csp.Instance, sol []int) string {
	parts := make([]string, len(sol))
	for v, val := range sol {
		parts[v] = fmt.Sprintf("%s=%d", inst.VarName(v), val)
	}
	return strings.Join(parts, " ")
}

// eventVerdict maps a solver outcome onto the wide-event verdict set.
func eventVerdict(found, aborted bool) string {
	switch {
	case aborted:
		return obs.VerdictUnknown
	case found:
		return obs.VerdictSat
	}
	return obs.VerdictUnsat
}

// writeEvents drains the default event ring into a JSONL file (one line:
// this process's solve).
func writeEvents(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteEventsJSONL(f, obs.DefaultEvents().Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace drains the default tracer's ring into a JSONL file.
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, obs.DefaultTracer().Drain()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
