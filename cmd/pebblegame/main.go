// Command pebblegame decides existential k-pebble games between two graphs
// (Section 4 of the paper) and reports consistency facts derived from them.
//
// Usage:
//
//	pebblegame -k 3 left.graph right.graph
//
// Graph file: first line "n <vertices>", then one "u v" edge line per
// (directed) edge; add both directions for undirected graphs, or use
// "u -- v" for an undirected edge.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"csdb/internal/csp"
	"csdb/internal/pebble"
	"csdb/internal/structure"
)

func main() {
	k := flag.Int("k", 3, "number of pebbles")
	flag.Parse()
	if err := run(os.Stdout, *k, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "pebblegame:", err)
		os.Exit(2)
	}
}

// run plays the k-pebble game between the two graph files and writes its
// report to w.
func run(w io.Writer, k int, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: pebblegame -k K left.graph right.graph")
	}
	a, err := loadGraph(args[0])
	if err != nil {
		return err
	}
	b, err := loadGraph(args[1])
	if err != nil {
		return err
	}

	strat, err := pebble.LargestStrategy(a, b, k)
	if err != nil {
		return err
	}
	if strat.NonEmpty() {
		fmt.Fprintf(w, "Duplicator wins the existential %d-pebble game (largest winning strategy: %d partial homomorphisms)\n", k, strat.Size())
		fmt.Fprintf(w, "strong %d-consistency can be established (Theorem 5.6)\n", k)
	} else {
		fmt.Fprintf(w, "Spoiler wins the existential %d-pebble game\n", k)
		fmt.Fprintf(w, "strong %d-consistency cannot be established; no homomorphism exists\n", k)
	}

	if hom, ok := csp.FindHomomorphism(a, b); ok {
		fmt.Fprintf(w, "homomorphism exists: %v\n", hom)
	} else {
		fmt.Fprintln(w, "no homomorphism exists")
	}

	// One family of partial homomorphisms answers every i <= k: (a, b) is
	// i-consistent iff its functions of size i-1 all extend (Proposition 5.3).
	fam, err := pebble.PartialHoms(a, b, k)
	if err != nil {
		return err
	}
	for i := 1; i <= k; i++ {
		fmt.Fprintf(w, "%d-consistent: %v\n", i, fam.Forth(i-1))
	}
	return nil
}

func loadGraph(path string) (*structure.Structure, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var g *structure.Structure
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case fields[0] == "n":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%s:%d: want 'n <count>'", path, line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("%s:%d: bad count %q", path, line, fields[1])
			}
			g = structure.NewGraph(n)
		case len(fields) == 3 && fields[1] == "--":
			if g == nil {
				return nil, fmt.Errorf("%s:%d: edge before 'n' line", path, line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%s:%d: bad edge", path, line)
			}
			if err := g.AddTuple("E", u, v); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			if err := g.AddTuple("E", v, u); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
		case len(fields) == 2:
			if g == nil {
				return nil, fmt.Errorf("%s:%d: edge before 'n' line", path, line)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%s:%d: bad edge", path, line)
			}
			if err := g.AddTuple("E", u, v); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
		default:
			return nil, fmt.Errorf("%s:%d: unrecognized line %q", path, line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("%s: missing 'n' line", path)
	}
	return g, nil
}
