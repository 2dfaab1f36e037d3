// Sudoku as constraint satisfaction.
//
// A classic AI workload from the paper's motivating list (scheduling,
// satisfiability, vision, ...): 81 variables with domain {0..8}, pairwise
// disequality constraints along rows, columns, and boxes, plus unary
// constraints for the given clues. Solved with MAC search; the example also
// shows how much work GAC propagation does before search even starts.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"csdb/internal/csp"
)

// A well-known hard-ish puzzle ('.' = blank).
const puzzle = `
..53.....
8......2.
.7..1.5..
4....53..
.1..7...6
..32...8.
.6.5....9
..4....3.
.....97..
`

func main() {
	inst, err := buildInstance(puzzle)
	if err != nil {
		log.Fatal(err)
	}

	// How far does pure propagation get? (Section 5: consistency makes
	// implied constraints explicit.)
	domains, ok, err := csp.GAC(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	if !ok {
		log.Fatal("puzzle is inconsistent")
	}
	fixed := 0
	for _, d := range domains {
		if len(d) == 1 {
			fixed++
		}
	}
	fmt.Printf("after GAC propagation: %d/81 cells decided\n", fixed)

	res := csp.Solve(inst, csp.Options{})
	if !res.Found {
		log.Fatal("no solution")
	}
	fmt.Printf("solved with %d search nodes, %d backtracks, %d prunings\n",
		res.Stats.Nodes, res.Stats.Backtracks, res.Stats.Prunings)
	printGrid(res.Solution)

	// Uniqueness check: a proper sudoku has exactly one solution.
	count := csp.CountSolutions(inst, 2)
	fmt.Printf("solutions: %d (unique = %v)\n", count, count == 1)
}

func buildInstance(p string) (*csp.Instance, error) {
	lines := []string{}
	for _, line := range strings.Split(strings.TrimSpace(p), "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			lines = append(lines, line)
		}
	}
	if len(lines) != 9 {
		return nil, fmt.Errorf("want 9 rows, got %d", len(lines))
	}
	inst := csp.NewInstance(81, 9)
	neq := csp.NewTable(2)
	for a := 0; a < 9; a++ {
		for b := 0; b < 9; b++ {
			if a != b {
				neq.Add([]int{a, b})
			}
		}
	}
	cell := func(r, c int) int { return r*9 + c }
	addNeq := func(v, w int) {
		inst.MustAddConstraint([]int{v, w}, neq)
	}
	for r := 0; r < 9; r++ {
		for c1 := 0; c1 < 9; c1++ {
			for c2 := c1 + 1; c2 < 9; c2++ {
				addNeq(cell(r, c1), cell(r, c2)) // rows
				addNeq(cell(c1, r), cell(c2, r)) // columns (r as column index)
			}
		}
	}
	for br := 0; br < 3; br++ {
		for bc := 0; bc < 3; bc++ {
			var cells []int
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					cells = append(cells, cell(br*3+r, bc*3+c))
				}
			}
			for i := 0; i < len(cells); i++ {
				for j := i + 1; j < len(cells); j++ {
					addNeq(cells[i], cells[j])
				}
			}
		}
	}
	// Clues as unary constraints.
	for r, line := range lines {
		if len(line) != 9 {
			return nil, fmt.Errorf("row %d has %d cells", r, len(line))
		}
		for c, ch := range line {
			if ch == '.' {
				continue
			}
			if ch < '1' || ch > '9' {
				return nil, fmt.Errorf("bad cell %q", ch)
			}
			t := csp.NewTable(1)
			t.Add([]int{int(ch - '1')})
			inst.MustAddConstraint([]int{cell(r, c)}, t)
		}
	}
	return inst, nil
}

func printGrid(sol []int) {
	for r := 0; r < 9; r++ {
		var b strings.Builder
		for c := 0; c < 9; c++ {
			fmt.Fprintf(&b, "%d", sol[r*9+c]+1)
			if c == 2 || c == 5 {
				b.WriteByte('|')
			}
		}
		fmt.Println(b.String())
		if r == 2 || r == 5 {
			fmt.Println("---+---+---")
		}
	}
}
