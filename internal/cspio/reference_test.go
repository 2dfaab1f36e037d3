package cspio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"csdb/internal/csp"
)

// The differential oracles for the instance parser and the canonical
// encoder: the bufio.Scanner parser ParseBytes replaced and the per-row
// string encoder Canonical replaced, kept verbatim apart from their names
// (as csp.SolveSeed keeps the seed search engine). FuzzParseAgrees holds the
// parsers to the same verdict and the same instance on every input, and the
// encoders to the same bytes; the one difference allowed is that ParseBytes
// rejects dom_of values outside [0,dom), which referenceParse lets through
// to the solvers.

// referenceParse reads an instance in the text format.
func referenceParse(r io.Reader) (*csp.Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var inst *csp.Instance
	vars, dom := -1, -1
	var names []string
	domains := map[int][]int{}
	type rawCon struct {
		scope []int
		rows  [][]int
	}
	var cons []rawCon
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "vars":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cspio: line %d: vars needs one argument", lineNo)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("cspio: line %d: bad vars %q", lineNo, fields[1])
			}
			vars = v
		case "dom":
			if len(fields) != 2 {
				return nil, fmt.Errorf("cspio: line %d: dom needs one argument", lineNo)
			}
			d, err := strconv.Atoi(fields[1])
			if err != nil || d < 1 {
				return nil, fmt.Errorf("cspio: line %d: bad dom %q", lineNo, fields[1])
			}
			dom = d
		case "names":
			names = fields[1:]
		case "con":
			rest := strings.TrimPrefix(line, "con")
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("cspio: line %d: con needs 'scope : tuples'", lineNo)
			}
			scope, err := referenceParseInts(parts[0])
			if err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			var rows [][]int
			for _, tup := range strings.Split(parts[1], "|") {
				tup = strings.TrimSpace(tup)
				if tup == "" {
					continue
				}
				row, err := referenceParseInts(tup)
				if err != nil {
					return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
				}
				if len(row) != len(scope) {
					return nil, fmt.Errorf("cspio: line %d: tuple arity %d for scope of %d", lineNo, len(row), len(scope))
				}
				rows = append(rows, row)
			}
			cons = append(cons, rawCon{scope, rows})
		case "dom_of":
			rest := strings.TrimPrefix(line, "dom_of")
			parts := strings.SplitN(rest, ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs 'var : values'", lineNo)
			}
			vs, err := referenceParseInts(parts[0])
			if err != nil || len(vs) != 1 {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs one variable", lineNo)
			}
			vals, err := referenceParseInts(parts[1])
			if err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			domains[vs[0]] = vals
		default:
			return nil, fmt.Errorf("cspio: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if vars < 0 || dom < 0 {
		return nil, fmt.Errorf("cspio: missing vars/dom directives")
	}
	if vars > MaxVarsDom || dom > MaxVarsDom || vars*dom > MaxVarsDom {
		return nil, fmt.Errorf("cspio: %w", ErrTooLarge)
	}
	inst = csp.NewInstance(vars, dom)
	if names != nil {
		if len(names) != vars {
			return nil, fmt.Errorf("cspio: %d names for %d variables", len(names), vars)
		}
		inst.Names = names
	}
	if len(domains) > 0 {
		inst.Domains = make([][]int, vars)
		for v, d := range domains {
			if v < 0 || v >= vars {
				return nil, fmt.Errorf("cspio: dom_of variable %d out of range", v)
			}
			inst.Domains[v] = d
		}
	}
	for _, c := range cons {
		tab := csp.NewTable(len(c.scope))
		for _, row := range c.rows {
			tab.Add(row)
		}
		if err := inst.AddConstraint(c.scope, tab); err != nil {
			return nil, fmt.Errorf("cspio: %v", err)
		}
	}
	return inst, nil
}

func referenceParseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Fields(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}

// referenceCanonical returns the canonical byte encoding of p.
func referenceCanonical(p *csp.Instance) []byte {
	out := make([]byte, 0, 256)
	out = referenceAppendInt(out, p.Vars)
	out = referenceAppendInt(out, p.Dom)

	// Per-variable domain restrictions, in variable-index order with values
	// sorted and deduplicated. A nil entry (full domain) is skipped, so an
	// instance with no Domains slice matches one with all-nil entries.
	if p.Domains != nil {
		for v := 0; v < len(p.Domains); v++ {
			d := p.Domains[v]
			if d == nil {
				continue
			}
			vals := append([]int(nil), d...)
			sort.Ints(vals)
			vals = referenceDedupSortedInts(vals)
			out = append(out, 'D')
			out = referenceAppendInt(out, v)
			for _, val := range vals {
				out = referenceAppendInt(out, val)
			}
			out = append(out, ';')
		}
	}

	// Constraints: canonicalize each one independently, then sort the
	// encodings and drop exact duplicates (a repeated constraint is a no-op).
	encs := make([]string, 0, len(p.Constraints))
	for _, c := range p.Constraints {
		encs = append(encs, string(referenceCanonicalConstraint(c)))
	}
	sort.Strings(encs)
	prev := ""
	for i, e := range encs {
		if i > 0 && e == prev {
			continue
		}
		prev = e
		out = append(out, e...)
	}
	return out
}

// referenceCanonicalConstraint encodes one constraint with its scope columns in
// ascending variable order (a stable sort, so duplicate scope variables keep
// their relative column order) and its tuples permuted accordingly, sorted,
// and deduplicated.
func referenceCanonicalConstraint(c *csp.Constraint) []byte {
	k := len(c.Scope)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return c.Scope[perm[a]] < c.Scope[perm[b]] })

	rows := make([]string, 0, c.Table.Len())
	var buf []byte
	for _, row := range c.Table.Tuples() {
		buf = buf[:0]
		for _, col := range perm {
			buf = referenceAppendInt(buf, row[col])
		}
		rows = append(rows, string(buf))
	}
	sort.Strings(rows)

	enc := make([]byte, 0, 16+8*len(rows))
	enc = append(enc, 'C')
	for _, col := range perm {
		enc = referenceAppendInt(enc, c.Scope[col])
	}
	enc = append(enc, ':')
	prev := ""
	for i, r := range rows {
		if i > 0 && r == prev {
			continue
		}
		prev = r
		enc = append(enc, r...)
		enc = append(enc, '|')
	}
	enc = append(enc, ';')
	return enc
}

func referenceAppendInt(b []byte, v int) []byte {
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ' ')
}

func referenceDedupSortedInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i > 0 && v == s[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}
