// Package cspio reads and writes CSP instances in the library's simple text
// format and reads DIMACS coloring graphs, for the command-line tools and
// the daemons.
//
// Instance format (one directive per line; '#' starts a comment):
//
//	vars 4
//	dom 3
//	names x y z w            # optional variable labels
//	con 0 1 : 0 1 | 1 0      # scope ':' tuples separated by '|'
//	dom_of 2 : 0 2           # optional per-variable domain restriction
//
// Directives may come in any order, and a repeated vars or dom line
// replaces the earlier one. Every value in a con tuple or a dom_of list
// must lie in [0,dom); a dom_of value outside it is rejected with the line
// that holds it, as is a con value outside [0,MaxVarsDom), which no dom
// admits. An instance whose vars×dom exceeds MaxVarsDom is rejected with an
// error wrapping ErrTooLarge.
//
// DIMACS format: the classic "p edge N M" header with "e u v" lines
// (1-based vertices).
//
// Parse and ParseDIMACS read their whole input before parsing it; ParseBytes
// parses a body already in memory and does not retain it. One line splitter
// serves both formats: lines are cut with bytes.IndexByte and integers are
// decoded in place. A con line's rows are decoded by one loop that handles
// ASCII digits, white space and '|' inline, into pooled scratch that holds
// every con value of the body. Once the body is read, the instance's
// values, tables (each deduplicated in place, its index built), constraints
// and scopes are carved from one array of each kind, sized by what the body
// holds, so a parse allocates a handful of objects whatever its size. Canonical
// (canonical.go) is the order-insensitive encoding: it sorts each
// constraint's rows as integer keys of value ranks and writes the bytes a
// row-by-row byte sort would. CanonicalHash is FNV-1a of its bytes, the
// stable key the cspr ring routes by. Digest (digest.go) is cspd's
// result-cache key: a keyed 128-bit digest that identifies what Canonical
// identifies, in one linear pass with no sort of rows.
package cspio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"csdb/internal/csp"
	"csdb/internal/graph"
	"csdb/internal/relation"
)

// MaxVarsDom bounds vars×dom, and so each of vars and dom, of a parsed
// instance. Every engine sizes per-variable and per-value state (domains,
// watch lists, assignment arrays) by them before it reads a constraint, and
// the parser itself sizes the per-variable domain table by vars, so without
// it a 19-byte body declaring five million variables costs about a
// gigabyte. It is checked once the whole body is read and before anything
// is sized by vars. 1<<20 is over a hundred times the largest instance any
// test, example or benchmark workload parses (150 variables of 50 values).
const MaxVarsDom = 1 << 20

// ErrTooLarge is wrapped by the error for an instance over MaxVarsDom.
var ErrTooLarge = errors.New("instance too large")

// Parse reads all of r and parses it as an instance in the text format.
func Parse(r io.Reader) (*csp.Instance, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseBytes(body)
}

// ParseBytes parses an instance in the text format. It does not retain
// body.
func ParseBytes(body []byte) (*csp.Instance, error) {
	vars, dom := -1, -1
	var names []string
	// A dom_of restriction and its line, checked once dom is known; a later
	// line for the same variable replaces an earlier one.
	type domOf struct {
		v, line int
		vals    []int
	}
	var doms []domOf
	// Every con line's scope and rows are decoded into one body-wide array
	// of values, recycled scratch until the whole body is read.
	sc := scratches.Get().(*scratch)
	defer sc.release()
	lines := lineSplitter{rest: body}
	for lines.next() {
		lineNo, line := lines.no, lines.line
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		directive, rest := field(line)
		switch string(directive) {
		case "":
			continue
		case "vars", "dom":
			arg, tail := field(rest)
			if len(arg) == 0 || !blank(tail) {
				return nil, fmt.Errorf("cspio: line %d: %s needs one argument", lineNo, directive)
			}
			n, ok := atoi(arg)
			switch {
			case ok && string(directive) == "vars" && n >= 0:
				vars = n
			case ok && string(directive) == "dom" && n >= 1:
				dom = n
			default:
				return nil, fmt.Errorf("cspio: line %d: bad %s %q", lineNo, directive, arg)
			}
		case "names":
			names = []string{}
			for f, tail := field(rest); len(f) > 0; f, tail = field(tail) {
				names = append(names, string(f))
			}
		case "con":
			colon := bytes.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("cspio: line %d: con needs 'scope : tuples'", lineNo)
			}
			c := rawCon{scope: len(sc.vals)}
			var err error
			if sc.vals, err = appendInts(sc.vals, rest[:colon]); err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			c.rows = len(sc.vals)
			if sc.vals, err = appendRows(sc.vals, rest[colon+1:], c.rows-c.scope); err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			c.end = len(sc.vals)
			sc.cons = append(sc.cons, c)
		case "dom_of":
			colon := bytes.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs 'var : values'", lineNo)
			}
			v, tail := field(rest[:colon])
			n, ok := atoi(v)
			if len(v) == 0 || !ok || !blank(tail) {
				return nil, fmt.Errorf("cspio: line %d: dom_of needs one variable", lineNo)
			}
			vals, err := appendInts(nil, rest[colon+1:])
			if err != nil {
				return nil, fmt.Errorf("cspio: line %d: %v", lineNo, err)
			}
			doms = append(doms, domOf{n, lineNo, vals})
		default:
			return nil, fmt.Errorf("cspio: line %d: unknown directive %q", lineNo, directive)
		}
	}
	if vars < 0 || dom < 0 {
		return nil, fmt.Errorf("cspio: missing vars/dom directives")
	}
	if vars > MaxVarsDom || dom > MaxVarsDom || vars*dom > MaxVarsDom {
		return nil, fmt.Errorf("cspio: %w: vars %d × dom %d, limit is %d", ErrTooLarge, vars, dom, MaxVarsDom)
	}
	inst := csp.NewInstance(vars, dom)
	if names != nil {
		if len(names) != vars {
			return nil, fmt.Errorf("cspio: %d names for %d variables", len(names), vars)
		}
		inst.Names = names
	}
	if len(doms) > 0 {
		inst.Domains = make([][]int, vars)
		for _, d := range doms {
			if d.v < 0 || d.v >= vars {
				return nil, fmt.Errorf("cspio: dom_of variable %d out of range", d.v)
			}
			for _, val := range d.vals {
				if val < 0 || val >= dom {
					return nil, fmt.Errorf("cspio: line %d: dom_of value %d outside [0,%d)", d.line, val, dom)
				}
			}
			inst.Domains[d.v] = d.vals
		}
	}
	// The checks csp.Instance.AddConstraint makes, with its messages, in
	// its order: each constraint's scope, then its rows, whose values are
	// known to be at least 0. A duplicate row repeats an earlier one, so
	// the first value that fails is the one AddConstraint would name.
	cons, vals := sc.cons, sc.vals
	slots := 0
	for _, c := range cons {
		for _, v := range vals[c.scope:c.rows] {
			if v < 0 || v >= vars {
				return nil, fmt.Errorf("cspio: csp: scope variable %d outside [0,%d)", v, vars)
			}
		}
		for _, v := range vals[c.rows:c.end] {
			if v >= dom {
				return nil, fmt.Errorf("cspio: csp: table value %d outside [0,%d)", v, dom)
			}
		}
		slots += relation.SlotCount((c.end - c.rows) / (c.rows - c.scope))
	}
	// The instance's values, tables, constraints and indexes are each
	// carved from one array of their kind, sized by what the body holds,
	// and every carved slice is capped, so no append reaches past it.
	vals = slices.Clone(vals)
	index := make([]int32, slots)
	tabs := make([]csp.Table, len(cons))
	cs := make([]csp.Constraint, len(cons))
	inst.Constraints = make([]*csp.Constraint, len(cons))
	for i, c := range cons {
		k := c.rows - c.scope
		n := relation.SlotCount((c.end - c.rows) / k)
		tabs[i] = relation.MakeTable(k, vals[c.rows:c.end], index[:n])
		index = index[n:]
		cs[i] = csp.Constraint{Scope: vals[c.scope:c.rows:c.rows], Table: &tabs[i]}
		inst.Constraints[i] = &cs[i]
	}
	return inst, nil
}

// Format writes an instance in the text format.
func Format(w io.Writer, p *csp.Instance) error {
	if _, err := fmt.Fprintf(w, "vars %d\ndom %d\n", p.Vars, p.Dom); err != nil {
		return err
	}
	if p.Names != nil {
		if _, err := fmt.Fprintf(w, "names %s\n", strings.Join(p.Names, " ")); err != nil {
			return err
		}
	}
	if p.Domains != nil {
		for v, d := range p.Domains {
			if d == nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "dom_of %d : %s\n", v, intsToString(d)); err != nil {
				return err
			}
		}
	}
	for _, con := range p.Constraints {
		rows := make([]string, con.Table.Len())
		for i := range rows {
			rows[i] = intsToString(con.Table.Row(i))
		}
		if _, err := fmt.Fprintf(w, "con %s : %s\n", intsToString(con.Scope), strings.Join(rows, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// ParseDIMACS reads a DIMACS "edge" graph.
func ParseDIMACS(r io.Reader) (*graph.Graph, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	for lines := (lineSplitter{rest: body}); lines.next(); {
		kind, rest := field(lines.line)
		if len(kind) == 0 || kind[0] == 'c' {
			continue
		}
		line := string(bytes.TrimSpace(lines.line))
		a, rest := field(rest)
		b, rest := field(rest)
		switch string(kind) {
		case "p":
			if len(b) == 0 || string(a) != "edge" {
				return nil, fmt.Errorf("cspio: bad DIMACS header %q", line)
			}
			n, ok := atoi(b)
			if !ok || n < 0 {
				return nil, fmt.Errorf("cspio: bad vertex count %q", b)
			}
			g = graph.New(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("cspio: edge before header")
			}
			if len(b) == 0 || !blank(rest) {
				return nil, fmt.Errorf("cspio: bad edge line %q", line)
			}
			u, ok1 := atoi(a)
			v, ok2 := atoi(b)
			if !ok1 || !ok2 || u < 1 || v < 1 || u > g.N() || v > g.N() {
				return nil, fmt.Errorf("cspio: bad edge %q", line)
			}
			g.AddEdge(u-1, v-1)
		default:
			return nil, fmt.Errorf("cspio: unknown DIMACS line %q", line)
		}
	}
	if g == nil {
		return nil, fmt.Errorf("cspio: missing DIMACS header")
	}
	return g, nil
}

// lineSplitter walks a body line by line, numbering lines as bufio.ScanLines
// does: lines end at '\n' and a final line needs none. A '\r' before the
// '\n' stays on the line, where it is white space. no is the 1-based number
// of the current line.
type lineSplitter struct {
	rest, line []byte
	no         int
}

func (s *lineSplitter) next() bool {
	if len(s.rest) == 0 {
		return false
	}
	s.no++
	s.line = s.rest
	s.rest = nil
	if i := bytes.IndexByte(s.line, '\n'); i >= 0 {
		s.line, s.rest = s.line[:i], s.line[i+1:]
	}
	return true
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether b[i:] starts with a white-space rune, by
// unicode.IsSpace as strings.Fields splits, and the width of that rune.
func spaceAt(b []byte, i int) (bool, int) {
	if c := b[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, n := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), n
}

// field returns the first white-space-separated field of b (empty when b is
// blank) and the bytes after it. ASCII bytes are classified inline; only a
// multi-byte rune goes through spaceAt.
func field(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if sp, n := spaceAt(b, i); sp {
			i += n
		} else {
			break
		}
	}
	j := i
	for j < len(b) {
		if c := b[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
		} else if sp, n := spaceAt(b, j); !sp {
			j += n
		} else {
			break
		}
	}
	return b[i:j], b[j:]
}

// blank reports whether b holds no field.
func blank(b []byte) bool {
	f, _ := field(b)
	return len(f) == 0
}

// appendInts appends the white-space-separated integers of b to dst. A list
// with no integer is an error.
func appendInts(dst []int, b []byte) ([]int, error) {
	n := len(dst)
	for f, rest := field(b); len(f) > 0; f, rest = field(rest) {
		v, ok := atoi(f)
		if !ok {
			return dst, fmt.Errorf("bad integer %q", f)
		}
		dst = append(dst, v)
	}
	if len(dst) == n {
		return dst, fmt.Errorf("empty integer list")
	}
	return dst, nil
}

// appendRows appends to vals the rows of a con line's tuple list b, rows of
// arity values separated by '|', as appendInts would decode each non-blank
// row. ASCII digits, white space and '|' are handled inline; a non-ASCII
// byte goes through spaceAt and a field that is not plain digits through
// atoi, so the verdicts, messages and their order are appendInts': a bad
// field fails its row first, then its arity, then a value outside
// [0,MaxVarsDom), which no dom admits (a later dom line may still change
// dom, so this is the bound checked as the body is read). A blank row
// decodes nothing.
func appendRows(vals []int, b []byte, arity int) ([]int, error) {
	row := len(vals) // where the current row starts
	bad := -1        // the first value outside [0,MaxVarsDom), if any
	for i := 0; ; {
		k := classBar // the end of b ends the last row
		if i < len(b) {
			k = byteClass[b[i]]
		}
		switch k {
		case classSpace:
			i++
			continue
		case classBar:
			if n := len(vals) - row; n > 0 {
				if n != arity {
					return vals, fmt.Errorf("tuple arity %d for scope of %d", n, arity)
				}
				if bad >= 0 {
					return vals, fmt.Errorf("con value %d outside [0,%d)", vals[bad], MaxVarsDom)
				}
				row = len(vals)
			}
			if i == len(b) {
				return vals, nil
			}
			i++
			continue
		case classHigh:
			if sp, w := spaceAt(b, i); sp {
				i += w
				continue
			}
		}
		// A field: plain digits short enough not to overflow, ended by
		// white space, '|' or the end of b, are decoded here, and anything
		// else by atoi over the field.
		j, v := i, 0
		for j < len(b) && b[j]-'0' <= 9 {
			v = v*10 + int(b[j]-'0')
			j++
		}
		if j == i || j-i > 18 || j < len(b) && byteClass[b[j]] != classSpace && byteClass[b[j]] != classBar {
			j = fieldEnd(b, j)
			var ok bool
			if v, ok = atoi(b[i:j]); !ok {
				return vals, fmt.Errorf("bad integer %q", b[i:j])
			}
		}
		if uint(v) >= MaxVarsDom && bad < 0 {
			bad = len(vals)
		}
		vals = append(vals, v)
		i = j
	}
}

// fieldEnd returns where the field of a tuple list that holds b[i] ends:
// at white space, '|' or the end of b.
func fieldEnd(b []byte, i int) int {
	for i < len(b) {
		switch byteClass[b[i]] {
		case classSpace, classBar:
			return i
		case classHigh:
			sp, w := spaceAt(b, i)
			if sp {
				return i
			}
			i += w
		default:
			i++
		}
	}
	return i
}

// The byte classes of a tuple list; any other byte is part of a field.
const (
	classSpace uint8 = 1 + iota // ASCII white space
	classBar                    // '|'
	classHigh                   // the first byte of a multi-byte rune, or not UTF-8
)

var byteClass = func() (c [256]uint8) {
	for b := range c {
		switch {
		case b >= utf8.RuneSelf:
			c[b] = classHigh
		case asciiSpace[b]:
			c[b] = classSpace
		case b == '|':
			c[b] = classBar
		}
	}
	return c
}()

// scratch is a parse's working storage, recycled across parses: the values
// of the con lines read so far and their spans. A con line's scope is
// vals[scope:rows] and its rows vals[rows:end]. No instance points into it.
type scratch struct {
	vals []int
	cons []rawCon
}

type rawCon struct{ scope, rows, end int }

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// release returns sc to the pool, unless a large body grew it: those
// arrays go back to the collector, so one large body pins no memory.
func (sc *scratch) release() {
	if cap(sc.vals) > 1<<17 || cap(sc.cons) > 1<<15 {
		return
	}
	sc.vals, sc.cons = sc.vals[:0], sc.cons[:0]
	scratches.Put(sc)
}

// atoi decodes a decimal integer with the syntax and range strconv.Atoi
// accepts: an optional sign, then ASCII digits, within an int.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(1)<<(strconv.IntSize-1) - 1
	if neg {
		limit++
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' || n > limit/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > limit {
			return 0, false
		}
	}
	if neg {
		return int(-n), true
	}
	return int(n), true
}

func intsToString(s []int) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, " ")
}
