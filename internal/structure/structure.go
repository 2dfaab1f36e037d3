// Package structure implements finite relational vocabularies and finite
// relational structures, the common currency of the paper: a CSP instance, a
// conjunctive query's canonical database, and a graph are all finite
// structures, and constraint satisfaction is exactly the homomorphism
// problem between two of them (Section 2).
//
// Domain elements are the integers 0..N-1; an optional name table maps them
// to human-readable labels. Each relation's interpretation is a
// relation.Table, the library's one tuple store (also csp.Table): rows in
// one flat arena, indexed as they are added, so a finished structure may be
// read from any number of goroutines.
package structure

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"csdb/internal/relation"
)

// Symbol is a relation symbol of a relational vocabulary: a name and an arity.
type Symbol struct {
	Name  string
	Arity int
}

// Vocabulary is a finite set of relation symbols with distinct names.
type Vocabulary struct {
	syms []Symbol
	pos  map[string]int
}

// NewVocabulary creates a vocabulary from the given symbols.
func NewVocabulary(syms ...Symbol) (*Vocabulary, error) {
	v := &Vocabulary{pos: make(map[string]int, len(syms))}
	for _, s := range syms {
		if err := v.Add(s); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// MustVocabulary is NewVocabulary but panics on error.
func MustVocabulary(syms ...Symbol) *Vocabulary {
	v, err := NewVocabulary(syms...)
	if err != nil {
		panic(err)
	}
	return v
}

// Add appends a symbol. Names must be unique and arities positive.
func (v *Vocabulary) Add(s Symbol) error {
	if s.Name == "" {
		return fmt.Errorf("structure: empty relation symbol name")
	}
	if s.Arity < 1 {
		return fmt.Errorf("structure: relation symbol %q has arity %d; must be >= 1", s.Name, s.Arity)
	}
	if _, dup := v.pos[s.Name]; dup {
		return fmt.Errorf("structure: duplicate relation symbol %q", s.Name)
	}
	v.pos[s.Name] = len(v.syms)
	v.syms = append(v.syms, s)
	return nil
}

// Symbols returns the symbols in insertion order. Do not modify.
func (v *Vocabulary) Symbols() []Symbol { return v.syms }

// Arity returns the arity of the named symbol and whether it exists.
func (v *Vocabulary) Arity(name string) (int, bool) {
	if i, ok := v.pos[name]; ok {
		return v.syms[i].Arity, true
	}
	return 0, false
}

// Has reports whether the vocabulary contains a symbol with the given name.
func (v *Vocabulary) Has(name string) bool {
	_, ok := v.pos[name]
	return ok
}

// Len returns the number of symbols.
func (v *Vocabulary) Len() int { return len(v.syms) }

// Equal reports whether two vocabularies contain the same symbol set.
func (v *Vocabulary) Equal(w *Vocabulary) bool {
	if v.Len() != w.Len() {
		return false
	}
	for _, s := range v.syms {
		a, ok := w.Arity(s.Name)
		if !ok || a != s.Arity {
			return false
		}
	}
	return true
}

// Clone returns a copy of the vocabulary.
func (v *Vocabulary) Clone() *Vocabulary {
	return MustVocabulary(v.syms...)
}

// Interp is the interpretation of one relation symbol in a structure: a set
// of tuples over the structure's domain. It is relation.Table, the library's
// one tuple store, so homomorphism checks (which call Has once per tuple per
// candidate map) allocate nothing per lookup, and a structure's relations
// are directly the tables of its CSP instance (Section 2).
type Interp = relation.Table

// Structure is a finite relational structure: a domain {0..N-1}, a
// vocabulary, and an interpretation for each relation symbol.
type Structure struct {
	voc   *Vocabulary
	n     int
	names []string // optional element labels; nil means "use indices"
	rels  map[string]*Interp
}

// New creates a structure with domain size n over the given vocabulary, with
// all relations empty.
func New(voc *Vocabulary, n int) (*Structure, error) {
	if n < 0 {
		return nil, fmt.Errorf("structure: negative domain size %d", n)
	}
	s := &Structure{voc: voc.Clone(), n: n, rels: make(map[string]*Interp, voc.Len())}
	for _, sym := range voc.Symbols() {
		s.rels[sym.Name] = relation.NewTable(sym.Arity)
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(voc *Vocabulary, n int) *Structure {
	s, err := New(voc, n)
	if err != nil {
		panic(err)
	}
	return s
}

// Voc returns the structure's vocabulary. Do not modify.
func (s *Structure) Voc() *Vocabulary { return s.voc }

// Size returns the domain size.
func (s *Structure) Size() int { return s.n }

// SetNames attaches human-readable element labels; len(names) must equal the
// domain size.
func (s *Structure) SetNames(names []string) error {
	if len(names) != s.n {
		return fmt.Errorf("structure: %d names for domain of size %d", len(names), s.n)
	}
	s.names = append([]string(nil), names...)
	return nil
}

// Name returns the label of element i (its index rendered as text if no
// names were set).
func (s *Structure) Name(i int) string {
	if s.names != nil && i >= 0 && i < len(s.names) {
		return s.names[i]
	}
	return fmt.Sprintf("%d", i)
}

// AddTuple inserts a tuple into the named relation. It validates the symbol,
// arity, and that every component is in the domain.
func (s *Structure) AddTuple(rel string, t ...int) error {
	in, ok := s.rels[rel]
	if !ok {
		return fmt.Errorf("structure: unknown relation symbol %q", rel)
	}
	if len(t) != in.Arity() {
		return fmt.Errorf("structure: tuple arity %d for symbol %q of arity %d", len(t), rel, in.Arity())
	}
	for _, v := range t {
		if v < 0 || v >= s.n {
			return fmt.Errorf("structure: element %d outside domain [0,%d)", v, s.n)
		}
	}
	in.Add(t)
	return nil
}

// MustAddTuple is AddTuple but panics on error.
func (s *Structure) MustAddTuple(rel string, t ...int) {
	if err := s.AddTuple(rel, t...); err != nil {
		panic(err)
	}
}

// HasTuple reports whether the named relation contains the tuple.
func (s *Structure) HasTuple(rel string, t ...int) bool {
	in, ok := s.rels[rel]
	return ok && in.Has(t)
}

// Rel returns the interpretation of the named symbol, or nil if absent.
func (s *Structure) Rel(name string) *Interp { return s.rels[name] }

// NumTuples returns the total number of tuples across all relations.
func (s *Structure) NumTuples() int {
	total := 0
	for _, in := range s.rels {
		total += in.Len()
	}
	return total
}

// Clone returns a deep copy of the structure.
func (s *Structure) Clone() *Structure {
	c := MustNew(s.voc, s.n)
	if s.names != nil {
		c.names = append([]string(nil), s.names...)
	}
	for name, in := range s.rels {
		c.rels[name] = in.Clone()
	}
	return c
}

// MaxArity returns the largest arity in the vocabulary (0 if empty).
func (s *Structure) MaxArity() int {
	m := 0
	for _, sym := range s.voc.Symbols() {
		if sym.Arity > m {
			m = sym.Arity
		}
	}
	return m
}

// String renders the structure compactly for debugging.
func (s *Structure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "structure(n=%d)", s.n)
	names := make([]string, 0, len(s.rels))
	for name := range s.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		in := s.rels[name]
		fmt.Fprintf(&b, " %s=%d", name, in.Len())
	}
	return b.String()
}

// IsHomomorphism reports whether h (a total map given as a slice indexed by
// A's elements) is a homomorphism from a to b: every tuple of every relation
// of a maps into the corresponding relation of b. The structures must share
// a vocabulary and len(h) must equal a.Size().
func IsHomomorphism(a, b *Structure, h []int) bool {
	if len(h) != a.n || !a.voc.Equal(b.voc) {
		return false
	}
	for _, v := range h {
		if v < 0 || v >= b.n {
			return false
		}
	}
	img := make([]int, a.MaxArity())
	for name, in := range a.rels {
		bin := b.rels[name]
		for ti := 0; ti < in.Len(); ti++ {
			t := in.Row(ti)
			it := img[:len(t)]
			for i, v := range t {
				it[i] = h[v]
			}
			if !bin.Has(it) {
				return false
			}
		}
	}
	return true
}

// IsPartialHomomorphism reports whether the partial map h (entries of -1
// mean "undefined") violates no tuple of a that is fully inside its domain.
func IsPartialHomomorphism(a, b *Structure, h []int) bool {
	if len(h) != a.n || !a.voc.Equal(b.voc) {
		return false
	}
	img := make([]int, a.MaxArity())
	for name, in := range a.rels {
		bin := b.rels[name]
	tuples:
		for ti := 0; ti < in.Len(); ti++ {
			t := in.Row(ti)
			it := img[:len(t)]
			for i, v := range t {
				if h[v] < 0 {
					continue tuples
				}
				it[i] = h[v]
			}
			if !bin.Has(it) {
				return false
			}
		}
	}
	return true
}

// Sum computes the disjoint-sum encoding A+B of Section 4: a single
// structure over the vocabulary σ1+σ2 whose domain is the disjoint union of
// the two domains, with R1/R2 copies of each relation and unary domain
// markers D1/D2. Elements of a keep their indices; elements of b are shifted
// by a.Size().
func Sum(a, b *Structure) (*Structure, error) {
	if !a.voc.Equal(b.voc) {
		return nil, fmt.Errorf("structure: Sum requires a common vocabulary")
	}
	voc := &Vocabulary{pos: make(map[string]int)}
	for _, sym := range a.voc.Symbols() {
		if err := voc.Add(Symbol{Name: sym.Name + "_1", Arity: sym.Arity}); err != nil {
			return nil, err
		}
		if err := voc.Add(Symbol{Name: sym.Name + "_2", Arity: sym.Arity}); err != nil {
			return nil, err
		}
	}
	if err := voc.Add(Symbol{Name: "D1", Arity: 1}); err != nil {
		return nil, err
	}
	if err := voc.Add(Symbol{Name: "D2", Arity: 1}); err != nil {
		return nil, err
	}
	sum, err := New(voc, a.n+b.n)
	if err != nil {
		return nil, err
	}
	for name, in := range a.rels {
		for ti := 0; ti < in.Len(); ti++ {
			t := in.Row(ti)
			if err := sum.AddTuple(name+"_1", t...); err != nil {
				return nil, err
			}
		}
	}
	shift := a.n
	buf := make([]int, b.MaxArity())
	for name, in := range b.rels {
		for ti := 0; ti < in.Len(); ti++ {
			t := in.Row(ti)
			st := buf[:len(t)]
			for i, v := range t {
				st[i] = v + shift
			}
			if err := sum.AddTuple(name+"_2", st...); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < a.n; i++ {
		if err := sum.AddTuple("D1", i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < b.n; i++ {
		if err := sum.AddTuple("D2", i+shift); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// GaifmanEdges returns the edge set of the Gaifman (primal) graph of the
// structure: {u,v} is an edge iff u != v co-occur in some tuple. Edges are
// returned with u < v, sorted.
func (s *Structure) GaifmanEdges() [][2]int {
	seen := make(map[[2]int]struct{})
	for _, in := range s.rels {
		for ti := 0; ti < in.Len(); ti++ {
			t := in.Row(ti)
			for i := 0; i < len(t); i++ {
				for j := i + 1; j < len(t); j++ {
					u, v := t[i], t[j]
					if u == v {
						continue
					}
					if u > v {
						u, v = v, u
					}
					seen[[2]int{u, v}] = struct{}{}
				}
			}
		}
	}
	edges := make([][2]int, 0, len(seen))
	for e := range seen {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// TuplesContaining returns, for each element of the domain, the list of
// (relation name, tuple) pairs whose tuple mentions that element, in
// vocabulary order. Useful for incremental homomorphism checking. The lists
// are carved from one array, counted in a first pass.
func (s *Structure) TuplesContaining() [][]RelTuple {
	// visit calls f once per tuple and distinct element of it: tuples are
	// short, so a scan of the prefix finds a repeated element.
	visit := func(f func(v int, rt RelTuple)) {
		for _, sym := range s.voc.Symbols() {
			in := s.rels[sym.Name]
			for ti := 0; ti < in.Len(); ti++ {
				t := in.Row(ti)
				for i, v := range t {
					if !slices.Contains(t[:i], v) {
						f(v, RelTuple{Rel: sym.Name, Tuple: t})
					}
				}
			}
		}
	}
	count, total := make([]int, s.n), 0
	visit(func(v int, _ RelTuple) { count[v]++; total++ })
	out, flat := make([][]RelTuple, s.n), make([]RelTuple, total)
	for v, c := range count {
		out[v], flat = flat[:0:c], flat[c:]
	}
	visit(func(v int, rt RelTuple) { out[v] = append(out[v], rt) })
	return out
}

// RelTuple pairs a relation name with one of its tuples.
type RelTuple struct {
	Rel   string
	Tuple []int
}
