// Package cq implements conjunctive queries — positive existential
// first-order formulas with conjunction only, written as rules — together
// with the classical machinery of Section 2 of the paper:
//
//   - the canonical database D^Q of a query (with distinguished-variable
//     markers P_i);
//   - query evaluation over relational structures via join plans;
//   - conjunctive-query containment via the Chandra–Merlin theorem
//     (Proposition 2.2), decided both by evaluating Q2 on D^{Q1} and by
//     searching for a homomorphism D^{Q2} → D^{Q1};
//   - the Boolean query φ_A of a structure A and the equivalence of
//     Proposition 2.3 (homomorphism ⇔ φ_A true in B ⇔ φ_B ⊆ φ_A).
package cq

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

// Atom is one subgoal R(X1,...,Xn); arguments are variable names.
type Atom struct {
	Pred string
	Args []string
}

func (a Atom) String() string {
	return a.Pred + "(" + strings.Join(a.Args, ",") + ")"
}

// Query is a conjunctive query in rule form. Head lists the distinguished
// variables (empty for a Boolean query); Body lists the subgoals.
type Query struct {
	Name string
	Head []string
	Body []Atom
}

// String renders the query back in rule syntax.
func (q *Query) String() string {
	head := q.Name
	if len(q.Head) > 0 {
		head += "(" + strings.Join(q.Head, ",") + ")"
	}
	subgoals := make([]string, len(q.Body))
	for i, a := range q.Body {
		subgoals[i] = a.String()
	}
	return head + " :- " + strings.Join(subgoals, ", ") + "."
}

// Vars returns the distinct variables of the query in first-occurrence order
// (head first, then body).
func (q *Query) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(v string) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range q.Head {
		add(v)
	}
	for _, a := range q.Body {
		for _, v := range a.Args {
			add(v)
		}
	}
	return out
}

// Validate checks that the query is safe (every head variable occurs in the
// body), that it has at least one subgoal, and that predicates are used with
// consistent arities.
func (q *Query) Validate() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: query %s has an empty body", q.Name)
	}
	arity := make(map[string]int)
	bodyVars := make(map[string]bool)
	for _, a := range q.Body {
		if a.Pred == "" || len(a.Args) == 0 {
			return fmt.Errorf("cq: malformed subgoal %v", a)
		}
		if prev, ok := arity[a.Pred]; ok && prev != len(a.Args) {
			return fmt.Errorf("cq: predicate %s used with arities %d and %d", a.Pred, prev, len(a.Args))
		}
		arity[a.Pred] = len(a.Args)
		for _, v := range a.Args {
			bodyVars[v] = true
		}
	}
	for _, v := range q.Head {
		if !bodyVars[v] {
			return fmt.Errorf("cq: head variable %s does not occur in the body (unsafe query)", v)
		}
	}
	seen := make(map[string]bool)
	for _, v := range q.Head {
		if seen[v] {
			return fmt.Errorf("cq: repeated head variable %s", v)
		}
		seen[v] = true
	}
	return nil
}

// Predicates returns the query's predicate symbols with their arities,
// sorted by name.
func (q *Query) Predicates() []structure.Symbol {
	arity := make(map[string]int)
	for _, a := range q.Body {
		arity[a.Pred] = len(a.Args)
	}
	names := make([]string, 0, len(arity))
	for n := range arity {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]structure.Symbol, len(names))
	for i, n := range names {
		out[i] = structure.Symbol{Name: n, Arity: arity[n]}
	}
	return out
}

// Parse parses rule syntax such as
//
//	Q(X1,X2) :- P(X1,Z1,Z2), R(Z2,Z3), R(Z3,X2).
//
// The head argument list may be omitted for Boolean queries ("Q :- ...").
// A trailing period is optional.
func Parse(s string) (*Query, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, ".")
	parts := strings.SplitN(s, ":-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("cq: missing ':-' in %q", s)
	}
	name, headVars, err := parseAtomText(strings.TrimSpace(parts[0]), true)
	if err != nil {
		return nil, fmt.Errorf("cq: bad head: %w", err)
	}
	body, err := parseAtomList(parts[1])
	if err != nil {
		return nil, err
	}
	q := &Query{Name: name, Head: headVars, Body: body}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse but panics on error.
func MustParse(s string) *Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// parseAtomList splits "P(X,Y), R(Y,Z)" into atoms, respecting parentheses.
func parseAtomList(s string) ([]Atom, error) {
	var atoms []Atom
	depth, start := 0, 0
	flush := func(end int) error {
		txt := strings.TrimSpace(s[start:end])
		if txt == "" {
			return fmt.Errorf("cq: empty subgoal in %q", s)
		}
		name, args, err := parseAtomText(txt, false)
		if err != nil {
			return err
		}
		atoms = append(atoms, Atom{Pred: name, Args: args})
		return nil
	}
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("cq: unbalanced parentheses in %q", s)
			}
		case ',':
			if depth == 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("cq: unbalanced parentheses in %q", s)
	}
	if err := flush(len(s)); err != nil {
		return nil, err
	}
	return atoms, nil
}

// parseAtomText parses "R(X,Y)" into name and args. When allowNoArgs is true
// a bare identifier (Boolean head) is accepted.
func parseAtomText(s string, allowNoArgs bool) (string, []string, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if allowNoArgs && isIdent(s) {
			return s, nil, nil
		}
		return "", nil, fmt.Errorf("missing '(' in %q", s)
	}
	if !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("missing ')' in %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if !isIdent(name) {
		return "", nil, fmt.Errorf("bad predicate name %q", name)
	}
	inner := s[open+1 : len(s)-1]
	var args []string
	for _, part := range strings.Split(inner, ",") {
		v := strings.TrimSpace(part)
		if !isIdent(v) {
			return "", nil, fmt.Errorf("bad argument %q in %q", v, s)
		}
		args = append(args, v)
	}
	if len(args) == 0 {
		return "", nil, fmt.Errorf("empty argument list in %q", s)
	}
	return name, args, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CanonicalDB builds the canonical database D^Q of the query: one domain
// element per variable, a tuple per subgoal, and — when markDistinguished is
// true — a unary marker predicate Pi holding the i-th distinguished
// variable, as in Section 2. It returns the structure and the element index
// of each variable.
//
// The structure's vocabulary is voc when non-nil (it must cover the query's
// predicates and, if markDistinguished, the markers); otherwise a minimal
// vocabulary is synthesized.
func (q *Query) CanonicalDB(voc *structure.Vocabulary, markDistinguished bool) (*structure.Structure, map[string]int, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	if voc == nil {
		voc = structure.MustVocabulary()
		for _, sym := range q.Predicates() {
			if err := voc.Add(sym); err != nil {
				return nil, nil, err
			}
		}
		if markDistinguished {
			for i := range q.Head {
				if err := voc.Add(structure.Symbol{Name: markerName(i), Arity: 1}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	names := make([]string, len(vars))
	for i, v := range vars {
		idx[v] = i
		names[i] = v
	}
	db, err := structure.New(voc, len(vars))
	if err != nil {
		return nil, nil, err
	}
	if err := db.SetNames(names); err != nil {
		return nil, nil, err
	}
	for _, a := range q.Body {
		t := make([]int, len(a.Args))
		for i, v := range a.Args {
			t[i] = idx[v]
		}
		if err := db.AddTuple(a.Pred, t...); err != nil {
			return nil, nil, err
		}
	}
	if markDistinguished {
		for i, v := range q.Head {
			if err := db.AddTuple(markerName(i), idx[v]); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, idx, nil
}

func markerName(i int) string { return fmt.Sprintf("Pdist%d", i) }

// Evaluate computes Q(db): the relation of head-variable bindings (attribute
// names are the head variables) for which the body is satisfied in db.
// Predicates of the query absent from db's vocabulary are treated as empty.
// For a Boolean query the result is a 0-ary relation that is nonempty iff
// the query is true.
func (q *Query) Evaluate(db *structure.Structure) (*relation.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	body, err := q.Literals(db)
	if err != nil {
		return nil, err
	}
	return relation.Eval(context.Background(), body, q.Head)
}

// True reports whether a Boolean query holds in db.
func (q *Query) True(db *structure.Structure) (bool, error) {
	res, err := q.Evaluate(db)
	if err != nil {
		return false, err
	}
	return !res.Empty(), nil
}

// Literals returns the query's subgoals as literals over db: each atom's
// arguments over db's relation of its predicate, an empty table when db's
// vocabulary lacks the predicate. The tables are db's own, so they must not
// be changed.
func (q *Query) Literals(db *structure.Structure) ([]relation.Literal, error) {
	body := make([]relation.Literal, len(q.Body))
	for i, a := range q.Body {
		arity, ok := db.Voc().Arity(a.Pred)
		if ok && arity != len(a.Args) {
			return nil, fmt.Errorf("cq: predicate %s has arity %d in the database, used with %d arguments", a.Pred, arity, len(a.Args))
		}
		rows := db.Rel(a.Pred)
		if !ok {
			rows = relation.NewTable(len(a.Args))
		}
		body[i] = relation.Literal{Args: a.Args, Rows: rows}
	}
	return body, nil
}

// Contains decides Q1 ⊆ Q2 (same head arity required) by the Chandra–Merlin
// criterion: the head tuple of Q1 belongs to Q2(D^{Q1}).
func Contains(q1, q2 *Query) (bool, error) {
	if len(q1.Head) != len(q2.Head) {
		return false, fmt.Errorf("cq: containment between queries of different head arities %d and %d", len(q1.Head), len(q2.Head))
	}
	db, idx, err := q1.CanonicalDB(nil, false)
	if err != nil {
		return false, err
	}
	res, err := q2.Evaluate(db)
	if err != nil {
		return false, err
	}
	if len(q1.Head) == 0 {
		return !res.Empty(), nil
	}
	want := make(relation.Tuple, len(q1.Head))
	for i, v := range q1.Head {
		want[i] = idx[v]
	}
	return res.Has(want), nil
}

// ContainsViaHomomorphism decides Q1 ⊆ Q2 by the second Chandra–Merlin
// criterion: a homomorphism D^{Q2} → D^{Q1} mapping distinguished variables
// to distinguished variables (enforced by the Pi marker predicates).
func ContainsViaHomomorphism(q1, q2 *Query) (bool, error) {
	if len(q1.Head) != len(q2.Head) {
		return false, fmt.Errorf("cq: containment between queries of different head arities %d and %d", len(q1.Head), len(q2.Head))
	}
	voc, err := jointVocabulary(q1, q2, len(q1.Head))
	if err != nil {
		return false, err
	}
	d1, _, err := q1.CanonicalDB(voc, true)
	if err != nil {
		return false, err
	}
	d2, _, err := q2.CanonicalDB(voc, true)
	if err != nil {
		return false, err
	}
	return csp.HomomorphismExists(d2, d1), nil
}

// jointVocabulary builds the union vocabulary of two queries plus nHead
// distinguished markers, checking arity agreement.
func jointVocabulary(q1, q2 *Query, nHead int) (*structure.Vocabulary, error) {
	voc := structure.MustVocabulary()
	arity := make(map[string]int)
	for _, q := range []*Query{q1, q2} {
		for _, sym := range q.Predicates() {
			if prev, ok := arity[sym.Name]; ok {
				if prev != sym.Arity {
					return nil, fmt.Errorf("cq: predicate %s used with arities %d and %d across queries", sym.Name, prev, sym.Arity)
				}
				continue
			}
			arity[sym.Name] = sym.Arity
			if err := voc.Add(sym); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < nHead; i++ {
		if err := voc.Add(structure.Symbol{Name: markerName(i), Arity: 1}); err != nil {
			return nil, err
		}
	}
	return voc, nil
}

// Equivalent reports whether Q1 and Q2 are equivalent (mutual containment).
func Equivalent(q1, q2 *Query) (bool, error) {
	a, err := Contains(q1, q2)
	if err != nil || !a {
		return false, err
	}
	return Contains(q2, q1)
}

// StructureQuery builds the Boolean canonical query φ_A of Proposition 2.3:
// one variable per element of a, one subgoal per fact. By the proposition,
// φ_A is true in B iff there is a homomorphism A → B.
func StructureQuery(a *structure.Structure) (*Query, error) {
	q := &Query{Name: "PhiA"}
	varName := func(i int) string { return fmt.Sprintf("x%d", i) }
	for _, sym := range a.Voc().Symbols() {
		for _, t := range a.Rel(sym.Name).Tuples() {
			args := make([]string, len(t))
			for i, v := range t {
				args[i] = varName(v)
			}
			q.Body = append(q.Body, Atom{Pred: sym.Name, Args: args})
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}
