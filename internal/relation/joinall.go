package relation

import "context"

// Multiway natural join (Proposition 2.1: a CSP instance is the join of its
// constraint relations) as one run of the join-tree engine over a one-node
// tree that holds every input. The engine's local join orders the inputs,
// so no other join driver is needed.

// JoinAll returns the natural join of rels over their attributes in order
// of first occurrence. With no inputs it returns the relation over no
// attributes containing the empty tuple (the join identity).
func JoinAll(rels []*Relation) *Relation {
	j, err := JoinAllCtx(context.Background(), rels)
	if err != nil {
		// Unreachable: the background context is never cancelled.
		panic(err)
	}
	return j
}

// Join returns the natural join of r and s: the schema is r's attributes
// followed by the attributes of s that do not occur in r, and a result tuple
// exists for every pair of r/s tuples that agree on all shared attributes.
func (r *Relation) Join(s *Relation) *Relation { return JoinAll([]*Relation{r, s}) }

// JoinAllCtx is JoinAll under a context: the engine polls ctx every
// joinCheckEvery units of work (see Poller, which also yields the
// processor) and returns its error as soon as cancellation is observed.
func JoinAllCtx(ctx context.Context, rels []*Relation) (*Relation, error) {
	ids := make(map[string]int)
	var attrs []string
	scopes := make([]int, 0, len(rels))
	atoms := make([]Atom, len(rels))
	for i, r := range rels {
		start := len(scopes)
		for _, a := range r.attrs {
			id, ok := ids[a]
			if !ok {
				id = len(attrs)
				ids[a] = id
				attrs = append(attrs, a)
			}
			scopes = append(scopes, id)
		}
		atoms[i] = Atom{Scope: scopes[start:len(scopes):len(scopes)], Rows: &r.Table}
	}
	all := make([]int, len(attrs))
	for v := range all {
		all[v] = v
	}
	// Dom 0: relation values are arbitrary ints, so every key is hashed.
	tree := JoinTree{Nodes: []Node{{Scope: all, Atoms: atoms}}, Parent: []int{-1}}
	t, err := tree.Join(ctx, all)
	if err != nil {
		return nil, err
	}
	return FromTable(attrs, t)
}
