package hypergraph

import (
	"context"
	"fmt"
	"slices"

	"csdb/internal/cq"
	"csdb/internal/obs"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

// reduceQuery runs the join-tree engine's full reducer over an α-acyclic
// query's atoms: one node per atom, holding the atom's relation over
// FromQuery's variable indices, joined by GYO's join tree. It returns the
// reduced atom relations, in the atom order of the query, and the tree.
func reduceQuery(q *cq.Query, db *structure.Structure) ([]*relation.Relation, *JoinTree, error) {
	h, idx, err := FromQuery(q)
	if err != nil {
		return nil, nil, err
	}
	acyclic, jt := h.GYO()
	if !acyclic {
		return nil, nil, fmt.Errorf("hypergraph: query is not α-acyclic")
	}
	rels := make([]*relation.Relation, len(q.Body))
	tree := &relation.JoinTree{Dom: db.Size(), Nodes: make([]relation.Node, len(q.Body)), Parent: jt.Parent}
	for i, a := range q.Body {
		r, err := cq.AtomRelation(a, db)
		if err != nil {
			return nil, nil, err
		}
		scope := make([]int, len(r.Attrs()))
		for j, v := range r.Attrs() {
			scope[j] = idx[v]
		}
		rels[i], tree.Nodes[i] = r, relation.Node{Scope: scope, Rows: &r.Table}
	}
	reduced, err := tree.Reduce(context.Background())
	if err != nil {
		return nil, nil, err
	}
	for i, t := range reduced {
		if rels[i], err = relation.FromTable(rels[i].Attrs(), t); err != nil {
			return nil, nil, err
		}
	}
	return rels, jt, nil
}

// Yannakakis evaluates an α-acyclic conjunctive query on a database in
// polynomial time: the full reducer (semijoins up and down the join tree,
// run by the join-tree engine) eliminates all dangling tuples, after which
// the join can be computed bottom-up with early projection and never blows
// up beyond the final output. This is the classical algorithm behind the
// acyclic-joins line of work the paper surveys in Section 6.
func Yannakakis(q *cq.Query, db *structure.Structure) (*relation.Relation, error) {
	sp := obs.StartChild(nil, "hypergraph.yannakakis")
	sp.SetInt("atoms", int64(len(q.Body)))
	defer sp.End()
	rels, jt, err := reduceQuery(q, db)
	if err != nil {
		return nil, err
	}

	// Bottom-up join along the tree with early projection: after each join,
	// the partial result at node i keeps only the head variables and the
	// variables of i's parent and of the children still to join. By the
	// join-tree connectedness property, a variable of the joined part used
	// elsewhere occurs in one of those atoms, so nothing needed is dropped.
	children := make([][]int, len(q.Body))
	for i, p := range jt.Parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	headSet := make(map[string]bool, len(q.Head))
	for _, v := range q.Head {
		headSet[v] = true
	}
	// keep projects r onto the head variables and those of atom parent (-1
	// for none) and of the atoms later, and returns r itself when it keeps
	// every attribute.
	keep := func(r *relation.Relation, parent int, later []int) (*relation.Relation, error) {
		var attrs []string
		for _, v := range r.Attrs() {
			if headSet[v] || parent >= 0 && slices.Contains(q.Body[parent].Args, v) ||
				slices.ContainsFunc(later, func(a int) bool { return slices.Contains(q.Body[a].Args, v) }) {
				attrs = append(attrs, v)
			}
		}
		if len(attrs) == len(r.Attrs()) {
			return r, nil
		}
		return r.Project(attrs...)
	}
	var joinUp func(i int) (*relation.Relation, error)
	joinUp = func(i int) (*relation.Relation, error) {
		cur, kids := rels[i], children[i]
		for k, c := range kids {
			sub, err := joinUp(c)
			if err != nil {
				return nil, err
			}
			if cur, err = keep(cur.Join(sub), jt.Parent[i], kids[k+1:]); err != nil {
				return nil, err
			}
		}
		return keep(cur, jt.Parent[i], nil)
	}
	joinSpan := obs.StartChild(sp, "yannakakis.join_up")
	result, err := joinUp(jt.Root)
	if err != nil {
		joinSpan.End()
		return nil, err
	}
	if joinSpan != nil {
		joinSpan.SetInt("rows", int64(result.Len()))
		joinSpan.End()
	}

	if len(q.Head) == 0 {
		out := relation.MustNew()
		if !result.Empty() {
			out.MustAdd(relation.Tuple{})
		}
		return out, nil
	}
	return result.Project(q.Head...)
}

// SemijoinReduce runs only the full reducer and returns the reduced
// per-atom relations, in the atom order of the query. Exposed for the
// experiment that counts intermediate sizes against the naive join.
func SemijoinReduce(q *cq.Query, db *structure.Structure) ([]*relation.Relation, error) {
	rels, _, err := reduceQuery(q, db)
	return rels, err
}
