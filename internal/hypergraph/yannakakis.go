package hypergraph

import (
	"context"
	"fmt"

	"csdb/internal/cq"
	"csdb/internal/obs"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

// reduceQuery runs the join-tree engine's full reducer over an α-acyclic
// query's atoms: one node per atom, holding the atom's relation over
// FromQuery's variable indices, joined by GYO's join tree. It returns the
// tree with every node holding its reduced table, the reduced atom
// relations in the atom order of the query, and the variable indices.
func reduceQuery(q *cq.Query, db *structure.Structure) (*relation.JoinTree, []*relation.Relation, map[string]int, error) {
	h, idx, err := FromQuery(q)
	if err != nil {
		return nil, nil, nil, err
	}
	acyclic, jt := h.GYO()
	if !acyclic {
		return nil, nil, nil, fmt.Errorf("hypergraph: query is not α-acyclic")
	}
	body, err := q.Literals(db)
	if err != nil {
		return nil, nil, nil, err
	}
	vars := make([][]string, len(body))
	tree := &relation.JoinTree{Dom: db.Size(), Nodes: make([]relation.Node, len(body)), Parent: jt.Parent}
	atoms := make([]relation.Atom, len(body))
	for i, l := range body {
		var rows *relation.Table
		if vars[i], rows, err = l.Bind(context.Background()); err != nil {
			return nil, nil, nil, err
		}
		scope := make([]int, len(vars[i]))
		for j, v := range vars[i] {
			scope[j] = idx[v]
		}
		atoms[i] = relation.Atom{Scope: scope, Rows: rows}
		tree.Nodes[i] = relation.Node{Scope: scope, Atoms: atoms[i : i+1 : i+1]}
	}
	reduced, err := tree.Reduce(context.Background())
	if err != nil {
		return nil, nil, nil, err
	}
	rels := make([]*relation.Relation, len(body))
	for i, t := range reduced {
		atoms[i].Rows = t
		if rels[i], err = relation.FromTable(vars[i], t); err != nil {
			return nil, nil, nil, err
		}
	}
	return tree, rels, idx, nil
}

// Yannakakis evaluates an α-acyclic conjunctive query on a database in
// polynomial time: the full reducer (semijoins up and down the join tree)
// eliminates all dangling tuples, after which the join-tree engine's up
// pass, keeping the head variables in every message, joins the tree
// bottom-up with early projection and never blows up beyond the final
// output. This is the classical algorithm behind the acyclic-joins line of
// work the paper surveys in Section 6.
func Yannakakis(q *cq.Query, db *structure.Structure) (*relation.Relation, error) {
	sp := obs.StartChild(nil, "hypergraph.yannakakis")
	sp.SetInt("atoms", int64(len(q.Body)))
	defer sp.End()
	tree, _, idx, err := reduceQuery(q, db)
	if err != nil {
		return nil, err
	}
	head := make([]int, len(q.Head))
	for i, v := range q.Head {
		head[i] = idx[v]
	}
	joinSpan := obs.StartChild(sp, "yannakakis.join_up")
	result, err := tree.Join(context.Background(), head)
	if err != nil {
		joinSpan.End()
		return nil, err
	}
	if joinSpan != nil {
		joinSpan.SetInt("rows", int64(result.Len()))
		joinSpan.End()
	}
	return relation.FromTable(q.Head, result)
}

// SemijoinReduce runs only the full reducer and returns the reduced
// per-atom relations, in the atom order of the query. Exposed for the
// experiment that counts intermediate sizes against the naive join.
func SemijoinReduce(q *cq.Query, db *structure.Structure) ([]*relation.Relation, error) {
	_, rels, _, err := reduceQuery(q, db)
	return rels, err
}
