package plan

import "slices"

// mapNode is the one list of what each logical node kind holds. It
// returns p with each of its expressions replaced by expr's result and
// then each of its children by child's, and it returns p itself when
// nothing changed. Otherwise it returns a shallow copy that holds the new
// parts and shares the rest, the rule mapExpr follows. A nil expr leaves
// the expressions as they are. A new node kind adds its case here.
func mapNode(p LogicalPlan, expr func(Expr) Expr, child func(LogicalPlan) LogicalPlan) LogicalPlan {
	changed := false
	ex := func(e Expr) Expr {
		if expr == nil || e == nil {
			return e
		}
		ne := expr(e)
		changed = changed || ne != e
		return ne
	}
	in := func(c LogicalPlan) LogicalPlan {
		nc := child(c)
		changed = changed || nc != c
		return nc
	}
	switch n := p.(type) {
	case *ScanNode:
		pushed := mapEach(n.Pushed, self, ex)
		if changed {
			return n.withPushed(pushed)
		}
	case *FilterNode:
		cond, c := ex(n.Cond), in(n.Child)
		if changed {
			return &FilterNode{Cond: cond, Child: c}
		}
	case *ProjectNode:
		exprs := mapEach(n.Exprs, func(ne *NamedExpr) *Expr { return &ne.Expr }, ex)
		if c := in(n.Child); changed {
			return &ProjectNode{Exprs: exprs, Child: c}
		}
	case *JoinNode:
		lk, rk := mapEach(n.LeftKeys, self, ex), mapEach(n.RightKeys, self, ex)
		if l, r := in(n.Left), in(n.Right); changed {
			return &JoinNode{Left: l, Right: r, LeftKeys: lk, RightKeys: rk, Type: n.Type}
		}
	case *AggregateNode:
		groups := mapEach(n.GroupBy, func(g *NamedExpr) *Expr { return &g.Expr }, ex)
		aggs := mapEach(n.Aggs, func(a *AggExpr) *Expr { return &a.Arg }, ex)
		if c := in(n.Child); changed {
			return &AggregateNode{GroupBy: groups, Aggs: aggs, Child: c}
		}
	case *SortNode:
		orders := mapEach(n.Orders, func(o *SortOrder) *Expr { return &o.Expr }, ex)
		if c := in(n.Child); changed {
			return &SortNode{Orders: orders, Child: c}
		}
	case *LimitNode:
		if c := in(n.Child); changed {
			return &LimitNode{N: n.N, Child: c}
		}
	case *UnionNode:
		if inputs := mapEach(n.Inputs, self, in); changed {
			return &UnionNode{Inputs: inputs}
		}
	}
	return p
}

// mapEach replaces the value at(&s[i]) of each element with fn's result.
// It returns s itself when fn changed no value, and a copy otherwise.
func mapEach[T any, V comparable](s []T, at func(*T) *V, fn func(V) V) []T {
	out := s
	for i := range s {
		v := *at(&s[i])
		if nv := fn(v); nv != v {
			if &out[0] == &s[0] {
				out = slices.Clone(s)
			}
			*at(&out[i]) = nv
		}
	}
	return out
}

// self is mapEach's accessor for a slice of the values themselves.
func self[V any](v *V) *V { return v }

// withPushed copies the scan with Pushed replaced, keeping its memoized
// schemas.
func (s *ScanNode) withPushed(pushed []Expr) *ScanNode {
	cp := &ScanNode{Relation: s.Relation, Alias: s.Alias, Projection: s.Projection, Pushed: pushed}
	cp.schemas.Store(s.schemas.Load())
	return cp
}
