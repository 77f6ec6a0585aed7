package plan

import "sort"

// forEachExpr calls fn on every expression node in the plan tree: each
// node's own expressions, walked depth-first, then its children's.
func forEachExpr(p LogicalPlan, fn func(Expr)) {
	var walk func(Expr)
	walk = func(e Expr) {
		fn(e)
		for _, c := range e.Children() {
			walk(c)
		}
	}
	switch n := p.(type) {
	case *ScanNode:
		for _, e := range n.Pushed {
			walk(e)
		}
	case *FilterNode:
		walk(n.Cond)
	case *ProjectNode:
		for _, ne := range n.Exprs {
			walk(ne.Expr)
		}
	case *JoinNode:
		for i := range n.LeftKeys {
			walk(n.LeftKeys[i])
			walk(n.RightKeys[i])
		}
	case *AggregateNode:
		for _, g := range n.GroupBy {
			walk(g.Expr)
		}
		for _, a := range n.Aggs {
			if a.Arg != nil {
				walk(a.Arg)
			}
		}
	case *SortNode:
		for _, o := range n.Orders {
			walk(o.Expr)
		}
	}
	for _, c := range p.Children() {
		forEachExpr(c, fn)
	}
}

// Slots lists, ascending and without repeats, the literal slots present
// anywhere in the plan.
func Slots(p LogicalPlan) []int {
	seen := make(map[int]bool)
	var out []int
	forEachExpr(p, func(e Expr) {
		if l, ok := e.(*Literal); ok && l.Slot > 0 && !seen[l.Slot] {
			seen[l.Slot] = true
			out = append(out, l.Slot)
		}
	})
	sort.Ints(out)
	return out
}

// SlotRefs counts the slotted literals in p, each occurrence once.
func SlotRefs(p LogicalPlan) int {
	n := 0
	forEachExpr(p, func(e Expr) {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			n++
		}
	})
	return n
}

// ExprSlotRefs counts the slotted literals in e, each occurrence once.
func ExprSlotRefs(e Expr) int {
	n := 0
	if l, ok := e.(*Literal); ok && l.Slot > 0 {
		n++
	}
	for _, c := range e.Children() {
		n += ExprSlotRefs(c)
	}
	return n
}

// Bound is the literal's value under a query's slot values: vals[Slot-1]
// (negated when the literal is Negated) for a slotted literal, Val for
// an unslotted one or when vals is nil.
func (l *Literal) Bound(vals []any) any {
	if l.Slot == 0 || vals == nil {
		return l.Val
	}
	v := vals[l.Slot-1]
	if l.Negated {
		switch x := v.(type) {
		case int64:
			v = -x
		case float64:
			v = -x
		}
	}
	return v
}

// Bind deep-copies p and sets every slotted literal to its Bound value.
// vals must hold an int64, float64 or string for each slot, of the kind
// the slot's literal was parsed with; Bind leaves a template's literal
// types unchanged.
func Bind(p LogicalPlan, vals []any) LogicalPlan {
	p = ClonePlan(p)
	forEachExpr(p, func(e Expr) {
		if l, ok := e.(*Literal); ok {
			l.Val = l.Bound(vals)
		}
	})
	return p
}

// Unslot returns a copy of p whose literals carry no slots. Slots number
// one query's literals; a plan embedded in other queries (a view) must
// not be rebound with theirs.
func Unslot(p LogicalPlan) LogicalPlan {
	p = ClonePlan(p)
	forEachExpr(p, func(e Expr) {
		if l, ok := e.(*Literal); ok {
			l.Slot, l.Negated = 0, false
		}
	})
	return p
}
