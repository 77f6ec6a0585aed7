package plan

import "sort"

// forEachExpr calls fn on every expression node in the plan tree.
func forEachExpr(p LogicalPlan, fn func(Expr)) {
	rewriteExprs(p, func(e Expr) Expr { fn(e); return e })
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

// Bind returns p with every slotted literal set to its Bound value,
// copying only the nodes and expressions on the way to one; p is left as
// it is. vals must hold an int64, float64 or string for each slot, of the
// kind the slot's literal was parsed with; Bind leaves a template's
// literal types unchanged.
func Bind(p LogicalPlan, vals []any) LogicalPlan {
	if vals == nil {
		return p
	}
	return rewriteExprs(p, func(e Expr) Expr {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			cp := *l
			cp.Val = l.Bound(vals)
			return &cp
		}
		return e
	})
}

// Unslot returns p with no literal carrying a slot, copying only what
// changes. Slots number one query's literals; a plan embedded in other
// queries (a view) must not be rebound with theirs.
func Unslot(p LogicalPlan) LogicalPlan {
	return rewriteExprs(p, func(e Expr) Expr {
		if l, ok := e.(*Literal); ok && (l.Slot != 0 || l.Negated) {
			cp := *l
			cp.Slot, cp.Negated = 0, false
			return &cp
		}
		return e
	})
}
