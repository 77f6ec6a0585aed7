package plan

import (
	"slices"
	"sort"
	"strings"
)

// Optimize applies the rule-based optimizations the paper leans on
// (§VI-A): constant folding, filter combination, predicate pushdown toward
// (and into) scans, and column pruning. The result is a plan whose ScanNode
// leaves carry their pushed predicates and pruned projections; the physical
// planner translates those into data-source filters and required columns.
func Optimize(p LogicalPlan) LogicalPlan {
	// Work on a private copy: optimization mutates scan nodes, and logical
	// plans are reusable (a DataFrame may be collected repeatedly).
	p = ClonePlan(p)
	p = rewriteExprs(p, foldConstants)
	p = combineFilters(p)
	p = pushDownFilters(p)
	p = pruneColumns(p, nil)
	return p
}

// ClonePlan deep-copies a logical plan: nodes and expressions are cloned,
// relations are shared.
func ClonePlan(p LogicalPlan) LogicalPlan {
	cp := mapNode(p, CloneExpr, ClonePlan)
	if s, ok := cp.(*ScanNode); ok && cp == p {
		// A scan with nothing pushed holds nothing to clone, but the
		// optimizer rewrites scans in place: copy it all the same.
		cp = s.withPushed(nil)
	}
	return cp
}

// rewriteExprs applies fn to every expression in the tree, bottom-up,
// copying only the nodes whose expressions or children changed.
func rewriteExprs(p LogicalPlan, fn func(Expr) Expr) LogicalPlan {
	return mapNode(p,
		func(e Expr) Expr { return mapExpr(e, fn) },
		func(c LogicalPlan) LogicalPlan { return rewriteExprs(c, fn) })
}

// mapExpr rewrites an expression bottom-up with fn, copying only the
// nodes whose children changed.
func mapExpr(e Expr, fn func(Expr) Expr) Expr {
	children := e.Children()
	var mapped []Expr
	for i, c := range children {
		if m := mapExpr(c, fn); m != c {
			if mapped == nil {
				mapped = slices.Clone(children)
			}
			mapped[i] = m
		}
	}
	if mapped != nil {
		e = e.WithChildren(mapped)
	}
	return fn(e)
}

// foldConstants evaluates expressions with no column references.
func foldConstants(e Expr) Expr {
	switch e.(type) {
	case *Literal, *ColumnRef:
		return e
	}
	if len(Columns(e)) != 0 {
		return e
	}
	v, err := e.Eval(nil)
	if err != nil {
		return e
	}
	lit := Lit(v)
	if lit.Typ == TypeUnknown && v != nil {
		return e
	}
	return lit
}

// combineFilters merges adjacent FilterNodes.
func combineFilters(p LogicalPlan) LogicalPlan {
	p = mapNode(p, nil, combineFilters)
	if f, ok := p.(*FilterNode); ok {
		if fc, ok := f.Child.(*FilterNode); ok {
			return &FilterNode{Cond: &And{L: f.Cond, R: fc.Cond}, Child: fc.Child}
		}
	}
	return p
}

// pushDownFilters moves filter conjuncts as close to the scans as possible
// and deposits source-translatable ones into ScanNode.Pushed.
func pushDownFilters(p LogicalPlan) LogicalPlan {
	p = mapNode(p, nil, pushDownFilters)
	f, ok := p.(*FilterNode)
	if !ok {
		return p
	}
	remaining := pushInto(f.Child, SplitConjuncts(f.Cond))
	if rem := CombineConjuncts(remaining); rem != nil {
		return &FilterNode{Cond: rem, Child: f.Child}
	}
	return f.Child
}

// pushInto tries to sink each conjunct into node (mutating scans in place)
// and returns the conjuncts that could not be fully absorbed.
func pushInto(node LogicalPlan, conjuncts []Expr) []Expr {
	var remaining []Expr
	for _, c := range conjuncts {
		if !sink(node, c) {
			remaining = append(remaining, c)
		}
	}
	return remaining
}

// sink places one predicate below node when legal. It returns true only
// when the predicate has been fully absorbed (pushed into a scan or wrapped
// in a new filter directly above one).
func sink(node LogicalPlan, pred Expr) bool {
	refs := Columns(pred)
	switch n := node.(type) {
	case *ScanNode:
		if !coveredBy(refs, n.Schema()) {
			return false
		}
		if Translatable(pred) {
			n.Pushed = append(n.Pushed, pred)
			return true
		}
		return false
	case *FilterNode:
		if sink(n.Child, pred) {
			return true
		}
		if coveredBy(refs, n.Child.Schema()) {
			n.Cond = &And{L: n.Cond, R: pred}
			return true
		}
		return false
	case *JoinNode:
		if coveredBy(refs, n.Left.Schema()) {
			if sink(n.Left, pred) {
				return true
			}
			n.Left = &FilterNode{Cond: pred, Child: n.Left}
			return true
		}
		// Right-side predicates may not sink below a left-outer join:
		// they must also drop NULL-extended rows, which only happens when
		// evaluated above the join.
		if n.Type == InnerJoin && coveredBy(refs, n.Right.Schema()) {
			if sink(n.Right, pred) {
				return true
			}
			n.Right = &FilterNode{Cond: pred, Child: n.Right}
			return true
		}
		return false
	case *ProjectNode:
		// Only push predicates whose columns pass through the projection
		// unchanged (a bare column reference projected under its own name).
		for _, r := range refs {
			if !passesThrough(n, r) {
				return false
			}
		}
		if sink(n.Child, pred) {
			return true
		}
		if coveredBy(refs, n.Child.Schema()) {
			n.Child = &FilterNode{Cond: pred, Child: n.Child}
			return true
		}
		return false
	}
	return false
}

func passesThrough(p *ProjectNode, col string) bool {
	for _, ne := range p.Exprs {
		if ne.Name != col {
			continue
		}
		c, ok := ne.Expr.(*ColumnRef)
		return ok && c.Name == col
	}
	return false
}

func coveredBy(cols []string, schema Schema) bool {
	for _, c := range cols {
		if schema.IndexOf(c) < 0 {
			return false
		}
	}
	return true
}

// Translatable reports whether a predicate has a shape the data-source API
// can describe (and hence can live in ScanNode.Pushed): comparisons between
// one column and a literal, IN/NOT IN over literals, prefix LIKE, and
// AND/OR combinations of those over a single relation.
func Translatable(e Expr) bool {
	switch x := e.(type) {
	case *Comparison:
		return colLit(x.L, x.R) || colLit(x.R, x.L)
	case *In:
		if _, ok := x.E.(*ColumnRef); !ok {
			return false
		}
		for _, v := range x.Values {
			if _, ok := v.(*Literal); !ok {
				return false
			}
		}
		return true
	case *Like:
		if _, ok := x.E.(*ColumnRef); !ok {
			return false
		}
		// Only prefix patterns translate to a source filter.
		i := strings.IndexAny(x.Pattern, "%_")
		return i >= 0 && i == len(x.Pattern)-1 && x.Pattern[i] == '%'
	case *And:
		return Translatable(x.L) && Translatable(x.R)
	case *Or:
		return Translatable(x.L) && Translatable(x.R)
	}
	return false
}

func colLit(a, b Expr) bool {
	_, aCol := a.(*ColumnRef)
	_, bLit := b.(*Literal)
	return aCol && bLit
}

// pruneColumns walks top-down computing the columns each node must produce
// and sets ScanNode.Projection accordingly. required=nil means "all".
func pruneColumns(p LogicalPlan, required []string) LogicalPlan {
	switch n := p.(type) {
	case *ScanNode:
		if required == nil {
			return n
		}
		// Keep schema order, and include pushed-filter columns so the
		// source can evaluate them (SHC filters on the full row anyway,
		// but generic sources filter on materialized columns).
		need := make(map[string]bool, len(required))
		for _, c := range required {
			need[c] = true
		}
		for _, e := range n.Pushed {
			for _, c := range Columns(e) {
				need[c] = true
			}
		}
		var proj []string
		full := n.qualified()
		for _, f := range full {
			if need[f.Name] || need[bareName(f.Name)] {
				proj = append(proj, f.Name)
			}
		}
		if len(proj) == 0 && len(full) > 0 {
			// Count-only queries still need one column to count rows.
			proj = []string{full[0].Name}
		}
		n.Projection = proj
		return n
	case *FilterNode:
		if required == nil {
			n.Child = pruneColumns(n.Child, nil)
			return n
		}
		n.Child = pruneColumns(n.Child, union(required, Columns(n.Cond)))
		return n
	case *ProjectNode:
		var childReq []string
		for _, ne := range n.Exprs {
			childReq = union(childReq, Columns(ne.Expr))
		}
		if childReq == nil {
			childReq = []string{}
		}
		n.Child = pruneColumns(n.Child, childReq)
		return n
	case *JoinNode:
		var req []string
		if required != nil {
			req = required
		} else {
			for _, f := range n.Schema() {
				req = append(req, f.Name)
			}
		}
		for _, k := range n.LeftKeys {
			req = union(req, Columns(k))
		}
		for _, k := range n.RightKeys {
			req = union(req, Columns(k))
		}
		var leftReq, rightReq []string
		ls, rs := n.Left.Schema(), n.Right.Schema()
		for _, c := range req {
			if ls.IndexOf(c) >= 0 {
				leftReq = append(leftReq, c)
			}
			if rs.IndexOf(c) >= 0 {
				rightReq = append(rightReq, c)
			}
		}
		n.Left = pruneColumns(n.Left, leftReq)
		n.Right = pruneColumns(n.Right, rightReq)
		return n
	case *AggregateNode:
		var childReq []string
		for _, g := range n.GroupBy {
			childReq = union(childReq, Columns(g.Expr))
		}
		for _, a := range n.Aggs {
			if a.Arg != nil {
				childReq = union(childReq, Columns(a.Arg))
			}
		}
		if childReq == nil {
			childReq = []string{}
		}
		n.Child = pruneColumns(n.Child, childReq)
		return n
	case *SortNode:
		if required == nil {
			n.Child = pruneColumns(n.Child, nil)
			return n
		}
		childReq := required
		for _, o := range n.Orders {
			childReq = union(childReq, Columns(o.Expr))
		}
		n.Child = pruneColumns(n.Child, childReq)
		return n
	case *LimitNode:
		n.Child = pruneColumns(n.Child, required)
		return n
	case *UnionNode:
		// Union children share column names positionally (the builder
		// renames them), so the same requirement applies to each input.
		for i, c := range n.Inputs {
			n.Inputs[i] = pruneColumns(c, required)
		}
		return n
	}
	return p
}

func bareName(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return name[i+1:]
	}
	return name
}

// union merges two column lists; a nil first argument means "everything"
// and stays nil only when both are nil.
func union(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
