package plan

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// Fingerprint normalizes an optimized logical plan to its statement shape —
// the plan rendered with every literal masked to '?' and IN lists collapsed
// — and hashes it. Queries that differ only in their constants share a
// fingerprint, which is what lets the ops plane aggregate per-statement
// stats without retaining query text; the plan cache hands a template's
// fingerprint to every query it serves. The fingerprint is the FNV-1a
// hash of the shape as 16 hex digits.
func Fingerprint(p LogicalPlan) (fp, shape string) {
	shape = Shape(p)
	h := fnv.New64a()
	h.Write([]byte(shape))
	return fmt.Sprintf("%016x", h.Sum64()), shape
}

// Shape renders the plan one-line with literals masked: each node as
// Name[detail], children parenthesized, e.g.
// "Project[v AS v](Filter[(k > ?)](Scan[t cols=[k,v]]))".
func Shape(p LogicalPlan) string {
	head := nodeShape(p)
	kids := p.Children()
	if len(kids) == 0 {
		return head
	}
	parts := make([]string, len(kids))
	for i, c := range kids {
		parts[i] = Shape(c)
	}
	return head + "(" + strings.Join(parts, ",") + ")"
}

// nodeShape mirrors each node's String() with expressions normalized and
// non-structural constants (limit counts) masked.
func nodeShape(p LogicalPlan) string {
	switch n := p.(type) {
	case *ScanNode:
		var b strings.Builder
		fmt.Fprintf(&b, "Scan[%s", n.Relation.Name())
		if n.Alias != "" {
			fmt.Fprintf(&b, " AS %s", n.Alias)
		}
		if n.Projection != nil {
			fmt.Fprintf(&b, " cols=[%s]", strings.Join(n.Projection, ","))
		}
		if len(n.Pushed) > 0 {
			parts := make([]string, len(n.Pushed))
			for i, e := range n.Pushed {
				parts[i] = exprShape(e)
			}
			fmt.Fprintf(&b, " pushed=[%s]", strings.Join(parts, " AND "))
		}
		b.WriteByte(']')
		return b.String()
	case *FilterNode:
		return "Filter[" + exprShape(n.Cond) + "]"
	case *ProjectNode:
		parts := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			// A default name is the expression's own rendering, literals
			// included; mask it like the expression.
			shape, name := exprShape(ne.Expr), ne.Name
			if name == ne.Expr.String() {
				name = shape
			}
			parts[i] = shape + " AS " + name
		}
		return "Project[" + strings.Join(parts, ", ") + "]"
	case *JoinNode:
		parts := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			parts[i] = exprShape(n.LeftKeys[i]) + " = " + exprShape(n.RightKeys[i])
		}
		return fmt.Sprintf("Join[%s %s]", n.Type, strings.Join(parts, " AND "))
	case *AggregateNode:
		groups := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			groups[i] = exprShape(g.Expr)
		}
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			arg := "*"
			if a.Arg != nil {
				arg = exprShape(a.Arg)
			}
			aggs[i] = fmt.Sprintf("%s(%s)", a.Kind, arg)
		}
		return fmt.Sprintf("Aggregate[group=[%s] aggs=[%s]]",
			strings.Join(groups, ","), strings.Join(aggs, ", "))
	case *UnionNode:
		return "Union"
	case *SortNode:
		parts := make([]string, len(n.Orders))
		for i, o := range n.Orders {
			dir := " ASC"
			if o.Desc {
				dir = " DESC"
			}
			parts[i] = exprShape(o.Expr) + dir
		}
		return "Sort[" + strings.Join(parts, ", ") + "]"
	case *LimitNode:
		return "Limit[?]"
	default:
		return p.String()
	}
}

// exprShape renders an expression with every literal masked to '?'. An IN
// list of literals collapses to a single '?' regardless of length, so
// "k IN (1,2)" and "k IN (1,2,3)" share a shape the way pg_stat_statements
// normalizes them.
func exprShape(e Expr) string { return mapExpr(e, mask).String() }

// masked stands for a literal in a shape: a column reference renders as
// its bare name.
var masked = &ColumnRef{Name: "?"}

// mask replaces a literal with masked, an IN list of literals (masked by
// then, the walk being bottom-up) with one masked, and a LIKE pattern with
// '?'.
func mask(e Expr) Expr {
	switch x := e.(type) {
	case *Literal:
		return masked
	case *In:
		for _, v := range x.Values {
			if v != masked {
				return e
			}
		}
		return &In{E: x.E, Values: []Expr{masked}, Negate: x.Negate}
	case *Like:
		return &ColumnRef{Name: "(" + x.E.String() + " LIKE ?)"}
	}
	return e
}
