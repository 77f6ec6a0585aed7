package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// Relation is the minimal view the planner needs of a data source; the
// datasource package's Relation satisfies it. Keeping the dependency in
// this direction lets the optimizer stay source-agnostic.
type Relation interface {
	Name() string
	Schema() Schema
}

// LogicalPlan is a node in the logical operator tree.
type LogicalPlan interface {
	// Schema describes the node's output columns.
	Schema() Schema
	// Children returns the node's inputs.
	Children() []LogicalPlan
	// String renders one line for plan dumps.
	String() string
}

// ScanNode reads a relation. The optimizer fills Projection (column
// pruning) and Pushed (filter pushdown); predicates that could not be
// pushed remain in FilterNodes above the scan.
type ScanNode struct {
	Relation Relation
	// Alias qualifies output columns ("alias.col"); empty for bare names.
	Alias string
	// Projection lists the columns the scan must produce, in output
	// order; nil means every column.
	Projection []string
	// Pushed holds predicates the optimizer pushed into the source.
	Pushed []Expr

	// schemas memoizes Schema; see scanSchemas.
	schemas atomic.Pointer[scanSchemas]
}

// scanSchemas is a scan's schemas as computed from one relation schema,
// alias and projection.
type scanSchemas struct {
	rel   Schema
	alias string
	proj  []string
	base  Schema // rel qualified by alias
	out   Schema // base projected
}

// fits reports whether m was computed from exactly these inputs: the same
// relation schema slice, alias and projection (nil, meaning every column,
// is not the empty projection).
func (m *scanSchemas) fits(rel Schema, alias string, proj []string) bool {
	return len(m.rel) == len(rel) && (len(rel) == 0 || &m.rel[0] == &rel[0]) &&
		m.alias == alias && (m.proj == nil) == (proj == nil) && slices.Equal(m.proj, proj)
}

// memo returns the scan's schemas for its current relation, Alias and
// Projection. The optimizer rewrites Projection in place, so the memo is
// keyed on all three and recomputed when any changed; it is stored
// atomically because plans are read from several goroutines.
func (s *ScanNode) memo() *scanSchemas {
	rel := s.Relation.Schema()
	if m := s.schemas.Load(); m != nil && m.fits(rel, s.Alias, s.Projection) {
		return m
	}
	m := &scanSchemas{rel: rel, alias: s.Alias, proj: slices.Clone(s.Projection), base: rel}
	if s.Alias != "" {
		m.base = rel.Qualify(s.Alias)
	}
	m.out = m.base
	if s.Projection != nil {
		// Projection was validated when set; on error keep the full schema.
		if out, err := m.base.Project(s.Projection); err == nil {
			m.out = out
		}
	}
	s.schemas.Store(m)
	return m
}

// Schema implements LogicalPlan. The result is shared: callers must not
// modify it.
func (s *ScanNode) Schema() Schema { return s.memo().out }

// qualified is the relation's whole schema under the scan's alias.
func (s *ScanNode) qualified() Schema { return s.memo().base }

// Children implements LogicalPlan.
func (s *ScanNode) Children() []LogicalPlan { return nil }

// String implements LogicalPlan.
func (s *ScanNode) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s", s.Relation.Name())
	if s.Alias != "" {
		fmt.Fprintf(&b, " AS %s", s.Alias)
	}
	if s.Projection != nil {
		fmt.Fprintf(&b, " cols=[%s]", strings.Join(s.Projection, ","))
	}
	if len(s.Pushed) > 0 {
		parts := make([]string, len(s.Pushed))
		for i, e := range s.Pushed {
			parts[i] = e.String()
		}
		fmt.Fprintf(&b, " pushed=[%s]", strings.Join(parts, " AND "))
	}
	return b.String()
}

// FilterNode keeps rows satisfying Cond.
type FilterNode struct {
	Cond  Expr
	Child LogicalPlan
}

// Schema implements LogicalPlan.
func (f *FilterNode) Schema() Schema { return f.Child.Schema() }

// Children implements LogicalPlan.
func (f *FilterNode) Children() []LogicalPlan { return []LogicalPlan{f.Child} }

// String implements LogicalPlan.
func (f *FilterNode) String() string { return fmt.Sprintf("Filter %s", f.Cond) }

// NamedExpr pairs a projection expression with its output name.
type NamedExpr struct {
	Expr Expr
	Name string
}

// ProjectNode computes output columns.
type ProjectNode struct {
	Exprs []NamedExpr
	Child LogicalPlan
}

// Schema implements LogicalPlan.
func (p *ProjectNode) Schema() Schema {
	out := make(Schema, len(p.Exprs))
	for i, ne := range p.Exprs {
		out[i] = Field{Name: ne.Name, Type: ne.Expr.Type()}
	}
	return out
}

// Children implements LogicalPlan.
func (p *ProjectNode) Children() []LogicalPlan { return []LogicalPlan{p.Child} }

// String implements LogicalPlan.
func (p *ProjectNode) String() string {
	parts := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		parts[i] = fmt.Sprintf("%s AS %s", ne.Expr, ne.Name)
	}
	return "Project " + strings.Join(parts, ", ")
}

// JoinType selects inner or left-outer semantics.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
)

// String renders the join type.
func (t JoinType) String() string {
	if t == LeftOuterJoin {
		return "LeftOuter"
	}
	return "Inner"
}

// JoinNode is an equi-join on LeftKeys[i] = RightKeys[i].
type JoinNode struct {
	Left, Right LogicalPlan
	LeftKeys    []Expr
	RightKeys   []Expr
	Type        JoinType
}

// Schema implements LogicalPlan.
func (j *JoinNode) Schema() Schema {
	return append(append(Schema{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Children implements LogicalPlan.
func (j *JoinNode) Children() []LogicalPlan { return []LogicalPlan{j.Left, j.Right} }

// String implements LogicalPlan.
func (j *JoinNode) String() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	return fmt.Sprintf("Join[%s] %s", j.Type, strings.Join(parts, " AND "))
}

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate functions.
const (
	AggCount AggKind = iota
	AggCountDistinct
	AggSum
	AggMin
	AggMax
	AggAvg
	AggStddevSamp
)

// String renders the function name.
func (k AggKind) String() string {
	return [...]string{"count", "count_distinct", "sum", "min", "max", "avg", "stddev_samp"}[k]
}

// AggExpr is one aggregate output: Kind over Arg (nil Arg = COUNT(*)).
type AggExpr struct {
	Kind AggKind
	Arg  Expr
	Name string
}

// Type reports the aggregate's result type.
func (a AggExpr) Type() DataType {
	switch a.Kind {
	case AggCount, AggCountDistinct:
		return TypeInt64
	case AggMin, AggMax:
		if a.Arg != nil {
			return a.Arg.Type()
		}
		return TypeUnknown
	default:
		return TypeFloat64
	}
}

// String renders the aggregate.
func (a AggExpr) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Kind, arg, a.Name)
}

// AggregateNode groups by GroupBy and computes Aggs. Output columns are the
// group expressions followed by the aggregates.
type AggregateNode struct {
	GroupBy []NamedExpr
	Aggs    []AggExpr
	Child   LogicalPlan
}

// Schema implements LogicalPlan.
func (a *AggregateNode) Schema() Schema {
	out := make(Schema, 0, len(a.GroupBy)+len(a.Aggs))
	for _, g := range a.GroupBy {
		out = append(out, Field{Name: g.Name, Type: g.Expr.Type()})
	}
	for _, agg := range a.Aggs {
		out = append(out, Field{Name: agg.Name, Type: agg.Type()})
	}
	return out
}

// Children implements LogicalPlan.
func (a *AggregateNode) Children() []LogicalPlan { return []LogicalPlan{a.Child} }

// String implements LogicalPlan.
func (a *AggregateNode) String() string {
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.Name
	}
	aggs := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		aggs[i] = g.String()
	}
	return fmt.Sprintf("Aggregate group=[%s] aggs=[%s]", strings.Join(groups, ","), strings.Join(aggs, ", "))
}

// UnionNode concatenates the rows of its children (UNION ALL). Children
// must share the first child's schema layout; the SQL builder renames
// columns positionally to guarantee it.
type UnionNode struct {
	Inputs []LogicalPlan
}

// Schema implements LogicalPlan.
func (u *UnionNode) Schema() Schema { return u.Inputs[0].Schema() }

// Children implements LogicalPlan.
func (u *UnionNode) Children() []LogicalPlan { return u.Inputs }

// String implements LogicalPlan.
func (u *UnionNode) String() string { return fmt.Sprintf("Union (%d inputs)", len(u.Inputs)) }

// SortOrder is one ORDER BY key.
type SortOrder struct {
	Expr Expr
	Desc bool
}

// SortNode orders rows.
type SortNode struct {
	Orders []SortOrder
	Child  LogicalPlan
}

// Schema implements LogicalPlan.
func (s *SortNode) Schema() Schema { return s.Child.Schema() }

// Children implements LogicalPlan.
func (s *SortNode) Children() []LogicalPlan { return []LogicalPlan{s.Child} }

// String implements LogicalPlan.
func (s *SortNode) String() string {
	parts := make([]string, len(s.Orders))
	for i, o := range s.Orders {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		parts[i] = o.Expr.String() + " " + dir
	}
	return "Sort " + strings.Join(parts, ", ")
}

// LimitNode keeps the first N rows.
type LimitNode struct {
	N     int
	Child LogicalPlan
}

// Schema implements LogicalPlan.
func (l *LimitNode) Schema() Schema { return l.Child.Schema() }

// Children implements LogicalPlan.
func (l *LimitNode) Children() []LogicalPlan { return []LogicalPlan{l.Child} }

// String implements LogicalPlan.
func (l *LimitNode) String() string { return fmt.Sprintf("Limit %d", l.N) }

// Format renders the plan tree indented, one node per line.
func Format(p LogicalPlan) string {
	var b strings.Builder
	var walk func(LogicalPlan, int)
	walk = func(n LogicalPlan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.String())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
