package exec

import (
	"fmt"
	"strings"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// CompileConfig selects physical strategies.
type CompileConfig struct {
	// SortMergeJoin compiles equi-joins to sort-merge instead of hash
	// (Spark's default for large inputs).
	SortMergeJoin bool
	// DisablePipelining keeps the Volcano-style materialized operators
	// instead of fusing scan→filter→project→limit chains into streaming
	// pipelines (ablation switch, and the baseline side of the
	// streaming-vs-materialized benchmark).
	DisablePipelining bool
	// DisableVectorization keeps fused pipelines on the row-at-a-time
	// interpreter instead of the columnar batch path (ablation switch, and
	// the row side of the vector-vs-row benchmark).
	DisableVectorization bool
}

// CompileWith lowers an optimized logical plan to a physical one, resolving
// every expression against its input schema, translating pushed predicates
// to source filters, and re-applying exactly the filters each relation's
// BuildScan reports unhandled (paper §VI-A.3). Unless disabled, scan-rooted
// operator chains are then fused into streaming pipelines.
func CompileWith(p plan.LogicalPlan, cfg CompileConfig) (PhysicalPlan, error) {
	phys, _, err := compile(p, cfg)
	return phys, err
}

// compiler lowers one plan, recording every scan it builds.
type compiler struct {
	cfg   CompileConfig
	scans []*preparedScan
}

// compile is CompileWith that also returns the plan's scans.
func compile(p plan.LogicalPlan, cfg CompileConfig) (PhysicalPlan, []*preparedScan, error) {
	c := &compiler{cfg: cfg}
	phys, err := c.node(p)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.DisablePipelining {
		phys = FusePipelinesWith(phys, !cfg.DisableVectorization)
	}
	return phys, c.scans, nil
}

func (c *compiler) node(p plan.LogicalPlan) (PhysicalPlan, error) {
	switch n := p.(type) {
	case *plan.ScanNode:
		return c.scan(n)
	case *plan.FilterNode:
		child, err := c.node(n.Child)
		if err != nil {
			return nil, err
		}
		cond := plan.CloneExpr(n.Cond)
		if err := plan.Resolve(cond, child.Schema()); err != nil {
			return nil, err
		}
		return &FilterExec{Cond: cond, Child: child}, nil
	case *plan.ProjectNode:
		child, err := c.node(n.Child)
		if err != nil {
			return nil, err
		}
		exprs := make([]plan.NamedExpr, len(n.Exprs))
		schema := make(plan.Schema, len(n.Exprs))
		for i, ne := range n.Exprs {
			e := plan.CloneExpr(ne.Expr)
			if err := plan.Resolve(e, child.Schema()); err != nil {
				return nil, err
			}
			exprs[i] = plan.NamedExpr{Expr: e, Name: ne.Name}
			schema[i] = plan.Field{Name: ne.Name, Type: e.Type()}
		}
		return &ProjectExec{Exprs: exprs, OutSchema: schema, Child: child}, nil
	case *plan.JoinNode:
		left, err := c.node(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.node(n.Right)
		if err != nil {
			return nil, err
		}
		lk, err := resolveAll(n.LeftKeys, left.Schema())
		if err != nil {
			return nil, err
		}
		rk, err := resolveAll(n.RightKeys, right.Schema())
		if err != nil {
			return nil, err
		}
		out := append(append(plan.Schema{}, left.Schema()...), right.Schema()...)
		if c.cfg.SortMergeJoin {
			return &SortMergeJoinExec{Left: left, Right: right, LeftKeys: lk, RightKeys: rk, Type: n.Type, OutSchema: out}, nil
		}
		return &HashJoinExec{Left: left, Right: right, LeftKeys: lk, RightKeys: rk, Type: n.Type, OutSchema: out}, nil
	case *plan.AggregateNode:
		child, err := c.node(n.Child)
		if err != nil {
			return nil, err
		}
		groups := make([]plan.NamedExpr, len(n.GroupBy))
		schema := make(plan.Schema, 0, len(n.GroupBy)+len(n.Aggs))
		for i, g := range n.GroupBy {
			e := plan.CloneExpr(g.Expr)
			if err := plan.Resolve(e, child.Schema()); err != nil {
				return nil, err
			}
			groups[i] = plan.NamedExpr{Expr: e, Name: g.Name}
			schema = append(schema, plan.Field{Name: g.Name, Type: e.Type()})
		}
		aggs := make([]plan.AggExpr, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				arg := plan.CloneExpr(a.Arg)
				if err := plan.Resolve(arg, child.Schema()); err != nil {
					return nil, err
				}
				aggs[i].Arg = arg
			}
			schema = append(schema, plan.Field{Name: a.Name, Type: aggs[i].Type()})
		}
		return &HashAggExec{GroupBy: groups, Aggs: aggs, OutSchema: schema, Child: child}, nil
	case *plan.SortNode:
		child, err := c.node(n.Child)
		if err != nil {
			return nil, err
		}
		orders := make([]plan.SortOrder, len(n.Orders))
		for i, o := range n.Orders {
			e := plan.CloneExpr(o.Expr)
			if err := plan.Resolve(e, child.Schema()); err != nil {
				return nil, err
			}
			orders[i] = plan.SortOrder{Expr: e, Desc: o.Desc}
		}
		return &SortExec{Orders: orders, Child: child}, nil
	case *plan.LimitNode:
		child, err := c.node(n.Child)
		if err != nil {
			return nil, err
		}
		return &LimitExec{N: n.N, Child: child}, nil
	case *plan.UnionNode:
		inputs := make([]PhysicalPlan, len(n.Inputs))
		for i, child := range n.Inputs {
			in, err := c.node(child)
			if err != nil {
				return nil, err
			}
			inputs[i] = in
		}
		for i := 1; i < len(inputs); i++ {
			if len(inputs[i].Schema()) != len(inputs[0].Schema()) {
				return nil, fmt.Errorf("exec: union input %d has %d columns, want %d",
					i, len(inputs[i].Schema()), len(inputs[0].Schema()))
			}
		}
		return &UnionExec{Inputs: inputs}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T", p)
}

func resolveAll(es []plan.Expr, schema plan.Schema) ([]plan.Expr, error) {
	out := make([]plan.Expr, len(es))
	for i, e := range es {
		c := plan.CloneExpr(e)
		if err := plan.Resolve(c, schema); err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (c *compiler) scan(n *plan.ScanNode) (PhysicalPlan, error) {
	rel, ok := n.Relation.(datasource.PrunedFilteredScan)
	if !ok {
		return nil, fmt.Errorf("exec: relation %q does not support scanning", n.Relation.Name())
	}
	outSchema := n.Schema()
	// Required columns are passed to the source by its own (bare) names.
	required := make([]string, len(outSchema))
	for i, f := range outSchema {
		required[i] = bare(f.Name)
	}
	// Translate pushed predicates to source filters.
	srcSchema := rel.Schema()
	var filters []datasource.Filter
	var pushedExprs []plan.Expr
	var engineOnly []plan.Expr
	for _, e := range n.Pushed {
		f, ok := translateFilter(e, srcSchema, nil)
		if !ok {
			engineOnly = append(engineOnly, e)
			continue
		}
		filters = append(filters, f)
		pushedExprs = append(pushedExprs, e)
	}
	// The scan is prepared with every slotted filter marked, so a prepared
	// plan's executions only bind the values (Prepared.Bind).
	slotted := make([]bool, len(pushedExprs))
	for i, e := range pushedExprs {
		slotted[i] = plan.ExprSlotRefs(e) > 0
	}
	prep, err := datasource.PrepareScan(rel, required, filters, slotted)
	if err != nil {
		return nil, err
	}
	parts, unhandled, err := prep.BindScan(filters)
	if err != nil {
		return nil, err
	}
	scan := &ScanExec{
		Source:     rel,
		Columns:    required,
		Filters:    filters,
		OutSchema:  outSchema,
		Partitions: parts,
	}
	c.scans = append(c.scans, &preparedScan{scan: scan, pushed: pushedExprs, unhandled: unhandled, slotted: slotted, prep: prep})
	// Re-apply exactly the filters the source left unhandled, plus any
	// predicate that had no source translation.
	reapply := append([]plan.Expr{}, engineOnly...)
	for _, i := range unhandled {
		reapply = append(reapply, pushedExprs[i])
	}
	if cond := plan.CombineConjuncts(reapply); cond != nil {
		residual := plan.CloneExpr(cond)
		if err := plan.Resolve(residual, outSchema); err != nil {
			return nil, err
		}
		return &FilterExec{Cond: residual, Child: scan}, nil
	}
	return scan, nil
}

func bare(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return name[i+1:]
	}
	return name
}

// translateFilter maps a pushable predicate to the data-source filter
// language, each literal taking its Bound value under vals and coerced to
// the source column's type. Column names are stripped of their alias
// qualifier.
func translateFilter(e plan.Expr, srcSchema plan.Schema, vals []any) (datasource.Filter, bool) {
	switch x := e.(type) {
	case *plan.Comparison:
		col, lit, flipped := columnAndLiteral(x.L, x.R, vals)
		if col == "" {
			return nil, false
		}
		v, ok := coerceTo(srcSchema, col, lit)
		if !ok {
			return nil, false
		}
		op := x.Op
		if flipped {
			op = flipOp(op)
		}
		switch op {
		case plan.OpEq:
			return datasource.EqualTo{Column: col, Value: v}, true
		case plan.OpNe:
			return datasource.NotEqual{Column: col, Value: v}, true
		case plan.OpLt:
			return datasource.LessThan{Column: col, Value: v}, true
		case plan.OpLe:
			return datasource.LessThanOrEqual{Column: col, Value: v}, true
		case plan.OpGt:
			return datasource.GreaterThan{Column: col, Value: v}, true
		case plan.OpGe:
			return datasource.GreaterThanOrEqual{Column: col, Value: v}, true
		}
		return nil, false
	case *plan.In:
		c, ok := x.E.(*plan.ColumnRef)
		if !ok {
			return nil, false
		}
		col := bare(c.Name)
		set := make([]any, 0, len(x.Values))
		for _, ve := range x.Values {
			lit, ok := ve.(*plan.Literal)
			if !ok {
				return nil, false
			}
			v, ok := coerceTo(srcSchema, col, lit.Bound(vals))
			if !ok {
				return nil, false
			}
			set = append(set, v)
		}
		if x.Negate {
			return datasource.NotIn{Column: col, Values: set}, true
		}
		return datasource.In{Column: col, Values: set}, true
	case *plan.Like:
		c, ok := x.E.(*plan.ColumnRef)
		if !ok {
			return nil, false
		}
		i := strings.IndexAny(x.Pattern, "%_")
		if i < 0 || i != len(x.Pattern)-1 || x.Pattern[i] != '%' {
			return nil, false
		}
		return datasource.StringStartsWith{Column: bare(c.Name), Prefix: x.Pattern[:i]}, true
	case *plan.And:
		l, ok := translateFilter(x.L, srcSchema, vals)
		if !ok {
			return nil, false
		}
		r, ok := translateFilter(x.R, srcSchema, vals)
		if !ok {
			return nil, false
		}
		return datasource.AndFilter{Left: l, Right: r}, true
	case *plan.Or:
		l, ok := translateFilter(x.L, srcSchema, vals)
		if !ok {
			return nil, false
		}
		r, ok := translateFilter(x.R, srcSchema, vals)
		if !ok {
			return nil, false
		}
		return datasource.OrFilter{Left: l, Right: r}, true
	}
	return nil, false
}

func columnAndLiteral(l, r plan.Expr, vals []any) (col string, val any, flipped bool) {
	if c, ok := l.(*plan.ColumnRef); ok {
		if lit, ok := r.(*plan.Literal); ok {
			return bare(c.Name), lit.Bound(vals), false
		}
	}
	if c, ok := r.(*plan.ColumnRef); ok {
		if lit, ok := l.(*plan.Literal); ok {
			return bare(c.Name), lit.Bound(vals), true
		}
	}
	return "", nil, false
}

func flipOp(op plan.CmpOp) plan.CmpOp {
	switch op {
	case plan.OpLt:
		return plan.OpGt
	case plan.OpLe:
		return plan.OpGe
	case plan.OpGt:
		return plan.OpLt
	case plan.OpGe:
		return plan.OpLe
	}
	return op
}

func coerceTo(schema plan.Schema, col string, v any) (any, bool) {
	f, err := schema.Field(col)
	if err != nil {
		return nil, false
	}
	out, err := plan.CoerceLiteral(v, f.Type)
	if err != nil {
		return nil, false
	}
	return out, true
}
