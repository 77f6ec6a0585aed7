package sql

import (
	"fmt"
	"strings"

	"github.com/shc-go/shc/internal/plan"
)

// Resolver maps a table name to the logical plan producing it: a ScanNode
// for base tables, or an arbitrary plan for registered temporary views
// (createOrReplaceTempView in the paper's Code 4).
type Resolver func(table string) (plan.LogicalPlan, error)

// Build parses and lowers a query to an unoptimized logical plan.
func Build(query string, resolve Resolver) (plan.LogicalPlan, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return buildSelect(stmt, resolve)
}

func buildSelect(stmt *SelectStmt, resolve Resolver) (plan.LogicalPlan, error) {
	if len(stmt.Unions) > 0 {
		return buildUnion(stmt, resolve)
	}
	current, err := buildTableRef(stmt.From, resolve)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		right, err := buildTableRef(j.Table, resolve)
		if err != nil {
			return nil, err
		}
		current, err = buildJoin(current, right, j.On, j.Type)
		if err != nil {
			return nil, err
		}
	}
	if stmt.Where != nil {
		if err := rejectAggregates(stmt.Where, "WHERE"); err != nil {
			return nil, err
		}
		current = &plan.FilterNode{Cond: stmt.Where, Child: current}
	}

	// Aggregation handling: any aggregate call or GROUP BY clause routes
	// the plan through an AggregateNode, with aggregate calls rewritten to
	// references of its outputs.
	aggs := collectAggregates(stmt)
	if len(stmt.GroupBy) > 0 || len(aggs) > 0 {
		unslotAggregateClauses(stmt)
		if stmt.Distinct {
			return nil, fmt.Errorf("sql: SELECT DISTINCT cannot be combined with aggregates or GROUP BY")
		}
		return buildAggregate(stmt, current, aggs)
	}

	proj, err := buildProjection(stmt.Items, current)
	if err != nil {
		return nil, err
	}
	out := proj
	if stmt.Distinct {
		// SELECT DISTINCT = group by every output column, no aggregates.
		groups := make([]plan.NamedExpr, len(proj.Schema()))
		for i, f := range proj.Schema() {
			groups[i] = plan.NamedExpr{Expr: plan.Col(f.Name), Name: f.Name}
		}
		out = &plan.AggregateNode{GroupBy: groups, Child: out}
		// Sorting must happen above the dedup (it reorders rows).
		if len(stmt.OrderBy) > 0 {
			orders := make([]plan.SortOrder, len(stmt.OrderBy))
			for i, o := range stmt.OrderBy {
				orders[i] = plan.SortOrder{Expr: o.Expr, Desc: o.Desc}
			}
			out = &plan.SortNode{Orders: orders, Child: out}
		}
	} else if len(stmt.OrderBy) > 0 {
		out = placeSort(stmt.OrderBy, proj, current)
	}
	if stmt.Limit >= 0 {
		out = &plan.LimitNode{N: stmt.Limit, Child: out}
	}
	return out, nil
}

// buildUnion combines the head SELECT with its UNION members: widths must
// agree, columns are matched positionally (renamed to the head's names),
// any non-ALL member deduplicates the whole result, and lifted ORDER BY /
// LIMIT apply last.
func buildUnion(stmt *SelectStmt, resolve Resolver) (plan.LogicalPlan, error) {
	head := *stmt
	head.Unions, head.UnionOrderBy, head.UnionLimit = nil, nil, -1
	base, err := buildSelect(&head, resolve)
	if err != nil {
		return nil, err
	}
	baseSchema := base.Schema()
	inputs := []plan.LogicalPlan{base}
	allAll := true
	for i, u := range stmt.Unions {
		child, err := buildSelect(u.Stmt, resolve)
		if err != nil {
			return nil, err
		}
		if len(child.Schema()) != len(baseSchema) {
			return nil, fmt.Errorf("sql: union member %d has %d columns, want %d",
				i+1, len(child.Schema()), len(baseSchema))
		}
		inputs = append(inputs, renameTo(child, baseSchema))
		if !u.All {
			allAll = false
		}
	}
	var out plan.LogicalPlan = &plan.UnionNode{Inputs: inputs}
	if !allAll {
		groups := make([]plan.NamedExpr, len(baseSchema))
		for i, f := range baseSchema {
			groups[i] = plan.NamedExpr{Expr: plan.Col(f.Name), Name: f.Name}
		}
		out = &plan.AggregateNode{GroupBy: groups, Child: out}
	}
	if len(stmt.UnionOrderBy) > 0 {
		orders := make([]plan.SortOrder, len(stmt.UnionOrderBy))
		for i, o := range stmt.UnionOrderBy {
			orders[i] = plan.SortOrder{Expr: o.Expr, Desc: o.Desc}
		}
		out = &plan.SortNode{Orders: orders, Child: out}
	}
	if stmt.UnionLimit >= 0 {
		out = &plan.LimitNode{N: stmt.UnionLimit, Child: out}
	}
	return out, nil
}

// renameTo projects child onto target's column names, positionally.
func renameTo(child plan.LogicalPlan, target plan.Schema) plan.LogicalPlan {
	cs := child.Schema()
	same := true
	exprs := make([]plan.NamedExpr, len(cs))
	for i := range cs {
		exprs[i] = plan.NamedExpr{Expr: plan.Col(cs[i].Name), Name: target[i].Name}
		if cs[i].Name != target[i].Name {
			same = false
		}
	}
	if same {
		return child
	}
	return &plan.ProjectNode{Exprs: exprs, Child: child}
}

func buildTableRef(tr TableRef, resolve Resolver) (plan.LogicalPlan, error) {
	if tr.Sub != nil {
		child, err := buildSelect(tr.Sub, resolve)
		if err != nil {
			return nil, err
		}
		return aliasPlan(child, tr.Alias), nil
	}
	base, err := resolve(tr.Name)
	if err != nil {
		return nil, err
	}
	if scan, ok := base.(*plan.ScanNode); ok && scan.Alias == "" {
		// Qualify scan output so both col and alias.col references work.
		return &plan.ScanNode{Relation: scan.Relation, Alias: tr.Alias}, nil
	}
	return aliasPlan(base, tr.Alias), nil
}

// aliasPlan renames a derived table's output columns to alias.col.
func aliasPlan(child plan.LogicalPlan, alias string) plan.LogicalPlan {
	schema := child.Schema()
	exprs := make([]plan.NamedExpr, len(schema))
	for i, f := range schema {
		name := f.Name
		if idx := strings.LastIndex(name, "."); idx >= 0 {
			name = name[idx+1:]
		}
		exprs[i] = plan.NamedExpr{Expr: plan.Col(f.Name), Name: alias + "." + name}
	}
	return &plan.ProjectNode{Exprs: exprs, Child: child}
}

// buildJoin splits the ON condition into equi-join keys and residual
// predicates.
func buildJoin(left, right plan.LogicalPlan, on plan.Expr, jt plan.JoinType) (plan.LogicalPlan, error) {
	ls, rs := left.Schema(), right.Schema()
	var leftKeys, rightKeys []plan.Expr
	var residual []plan.Expr
	for _, c := range plan.SplitConjuncts(on) {
		cmp, ok := c.(*plan.Comparison)
		if ok && cmp.Op == plan.OpEq {
			lc, lok := cmp.L.(*plan.ColumnRef)
			rc, rok := cmp.R.(*plan.ColumnRef)
			if lok && rok {
				switch {
				case ls.IndexOf(lc.Name) >= 0 && rs.IndexOf(rc.Name) >= 0:
					leftKeys = append(leftKeys, lc)
					rightKeys = append(rightKeys, rc)
					continue
				case rs.IndexOf(lc.Name) >= 0 && ls.IndexOf(rc.Name) >= 0:
					leftKeys = append(leftKeys, rc)
					rightKeys = append(rightKeys, lc)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("sql: join needs at least one equality between the two tables, got %s", on)
	}
	if jt == plan.LeftOuterJoin && len(residual) > 0 {
		// A residual ON predicate of an outer join is part of the match
		// condition, not a post-filter; supporting it needs a different
		// physical join. Reject rather than silently change semantics.
		return nil, fmt.Errorf("sql: LEFT JOIN supports only equality conditions in ON, got %s", residual[0])
	}
	var out plan.LogicalPlan = &plan.JoinNode{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys, Type: jt}
	if rem := plan.CombineConjuncts(residual); rem != nil {
		out = &plan.FilterNode{Cond: rem, Child: out}
	}
	return out, nil
}

var aggFuncs = map[string]plan.AggKind{
	"count":       plan.AggCount,
	"sum":         plan.AggSum,
	"min":         plan.AggMin,
	"max":         plan.AggMax,
	"avg":         plan.AggAvg,
	"mean":        plan.AggAvg,
	"stddev_samp": plan.AggStddevSamp,
	"stdev":       plan.AggStddevSamp,
	"stddev":      plan.AggStddevSamp,
}

// collectAggregates gathers every aggregate call in the statement's output
// clauses, deduplicated by rendering.
func collectAggregates(stmt *SelectStmt) []*FuncCall {
	var out []*FuncCall
	seen := make(map[string]bool)
	add := func(e plan.Expr) {
		walkExpr(e, func(x plan.Expr) {
			if f, ok := x.(*FuncCall); ok {
				if _, isAgg := aggFuncs[f.Name]; isAgg && !seen[f.String()] {
					seen[f.String()] = true
					out = append(out, f)
				}
			}
		})
	}
	for _, item := range stmt.Items {
		if item.Expr != nil {
			add(item.Expr)
		}
	}
	if stmt.Having != nil {
		add(stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		add(o.Expr)
	}
	return out
}

// unslotAggregateClauses clears the slot of every literal an aggregate
// statement matches against its groups and aggregates by rendered text
// (collectAggregates, rewriteAggRefs): those inside GROUP BY expressions
// and aggregate-call arguments. There a literal's value can decide the
// plan's structure — whether a select item reuses a group, whether two
// aggregate calls are one — so no prepared-plan template may rebind it; a
// missing slot keeps the query uncached. A literal anywhere else (a HAVING
// threshold, a CASE branch over aggregates) keeps its slot: a cached
// query's groups and aggregate calls then hold no literal, so no rendering
// that holds one can match them, whatever its value.
func unslotAggregateClauses(stmt *SelectStmt) {
	unslot := func(e plan.Expr) {
		walkExpr(e, func(x plan.Expr) {
			if l, ok := x.(*plan.Literal); ok {
				l.Slot = 0
			}
		})
	}
	unslotAggArgs := func(e plan.Expr) {
		walkExpr(e, func(x plan.Expr) {
			if f, ok := x.(*FuncCall); ok {
				if _, isAgg := aggFuncs[f.Name]; isAgg {
					for _, arg := range f.Args {
						unslot(arg)
					}
				}
			}
		})
	}
	for _, item := range stmt.Items {
		if item.Expr != nil {
			unslotAggArgs(item.Expr)
		}
	}
	for _, g := range stmt.GroupBy {
		unslot(g)
	}
	if stmt.Having != nil {
		unslotAggArgs(stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		unslotAggArgs(o.Expr)
	}
}

func walkExpr(e plan.Expr, fn func(plan.Expr)) {
	fn(e)
	for _, c := range e.Children() {
		walkExpr(c, fn)
	}
}

func rejectAggregates(e plan.Expr, clause string) error {
	var err error
	walkExpr(e, func(x plan.Expr) {
		if f, ok := x.(*FuncCall); ok {
			if _, isAgg := aggFuncs[f.Name]; isAgg && err == nil {
				err = fmt.Errorf("sql: aggregate %s not allowed in %s", f, clause)
			}
		}
	})
	return err
}

func buildAggregate(stmt *SelectStmt, child plan.LogicalPlan, aggCalls []*FuncCall) (plan.LogicalPlan, error) {
	// Group outputs: a bare column keeps its name; other expressions get a
	// synthetic name and are referenced by rendering.
	groups := make([]plan.NamedExpr, len(stmt.GroupBy))
	groupName := make(map[string]string) // expr rendering -> output name
	for i, g := range stmt.GroupBy {
		name := fmt.Sprintf("__grp%d", i)
		if c, ok := g.(*plan.ColumnRef); ok {
			name = c.Name
		}
		groups[i] = plan.NamedExpr{Expr: g, Name: name}
		groupName[g.String()] = name
	}
	// Aggregate outputs.
	aggs := make([]plan.AggExpr, len(aggCalls))
	aggName := make(map[string]string)
	for i, f := range aggCalls {
		kind := aggFuncs[f.Name]
		name := fmt.Sprintf("__agg%d", i)
		ae := plan.AggExpr{Kind: kind, Name: name}
		switch {
		case f.Star:
			if kind != plan.AggCount {
				return nil, fmt.Errorf("sql: %s(*) is not valid", f.Name)
			}
		case len(f.Args) == 1:
			if err := rejectAggregates(f.Args[0], "an aggregate argument"); err != nil {
				return nil, err
			}
			// COUNT(1) counts rows like COUNT(*).
			if kind == plan.AggCount && !f.Distinct {
				if lit, ok := f.Args[0].(*plan.Literal); ok && lit.Val != nil {
					ae.Arg = nil
					break
				}
			}
			ae.Arg = f.Args[0]
			if f.Distinct {
				if kind != plan.AggCount {
					return nil, fmt.Errorf("sql: DISTINCT is only supported with count, got %s", f)
				}
				ae.Kind = plan.AggCountDistinct
			}
		default:
			return nil, fmt.Errorf("sql: %s takes exactly one argument", f.Name)
		}
		aggs[i] = ae
		aggName[f.String()] = name
	}
	agg := &plan.AggregateNode{GroupBy: groups, Aggs: aggs, Child: child}

	rewrite := func(e plan.Expr) plan.Expr {
		return rewriteAggRefs(e, groupName, aggName)
	}
	var out plan.LogicalPlan = agg
	if stmt.Having != nil {
		out = &plan.FilterNode{Cond: rewrite(stmt.Having), Child: out}
	}
	// Projection over the aggregate output.
	var exprs []plan.NamedExpr
	for _, item := range stmt.Items {
		if item.Star {
			return nil, fmt.Errorf("sql: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		e := rewrite(item.Expr)
		name := item.Alias
		if name == "" {
			name = defaultName(item.Expr)
		}
		exprs = append(exprs, plan.NamedExpr{Expr: e, Name: name})
	}
	proj := &plan.ProjectNode{Exprs: exprs, Child: out}
	var final plan.LogicalPlan = proj
	if len(stmt.OrderBy) > 0 {
		orders := make([]plan.SortOrder, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			orders[i] = plan.SortOrder{Expr: substituteAliases(rewrite(o.Expr), exprs), Desc: o.Desc}
		}
		final = &plan.SortNode{Orders: orders, Child: final}
	}
	if stmt.Limit >= 0 {
		final = &plan.LimitNode{N: stmt.Limit, Child: final}
	}
	return final, nil
}

// rewriteAggRefs replaces aggregate calls and whole group expressions with
// references to the aggregate node's outputs.
func rewriteAggRefs(e plan.Expr, groupName, aggName map[string]string) plan.Expr {
	if name, ok := aggName[e.String()]; ok {
		return plan.Col(name)
	}
	if name, ok := groupName[e.String()]; ok {
		return plan.Col(name)
	}
	children := e.Children()
	if len(children) == 0 {
		return plan.CloneExpr(e)
	}
	mapped := make([]plan.Expr, len(children))
	for i, c := range children {
		mapped[i] = rewriteAggRefs(c, groupName, aggName)
	}
	return e.WithChildren(mapped)
}

// substituteAliases maps a column reference naming a projection alias onto
// that projection's expression, so ORDER BY n works for SELECT ... AS n.
func substituteAliases(e plan.Expr, exprs []plan.NamedExpr) plan.Expr {
	if c, ok := e.(*plan.ColumnRef); ok {
		for _, ne := range exprs {
			if ne.Name == c.Name {
				return plan.Col(ne.Name)
			}
		}
	}
	return e
}

func buildProjection(items []SelectItem, child plan.LogicalPlan) (plan.LogicalPlan, error) {
	// SELECT * alone keeps the child as-is.
	if len(items) == 1 && items[0].Star {
		return child, nil
	}
	var exprs []plan.NamedExpr
	for _, item := range items {
		if item.Star {
			for _, f := range child.Schema() {
				exprs = append(exprs, plan.NamedExpr{Expr: plan.Col(f.Name), Name: f.Name})
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = defaultName(item.Expr)
		}
		exprs = append(exprs, plan.NamedExpr{Expr: item.Expr, Name: name})
	}
	return &plan.ProjectNode{Exprs: exprs, Child: child}, nil
}

func defaultName(e plan.Expr) string {
	if c, ok := e.(*plan.ColumnRef); ok {
		return c.Name
	}
	return e.String()
}

// placeSort puts the sort above the projection when its keys are in the
// projected output, below it when they only exist pre-projection.
func placeSort(orders []OrderItem, proj plan.LogicalPlan, preProj plan.LogicalPlan) plan.LogicalPlan {
	sorted := make([]plan.SortOrder, len(orders))
	outSchema := proj.Schema()
	allInOutput := true
	for i, o := range orders {
		sorted[i] = plan.SortOrder{Expr: o.Expr, Desc: o.Desc}
		for _, col := range plan.Columns(o.Expr) {
			if outSchema.IndexOf(col) < 0 {
				allInOutput = false
			}
		}
	}
	if allInOutput {
		return &plan.SortNode{Orders: sorted, Child: proj}
	}
	// Sort below the projection (classic SELECT a FROM t ORDER BY b).
	if p, ok := proj.(*plan.ProjectNode); ok {
		p.Child = &plan.SortNode{Orders: sorted, Child: preProj}
		return p
	}
	return &plan.SortNode{Orders: sorted, Child: proj}
}
