package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/plan"
)

// DataFrame is a lazy relational computation, the paper's extended Spark
// DataFrame: transformations stack logical operators, and actions
// (Collect/Count/Write) optimize, compile, and execute the plan.
type DataFrame struct {
	sess *Session
	lp   plan.LogicalPlan
	// parseDur is the SQL front-end time when this frame came from
	// Session.SQL; traced actions back-date a parse span from it.
	parseDur time.Duration
	// tmpl, when set, is the prepared plan this frame was served from
	// and vals the query's literals: actions bind tmpl's optimized plan
	// instead of optimizing and fingerprinting lp. A frame served from a
	// cached template has no lp: LogicalPlan binds one from tmpl each
	// time it is asked for, which only transformations, views and
	// EXPLAIN do.
	tmpl *template
	vals []any
	// consistency is the read-consistency mode actions execute under. The
	// zero value (Strong) routes every read to region primaries; Timeline
	// allows possibly-stale replica reads with same-round crash failover.
	consistency datasource.Consistency
}

// derive builds a new frame over lp inheriting everything but the plan —
// the consistency choice (and session) survives every transformation, so
// df.WithConsistency(Timeline).Filter(...).Count() runs timeline.
func (df *DataFrame) derive(lp plan.LogicalPlan) *DataFrame {
	return &DataFrame{sess: df.sess, lp: lp, consistency: df.consistency}
}

// WithConsistency returns a copy of the frame whose actions read at the
// given consistency level. ConsistencyTimeline lets reads be served by
// region replicas — results may trail the primary by a bounded, reported
// staleness, and a crashed primary fails over within one RPC round instead
// of stalling until reassignment. ConsistencyStrong (the default) is
// read-your-writes and touches only primaries.
func (df *DataFrame) WithConsistency(c datasource.Consistency) *DataFrame {
	out := *df
	out.consistency = c
	return &out
}

// Consistency reports the read-consistency mode actions execute under.
func (df *DataFrame) Consistency() datasource.Consistency { return df.consistency }

// Schema describes the DataFrame's output columns.
func (df *DataFrame) Schema() plan.Schema { return df.LogicalPlan().Schema() }

// LogicalPlan exposes the underlying plan (for EXPLAIN and tests).
func (df *DataFrame) LogicalPlan() plan.LogicalPlan {
	if df.lp == nil {
		return plan.Bind(df.tmpl.built, df.vals)
	}
	return df.lp
}

// Filter keeps rows satisfying cond (Code 3's df.filter($"col0" <= ...)).
func (df *DataFrame) Filter(cond plan.Expr) *DataFrame {
	return df.derive(&plan.FilterNode{Cond: cond, Child: df.LogicalPlan()})
}

// Select projects the named columns (Code 3's .select("col0", "col1")).
func (df *DataFrame) Select(cols ...string) *DataFrame {
	exprs := make([]plan.NamedExpr, len(cols))
	for i, c := range cols {
		exprs[i] = plan.NamedExpr{Expr: plan.Col(c), Name: c}
	}
	return df.derive(&plan.ProjectNode{Exprs: exprs, Child: df.LogicalPlan()})
}

// SelectExpr projects arbitrary named expressions.
func (df *DataFrame) SelectExpr(exprs ...plan.NamedExpr) *DataFrame {
	return df.derive(&plan.ProjectNode{Exprs: exprs, Child: df.LogicalPlan()})
}

// Join inner-joins with other on leftCols[i] = rightCols[i].
func (df *DataFrame) Join(other *DataFrame, leftCols, rightCols []string) (*DataFrame, error) {
	return df.join(other, leftCols, rightCols, plan.InnerJoin)
}

// LeftJoin left-outer-joins with other on leftCols[i] = rightCols[i]:
// unmatched left rows survive with NULL right columns.
func (df *DataFrame) LeftJoin(other *DataFrame, leftCols, rightCols []string) (*DataFrame, error) {
	return df.join(other, leftCols, rightCols, plan.LeftOuterJoin)
}

func (df *DataFrame) join(other *DataFrame, leftCols, rightCols []string, jt plan.JoinType) (*DataFrame, error) {
	if len(leftCols) != len(rightCols) || len(leftCols) == 0 {
		return nil, fmt.Errorf("engine: join needs matching, non-empty key lists")
	}
	lk := make([]plan.Expr, len(leftCols))
	rk := make([]plan.Expr, len(rightCols))
	for i := range leftCols {
		lk[i] = plan.Col(leftCols[i])
		rk[i] = plan.Col(rightCols[i])
	}
	return df.derive(&plan.JoinNode{
		Left: df.LogicalPlan(), Right: other.LogicalPlan(), LeftKeys: lk, RightKeys: rk, Type: jt,
	}), nil
}

// Distinct deduplicates the DataFrame's rows.
func (df *DataFrame) Distinct() *DataFrame {
	lp := df.LogicalPlan()
	groups := make([]plan.NamedExpr, len(lp.Schema()))
	for i, f := range lp.Schema() {
		groups[i] = plan.NamedExpr{Expr: plan.Col(f.Name), Name: f.Name}
	}
	return df.derive(&plan.AggregateNode{GroupBy: groups, Child: lp})
}

// GroupBy starts a grouped aggregation.
func (df *DataFrame) GroupBy(cols ...string) *GroupedData {
	return &GroupedData{df: df, cols: cols}
}

// GroupedData is an in-flight GROUP BY.
type GroupedData struct {
	df   *DataFrame
	cols []string
}

// Agg finishes the aggregation with the given aggregate expressions.
func (g *GroupedData) Agg(aggs ...plan.AggExpr) *DataFrame {
	groups := make([]plan.NamedExpr, len(g.cols))
	for i, c := range g.cols {
		groups[i] = plan.NamedExpr{Expr: plan.Col(c), Name: c}
	}
	return g.df.derive(&plan.AggregateNode{
		GroupBy: groups, Aggs: aggs, Child: g.df.LogicalPlan(),
	})
}

// OrderBy sorts by the given keys.
func (df *DataFrame) OrderBy(orders ...plan.SortOrder) *DataFrame {
	return df.derive(&plan.SortNode{Orders: orders, Child: df.LogicalPlan()})
}

// Limit keeps the first n rows.
func (df *DataFrame) Limit(n int) *DataFrame {
	return df.derive(&plan.LimitNode{N: n, Child: df.LogicalPlan()})
}

// CreateOrReplaceTempView registers the DataFrame's plan under name for SQL
// (the paper's Code 4). The view holds a copy without literal slots, so a
// query over it never rebinds the view's literals with its own.
func (df *DataFrame) CreateOrReplaceTempView(name string) {
	lp := plan.Unslot(df.LogicalPlan())
	df.sess.mu.Lock()
	df.sess.views[name] = lp
	df.sess.mu.Unlock()
	df.sess.catalogChanged()
}

// Collect optimizes, compiles, and executes the plan, returning all rows.
func (df *DataFrame) Collect() ([]plan.Row, error) {
	return df.CollectContext(context.Background())
}

// CollectContext is Collect bounded by ctx: cancelling ctx (or exceeding its
// deadline, the one way to bound a query) aborts the query — queued tasks
// drop, in-flight RPCs and backoff sleeps stop early — and the context's
// error comes back. Cancelled or timed-out queries count in
// engine.queries_cancelled.
func (df *DataFrame) CollectContext(ctx context.Context) ([]plan.Row, error) {
	rows, _, err := df.run(ctx, false)
	return rows, err
}

// Count executes the plan and returns the number of rows.
func (df *DataFrame) Count() (int64, error) {
	return df.CountContext(context.Background())
}

// CountContext is Count bounded by ctx (see CollectContext).
func (df *DataFrame) CountContext(ctx context.Context) (int64, error) {
	agg := &plan.AggregateNode{Aggs: []plan.AggExpr{{Kind: plan.AggCount, Name: "count"}}, Child: df.LogicalPlan()}
	cdf := df.derive(agg)
	cdf.parseDur = df.parseDur
	rows, _, err := cdf.run(ctx, false)
	if err != nil {
		return 0, err
	}
	return rows[0][0].(int64), nil
}

// Write inserts the DataFrame's rows into an insertable relation — the
// paper's write path (Code 2): df.write....save().
func (df *DataFrame) Write(target datasource.InsertableRelation) error {
	return df.WriteContext(context.Background(), target)
}

// WriteContext is Write whose read half runs under ctx (see
// CollectContext): a cancelled or expired ctx returns its error and inserts
// nothing.
func (df *DataFrame) WriteContext(ctx context.Context, target datasource.InsertableRelation) error {
	rows, err := df.collectFor(ctx, target)
	if err != nil {
		return err
	}
	return target.Insert(rows)
}

// WriteBulk inserts the DataFrame's rows through the target's bulk-load
// path — store files installed directly in each region, bypassing WAL and
// MemStore. Use it for initial loads too large for the buffered write path.
func (df *DataFrame) WriteBulk(target datasource.BulkLoadableRelation) error {
	return df.WriteBulkContext(context.Background(), target)
}

// WriteBulkContext is WriteBulk whose read half runs under ctx (see
// WriteContext).
func (df *DataFrame) WriteBulkContext(ctx context.Context, target datasource.BulkLoadableRelation) error {
	rows, err := df.collectFor(ctx, target)
	if err != nil {
		return err
	}
	return target.BulkLoad(rows)
}

// collectFor collects the frame under ctx and checks every row's width
// against target's schema.
func (df *DataFrame) collectFor(ctx context.Context, target datasource.Relation) ([]plan.Row, error) {
	rows, err := df.CollectContext(ctx)
	if err != nil {
		return nil, err
	}
	want := len(target.Schema())
	for _, r := range rows {
		if len(r) != want {
			return nil, fmt.Errorf("engine: cannot write %d-column rows into %q with %d columns", len(r), target.Name(), want)
		}
	}
	return rows, nil
}

// Show renders up to n rows as an aligned text table (n <= 0 means all),
// like Spark's df.show(). The rows are the frame's first n, read through
// Limit(n), so only they are fetched.
func (df *DataFrame) Show(n int) (string, error) {
	return df.ShowContext(context.Background(), n)
}

// ShowContext is Show bounded by ctx, as CollectContext is Collect.
func (df *DataFrame) ShowContext(ctx context.Context, n int) (string, error) {
	shown := df
	if n > 0 {
		shown = df.Limit(n)
	}
	rows, err := shown.CollectContext(ctx)
	if err != nil {
		return "", err
	}
	schema := df.Schema()
	widths := make([]int, len(schema))
	header := make([]string, len(schema))
	for i, f := range schema {
		header[i] = f.Name
		widths[i] = len(f.Name)
	}
	cells := make([][]string, len(rows))
	for r, row := range rows {
		cells[r] = make([]string, len(schema))
		for c := range schema {
			v := "NULL"
			if c < len(row) && row[c] != nil {
				v = fmt.Sprintf("%v", row[c])
			}
			cells[r][c] = v
			if len(v) > widths[c] {
				widths[c] = len(v)
			}
		}
	}
	var b strings.Builder
	line := func() {
		for _, w := range widths {
			b.WriteByte('+')
			b.WriteString(strings.Repeat("-", w+2))
		}
		b.WriteString("+\n")
	}
	writeRow := func(vals []string) {
		for i, v := range vals {
			fmt.Fprintf(&b, "| %-*s ", widths[i], v)
		}
		b.WriteString("|\n")
	}
	line()
	writeRow(header)
	line()
	for _, r := range cells {
		writeRow(r)
	}
	line()
	return b.String(), nil
}

// Explain renders the optimized logical and physical plans.
func (df *DataFrame) Explain() (string, error) {
	opt := plan.Optimize(df.LogicalPlan())
	phys, err := exec.CompileWith(opt, df.sess.compileConfig())
	if err != nil {
		return "", err
	}
	return "== Optimized Logical Plan ==\n" + plan.Format(opt) +
		"== Physical Plan ==\n" + exec.Explain(phys), nil
}
