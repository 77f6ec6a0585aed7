package exec

import (
	"fmt"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// rowRoute hides ComputeVectors from a relation's partitions, so fused
// pipelines take the row route even with vectorization on: the route every
// partition without datasource.VectorScan takes.
type rowRoute struct{ *datasource.MemRelation }

func (r rowRoute) BuildScan(cols []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	parts, unhandled, err := r.MemRelation.BuildScan(cols, filters)
	for i, p := range parts {
		parts[i] = rowPartition{Partition: p, BatchScan: p.(datasource.BatchScan)}
	}
	return parts, unhandled, err
}

type rowPartition struct {
	datasource.Partition
	datasource.BatchScan
}

// BenchmarkPipeline measures one fused pipeline query over a 4-partition,
// 20,000-row relation with a residual filter (age < cap, about half the
// rows) and a projection: rows out, or one global aggregate row out, each
// on the vector route and on the row route. The arith cases filter on
// age*2 < 80 instead, which keeps the same half of the rows, so they price
// an arithmetic comparison against the column-vs-column one.
func BenchmarkPipeline(b *testing.B) {
	rel := datasource.NewMemRelation("users", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
		{Name: "cap", Type: plan.TypeInt32},
		{Name: "city", Type: plan.TypeString},
		{Name: "score", Type: plan.TypeFloat64},
	}, 4)
	rows := make([]plan.Row, 20000)
	for i := range rows {
		rows[i] = plan.Row{fmt.Sprintf("u%05d", i), int32(i % 80), int32(i * 37 % 80), []string{"sf", "nyc", "la"}[i%3], float64(i) / 2}
	}
	if err := rel.Insert(rows); err != nil {
		b.Fatal(err)
	}
	// Neither a column-vs-column nor an arithmetic predicate has a source
	// filter, so both stay with the pipeline.
	ageLtCap := func() plan.Expr { return &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Col("cap")} }
	twiceAgeLt80 := func() plan.Expr {
		return &plan.Comparison{
			Op: plan.OpLt,
			L:  &plan.Arithmetic{Op: plan.OpMul, L: plan.Col("age"), R: plan.Lit(int64(2))},
			R:  plan.Lit(int64(80)),
		}
	}
	filtered := func(r plan.Relation, cond plan.Expr) plan.LogicalPlan {
		return &plan.FilterNode{Cond: cond, Child: &plan.ScanNode{Relation: r}}
	}
	rowsOut := func(r plan.Relation, cond plan.Expr) plan.LogicalPlan {
		return &plan.ProjectNode{
			Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}, {Expr: plan.Col("score"), Name: "score"}},
			Child: filtered(r, cond),
		}
	}
	aggOut := func(r plan.Relation, cond plan.Expr) plan.LogicalPlan {
		return &plan.AggregateNode{
			Aggs: []plan.AggExpr{
				{Kind: plan.AggCount, Name: "n"},
				{Kind: plan.AggSum, Arg: plan.Col("s"), Name: "sum_s"},
				{Kind: plan.AggMin, Arg: plan.Col("a"), Name: "min_a"},
				{Kind: plan.AggMax, Arg: plan.Col("c"), Name: "max_c"},
			},
			Child: &plan.ProjectNode{
				Exprs: []plan.NamedExpr{
					{Expr: plan.Col("score"), Name: "s"},
					{Expr: plan.Col("age"), Name: "a"},
					{Expr: plan.Col("city"), Name: "c"},
				},
				Child: filtered(r, cond),
			},
		}
	}
	for _, bc := range []struct {
		name string
		lp   func(plan.Relation, plan.Expr) plan.LogicalPlan
		rel  plan.Relation
		cond func() plan.Expr
	}{
		{"rows/vector", rowsOut, rel, ageLtCap},
		{"rows/row-route", rowsOut, rowRoute{rel}, ageLtCap},
		{"agg/vector", aggOut, rel, ageLtCap},
		{"agg/row-route", aggOut, rowRoute{rel}, ageLtCap},
		{"rows/vector/arith", rowsOut, rel, twiceAgeLt80},
		{"agg/vector/arith", aggOut, rel, twiceAgeLt80},
	} {
		b.Run(bc.name, func(b *testing.B) {
			phys, err := CompileWith(plan.Optimize(bc.lp(bc.rel, bc.cond())), CompileConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if !strings.Contains(phys.Explain(), "PipelineExec") || !strings.Contains(phys.Explain(), "filter=") {
				b.Fatalf("plan did not fuse the filter:\n%s", Explain(phys))
			}
			ctx, _ := testCtx()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := phys.Execute(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
