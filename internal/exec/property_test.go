package exec

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// randExpr builds a random boolean predicate over the users schema.
func randExpr(rng *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		// Leaf: comparison, IN, or LIKE.
		switch rng.Intn(6) {
		case 0:
			return &plan.Comparison{Op: plan.CmpOps()[rng.Intn(6)], L: plan.Col("age"), R: plan.Lit(int64(rng.Intn(90)))}
		case 1:
			return &plan.Comparison{Op: plan.CmpOps()[rng.Intn(6)], L: plan.Col("score"), R: plan.Lit(rng.Float64() * 50)}
		case 2:
			return &plan.Comparison{Op: plan.OpEq, L: plan.Col("city"), R: plan.Lit([]string{"sf", "nyc", "la", "xx"}[rng.Intn(4)])}
		case 3:
			return &plan.In{E: plan.Col("city"), Values: []plan.Expr{plan.Lit("sf"), plan.Lit("la")}, Negate: rng.Intn(2) == 0}
		case 4:
			return &plan.Like{E: plan.Col("id"), Pattern: "u0%"}
		default:
			return &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &plan.And{L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	case 1:
		return &plan.Or{L: randExpr(rng, depth-1), R: randExpr(rng, depth-1)}
	default:
		return &plan.Not{E: randExpr(rng, depth-1)}
	}
}

// TestOptimizerPreservesSemanticsProperty runs random predicates through
// the optimized and unoptimized pipelines and demands identical answers —
// the safety net under pushdown, pruning, and constant folding.
func TestOptimizerPreservesSemanticsProperty(t *testing.T) {
	rel := usersMem(t, 150)
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pred := randExpr(rng, 3)
		lp := &plan.ProjectNode{
			Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
			Child: &plan.FilterNode{Cond: pred, Child: &plan.ScanNode{Relation: rel}},
		}
		opt, err := run(t, plan.Optimize(lp))
		if err != nil {
			t.Logf("optimized run failed for %s: %v", pred, err)
			return false
		}
		raw, err := run(t, plan.ClonePlan(lp))
		if err != nil {
			t.Logf("raw run failed for %s: %v", pred, err)
			return false
		}
		if !sameIDs(opt, raw) {
			t.Logf("disagreement for %s: %d vs %d rows", pred, len(opt), len(raw))
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func run(t *testing.T, lp plan.LogicalPlan) ([]plan.Row, error) {
	t.Helper()
	ctx, _ := testCtx()
	phys, err := CompileWith(lp, CompileConfig{})
	if err != nil {
		return nil, err
	}
	return phys.Execute(ctx)
}

func sameIDs(a, b []plan.Row) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = fmt.Sprint(a[i][0])
		bs[i] = fmt.Sprint(b[i][0])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestMemRelationFilterAgreesWithEngineFilter cross-checks the reference
// source-filter evaluation against engine expression evaluation for the
// translatable shapes.
func TestMemRelationFilterAgreesWithEngineFilter(t *testing.T) {
	rel := usersMem(t, 100)
	schema := rel.Schema()
	preds := []struct {
		expr plan.Expr
		src  datasource.Filter
	}{
		{&plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Lit(int32(40))}, datasource.GreaterThan{Column: "age", Value: int32(40)}},
		{&plan.Comparison{Op: plan.OpLe, L: plan.Col("score"), R: plan.Lit(10.0)}, datasource.LessThanOrEqual{Column: "score", Value: 10.0}},
		{&plan.In{E: plan.Col("city"), Values: []plan.Expr{plan.Lit("sf")}}, datasource.In{Column: "city", Values: []any{"sf"}}},
		{&plan.In{E: plan.Col("city"), Values: []plan.Expr{plan.Lit("sf")}, Negate: true}, datasource.NotIn{Column: "city", Values: []any{"sf"}}},
		{&plan.Like{E: plan.Col("id"), Pattern: "u00%"}, datasource.StringStartsWith{Column: "id", Prefix: "u00"}},
	}
	parts, _, err := rel.BuildScan([]string{"id", "age", "city", "score"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := scanParts(t, parts)
	for _, p := range preds {
		if err := plan.Resolve(p.expr, schema); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			want, err := plan.EvalPredicate(p.expr, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := datasource.EvalFilter(p.src, schema, r)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s vs %s disagree on %v", p.expr, p.src, r)
			}
		}
	}
}

func scanParts(t *testing.T, parts []datasource.Partition) []plan.Row {
	t.Helper()
	var out []plan.Row
	for _, p := range parts {
		err := p.Batches(context.Background(), datasource.BatchOptions{Keep: true}, func(b *plan.Batch) error {
			var err error
			out, err = b.AppendRows(out)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}
