package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// nullableMem builds a relation spanning every vector storage class with
// ~20% NULLs per column — the adversarial input for vector/row equivalence.
func nullableMem(t *testing.T, n int, seed int64) *datasource.MemRelation {
	t.Helper()
	rel := datasource.NewMemRelation("vals", plan.Schema{
		{Name: "i8", Type: plan.TypeInt8},
		{Name: "i32", Type: plan.TypeInt32},
		{Name: "i64", Type: plan.TypeInt64},
		{Name: "f32", Type: plan.TypeFloat32},
		{Name: "f64", Type: plan.TypeFloat64},
		{Name: "s", Type: plan.TypeString},
		{Name: "bl", Type: plan.TypeBool},
	}, 4)
	rng := rand.New(rand.NewSource(seed))
	rows := make([]plan.Row, n)
	for i := range rows {
		r := make(plan.Row, 7)
		if rng.Float64() >= 0.2 {
			r[0] = int8(rng.Intn(20) - 10)
		}
		if rng.Float64() >= 0.2 {
			r[1] = int32(rng.Intn(200) - 100)
		}
		if rng.Float64() >= 0.2 {
			r[2] = int64(rng.Intn(2000) - 1000)
		}
		if rng.Float64() >= 0.2 {
			r[3] = float32(rng.Intn(80)) / 4
		}
		if rng.Float64() >= 0.2 {
			r[4] = float64(rng.Intn(400))/8 - 25
		}
		if rng.Float64() >= 0.2 {
			r[5] = []string{"ant", "bee", "cat", "dog"}[rng.Intn(4)]
		}
		if rng.Float64() >= 0.2 {
			r[6] = rng.Intn(2) == 0
		}
		rows[i] = r
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return rel
}

// bothPaths executes lp vectorized and row-at-a-time.
func bothPaths(t *testing.T, lp func() plan.LogicalPlan) (vec, row []plan.Row) {
	t.Helper()
	vec, _ = runWith(t, lp(), CompileConfig{})
	row, _ = runWith(t, lp(), CompileConfig{DisableVectorization: true})
	return vec, row
}

// assertIdenticalRows demands value- AND type-identical results: an int8
// column must come back int8 from both paths, NULLs must be untyped nils.
func assertIdenticalRows(t *testing.T, name string, vec, row []plan.Row) {
	t.Helper()
	if len(vec) != len(row) {
		t.Fatalf("%s: vectorized %d rows, row path %d", name, len(vec), len(row))
	}
	for i := range vec {
		if !reflect.DeepEqual(vec[i], row[i]) {
			t.Fatalf("%s: row %d differs\nvectorized: %#v\nrow path:   %#v", name, i, vec[i], row[i])
		}
	}
}

// TestVectorNullableEquivalence pins vectorized null semantics end to end:
// filters over nullable columns of every storage class, IS NULL shapes,
// arithmetic projections with NULL propagation, and LIMIT interplay all
// return results identical to the row path.
func TestVectorNullableEquivalence(t *testing.T) {
	rel := nullableMem(t, 600, 3)
	scan := func() *plan.ScanNode { return &plan.ScanNode{Relation: rel} }
	cases := []struct {
		name string
		lp   func() plan.LogicalPlan
	}{
		{"filter-nullable-narrow", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("i8"), R: plan.Lit(int64(0))},
				Child: scan(),
			}
		}},
		{"filter-col-vs-col-mixed", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("i32"), R: plan.Col("f64")},
				Child: scan(),
			}
		}},
		{"is-null-and-not-null", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond: &plan.And{
					L: &plan.IsNull{E: plan.Col("s")},
					R: &plan.IsNull{E: plan.Col("i64"), Negate: true},
				},
				Child: scan(),
			}
		}},
		{"not-comparison", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond:  &plan.Not{E: &plan.Comparison{Op: plan.OpGe, L: plan.Col("f32"), R: plan.Lit(10.0)}},
				Child: scan(),
			}
		}},
		{"in-with-negate", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond:  &plan.In{E: plan.Col("s"), Values: []plan.Expr{plan.Lit("ant"), plan.Lit("cat")}, Negate: true},
				Child: scan(),
			}
		}},
		{"project-arith-null-prop", func() plan.LogicalPlan {
			return &plan.ProjectNode{
				Exprs: []plan.NamedExpr{
					{Expr: &plan.Arithmetic{Op: plan.OpAdd, L: plan.Col("i32"), R: plan.Col("f64")}, Name: "sum"},
					{Expr: &plan.Arithmetic{Op: plan.OpDiv, L: plan.Col("i64"), R: plan.Col("i8")}, Name: "quot"},
					{Expr: plan.Col("s"), Name: "s"},
				},
				Child: scan(),
			}
		}},
		{"filter-project-limit", func() plan.LogicalPlan {
			return &plan.LimitNode{N: 25, Child: &plan.ProjectNode{
				Exprs: []plan.NamedExpr{
					{Expr: plan.Col("i8"), Name: "i8"},
					{Expr: plan.Col("f32"), Name: "f32"},
				},
				Child: &plan.FilterNode{
					Cond:  &plan.Comparison{Op: plan.OpNe, L: plan.Col("bl"), R: plan.Lit(true)},
					Child: scan(),
				},
			}}
		}},
	}
	for _, c := range cases {
		vec, row := bothPaths(t, c.lp)
		assertIdenticalRows(t, c.name, vec, row)
	}
}

// TestVectorRowEquivalenceProperty is the randomized safety net: arbitrary
// predicates through the vectorized pipeline must return byte-identical
// rows (values, types, order) to the row-at-a-time path.
func TestVectorRowEquivalenceProperty(t *testing.T) {
	users := usersMem(t, 300)
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pred := randExpr(rng, 3)
		lp := func() plan.LogicalPlan {
			return &plan.ProjectNode{
				Exprs: []plan.NamedExpr{
					{Expr: plan.Col("id"), Name: "id"},
					{Expr: plan.Col("score"), Name: "score"},
				},
				Child: &plan.FilterNode{Cond: pred, Child: &plan.ScanNode{Relation: users}},
			}
		}
		vec, err := runCfg(t, lp(), CompileConfig{})
		if err != nil {
			t.Logf("vectorized run failed for %s: %v", pred, err)
			return false
		}
		row, err := runCfg(t, lp(), CompileConfig{DisableVectorization: true})
		if err != nil {
			t.Logf("row run failed for %s: %v", pred, err)
			return false
		}
		if !reflect.DeepEqual(vec, row) {
			t.Logf("disagreement for %s: %d vs %d rows", pred, len(vec), len(row))
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func runCfg(t *testing.T, lp plan.LogicalPlan, cfg CompileConfig) ([]plan.Row, error) {
	t.Helper()
	ctx, _ := testCtx()
	phys, err := CompileWith(plan.Optimize(lp), cfg)
	if err != nil {
		return nil, err
	}
	return phys.Execute(ctx)
}

// planCase is a named logical plan, built fresh for every run because
// compilation resolves expressions in place.
type planCase struct {
	name string
	lp   func() plan.LogicalPlan
}

// vectorAggCases are the fused global aggregates over rel (a nullableMem
// relation): every supported aggregate over every numeric storage class,
// over a filter, through a projection, and over a filter nothing passes.
func vectorAggCases(rel plan.Relation) []planCase {
	aggs := func() []plan.AggExpr {
		return []plan.AggExpr{
			{Kind: plan.AggCount, Name: "n"},
			{Kind: plan.AggCount, Arg: plan.Col("i8"), Name: "n8"},
			{Kind: plan.AggSum, Arg: plan.Col("i32"), Name: "s32"},
			{Kind: plan.AggSum, Arg: plan.Col("f32"), Name: "sf32"},
			{Kind: plan.AggAvg, Arg: plan.Col("f64"), Name: "af64"},
			{Kind: plan.AggMin, Arg: plan.Col("i64"), Name: "mn"},
			{Kind: plan.AggMax, Arg: plan.Col("i64"), Name: "mx"},
			{Kind: plan.AggMin, Arg: plan.Col("s"), Name: "mns"},
			{Kind: plan.AggMax, Arg: plan.Col("f32"), Name: "mxf"},
		}
	}
	return []planCase{
		{"global-agg", func() plan.LogicalPlan {
			return &plan.AggregateNode{Aggs: aggs(), Child: &plan.ScanNode{Relation: rel}}
		}},
		{"agg-over-filter", func() plan.LogicalPlan {
			return &plan.AggregateNode{Aggs: aggs(), Child: &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("i32"), R: plan.Lit(int64(0))},
				Child: &plan.ScanNode{Relation: rel},
			}}
		}},
		{"agg-over-projection", func() plan.LogicalPlan {
			return &plan.AggregateNode{
				Aggs: []plan.AggExpr{
					{Kind: plan.AggSum, Arg: plan.Col("v"), Name: "s"},
					{Kind: plan.AggCount, Name: "n"},
				},
				Child: &plan.ProjectNode{
					Exprs: []plan.NamedExpr{{Expr: plan.Col("f64"), Name: "v"}},
					Child: &plan.ScanNode{Relation: rel},
				},
			}
		}},
		{"agg-empty-filter", func() plan.LogicalPlan {
			// No row satisfies the predicate: COUNT must be 0, SUM/AVG NULL.
			return &plan.AggregateNode{Aggs: aggs(), Child: &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("i64"), R: plan.Lit(int64(1 << 40))},
				Child: &plan.ScanNode{Relation: rel},
			}}
		}},
	}
}

// TestVectorAggEquivalence pins the fused global aggregation: every
// supported aggregate over every numeric storage class — including all-NULL
// inputs and the empty relation — matches the hash aggregate exactly.
func TestVectorAggEquivalence(t *testing.T) {
	cases := vectorAggCases(nullableMem(t, 500, 11))
	for _, c := range cases {
		vec, row := bothPaths(t, c.lp)
		assertIdenticalRows(t, c.name, vec, row)
	}

	// Empty relation: one finals row either way.
	empty := datasource.NewMemRelation("empty", plan.Schema{{Name: "x", Type: plan.TypeInt64}}, 2)
	lp := func() plan.LogicalPlan {
		return &plan.AggregateNode{
			Aggs: []plan.AggExpr{
				{Kind: plan.AggCount, Name: "n"},
				{Kind: plan.AggSum, Arg: plan.Col("x"), Name: "s"},
				{Kind: plan.AggMin, Arg: plan.Col("x"), Name: "mn"},
			},
			Child: &plan.ScanNode{Relation: empty},
		}
	}
	vec, row := bothPaths(t, lp)
	assertIdenticalRows(t, "agg-empty-relation", vec, row)
	if len(vec) != 1 {
		t.Fatalf("empty-relation aggregate returned %d rows, want 1", len(vec))
	}
}

// TestAggFusionShapes pins which aggregates fuse into an aggregate
// PipelineExec and which must stay on the hash aggregate: GROUP BY, LIMIT
// below the aggregate, and stddev all disqualify fusion.
func TestAggFusionShapes(t *testing.T) {
	rel := usersMem(t, 50)
	compile := func(lp plan.LogicalPlan) PhysicalPlan {
		t.Helper()
		phys, err := CompileWith(plan.Optimize(lp), CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return phys
	}
	fused := func(p PhysicalPlan) bool {
		pipe, ok := p.(*PipelineExec)
		return ok && pipe.Aggs != nil
	}
	global := compile(&plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
		Child: &plan.ScanNode{Relation: rel},
	})
	if !fused(global) {
		t.Errorf("global aggregate root = %T, want *PipelineExec with Aggs\n%s", global, Explain(global))
	}
	grouped := compile(&plan.AggregateNode{
		GroupBy: []plan.NamedExpr{{Expr: plan.Col("city"), Name: "city"}},
		Aggs:    []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
		Child:   &plan.ScanNode{Relation: rel},
	})
	if fused(grouped) {
		t.Error("GROUP BY aggregate must not fuse into an aggregate pipeline")
	}
	limited := compile(&plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
		Child: &plan.LimitNode{N: 7, Child: &plan.ScanNode{Relation: rel}},
	})
	if fused(limited) {
		t.Error("aggregate above LIMIT must not fuse (per-partition caps overcount)")
	}
	stddev := compile(&plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggStddevSamp, Arg: plan.Col("score"), Name: "sd"}},
		Child: &plan.ScanNode{Relation: rel},
	})
	if fused(stddev) {
		t.Error("stddev must not fuse into an aggregate pipeline")
	}
	// The fused aggregate answers the LIMIT-below case identically anyway.
	lp := func() plan.LogicalPlan {
		return &plan.AggregateNode{
			Aggs: []plan.AggExpr{
				{Kind: plan.AggCount, Name: "n"},
				{Kind: plan.AggSum, Arg: plan.Col("age"), Name: "s"},
			},
			Child: &plan.LimitNode{N: 7, Child: &plan.ScanNode{Relation: rel}},
		}
	}
	vec, row := bothPaths(t, lp)
	assertIdenticalRows(t, "agg-above-limit", vec, row)
}

// TestVectorPathEngages pins that the vectorized metrics move when (and
// only when) vectorization is on, so equivalence tests cannot silently
// compare the row path against itself.
func TestVectorPathEngages(t *testing.T) {
	rel := usersMem(t, 400)
	lp := func() plan.LogicalPlan {
		return &plan.FilterNode{
			Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")},
			Child: &plan.ScanNode{Relation: rel},
		}
	}
	_, vm := runWith(t, lp(), CompileConfig{})
	if vm.Get(metrics.VectorBatches) == 0 || vm.Get(metrics.VectorRows) == 0 {
		t.Errorf("vectorized run moved no vector metrics: batches=%d rows=%d",
			vm.Get(metrics.VectorBatches), vm.Get(metrics.VectorRows))
	}
	_, rm := runWith(t, lp(), CompileConfig{DisableVectorization: true})
	if rm.Get(metrics.VectorBatches) != 0 {
		t.Errorf("row-path run streamed %d vector batches", rm.Get(metrics.VectorBatches))
	}
}

// TestVectorRowEquivalenceManySeeds sweeps data seeds too, not just
// predicates: different NULL layouts exercise different bitmap words.
func TestVectorRowEquivalenceManySeeds(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rel := nullableMem(t, 257, seed) // odd size: partial final batch
		lp := func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond: &plan.Or{
					L: &plan.Comparison{Op: plan.OpLe, L: plan.Col("i8"), R: plan.Col("i32")},
					R: &plan.IsNull{E: plan.Col("f64")},
				},
				Child: &plan.ScanNode{Relation: rel},
			}
		}
		vec, row := bothPaths(t, lp)
		assertIdenticalRows(t, fmt.Sprintf("seed-%d", seed), vec, row)
	}
}

// TestRowRouteEquivalence runs fused pipelines with vectorization on over
// partitions without datasource.VectorScan: the row route, which the
// baseline relation takes for every fused chain. The aggregate cases must
// match the hash aggregate and the pipeline cases the materialized
// operators, row for row and type for type.
func TestRowRouteEquivalence(t *testing.T) {
	vals := rowRoute{nullableMem(t, 500, 11)}
	users, orders := rowRoute{usersMem(t, 500)}, rowRoute{ordersMem(t, 200)}
	var streamed int64
	for _, set := range []struct {
		cases []planCase
		ref   CompileConfig
	}{
		{vectorAggCases(vals), CompileConfig{DisableVectorization: true}},
		{pipelineFusionCases(users, orders), CompileConfig{DisablePipelining: true}},
	} {
		for _, c := range set.cases {
			got, m := runWith(t, c.lp(), CompileConfig{})
			if n := m.Get(metrics.VectorBatches); n != 0 {
				t.Fatalf("%s: row route streamed %d vector batches", c.name, n)
			}
			streamed += m.Get(metrics.BatchesStreamed)
			want, _ := runWith(t, c.lp(), set.ref)
			assertIdenticalRows(t, c.name, got, want)
		}
	}
	if streamed == 0 {
		t.Error("no batch streamed through the row route")
	}
}
