package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

func testCtx() (*Context, *metrics.Registry) {
	m := metrics.NewRegistry()
	sched := NewScheduler([]string{"h1", "h2"}, 2, m)
	return &Context{Scheduler: sched, Meter: m}, m
}

// slotsCtx is a context over one host with the given executor slots, so a
// shuffle splits into that many buckets.
func slotsCtx(slots int) *Context {
	m := metrics.NewRegistry()
	return &Context{Scheduler: NewScheduler([]string{"h1"}, slots, m), Meter: m}
}

func usersMem(t *testing.T, n int) *datasource.MemRelation {
	t.Helper()
	rel := datasource.NewMemRelation("users", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
		{Name: "city", Type: plan.TypeString},
		{Name: "score", Type: plan.TypeFloat64},
	}, 4)
	rows := make([]plan.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = plan.Row{fmt.Sprintf("u%03d", i), int32(i % 80), []string{"sf", "nyc", "la"}[i%3], float64(i) / 2}
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return rel
}

func ordersMem(t *testing.T, n int) *datasource.MemRelation {
	t.Helper()
	rel := datasource.NewMemRelation("orders", plan.Schema{
		{Name: "oid", Type: plan.TypeString},
		{Name: "uid", Type: plan.TypeString},
		{Name: "amount", Type: plan.TypeFloat64},
	}, 4)
	rows := make([]plan.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = plan.Row{fmt.Sprintf("o%03d", i), fmt.Sprintf("u%03d", i%50), float64(i)}
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return rel
}

func runPlan(t *testing.T, lp plan.LogicalPlan) ([]plan.Row, *metrics.Registry) {
	t.Helper()
	ctx, m := testCtx()
	opt := plan.Optimize(lp)
	phys, err := Compile(opt)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Format(opt))
	}
	rows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, Explain(phys))
	}
	return rows, m
}

func TestScanFilterProject(t *testing.T) {
	rel := usersMem(t, 100)
	lp := &plan.ProjectNode{
		Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
		Child: &plan.FilterNode{
			Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(5)},
			Child: &plan.ScanNode{Relation: rel},
		},
	}
	rows, _ := runPlan(t, lp)
	// age = i%80 < 5 → i in {0..4, 80..84} → 10 rows.
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 {
			t.Errorf("row width = %d", len(r))
		}
	}
}

func TestJoinCorrectness(t *testing.T) {
	users := usersMem(t, 50)
	orders := ordersMem(t, 100)
	lp := &plan.ProjectNode{
		Exprs: []plan.NamedExpr{
			{Expr: plan.Col("u.city"), Name: "city"},
			{Expr: plan.Col("o.amount"), Name: "amount"},
		},
		Child: &plan.JoinNode{
			Left:      &plan.ScanNode{Relation: users, Alias: "u"},
			Right:     &plan.ScanNode{Relation: orders, Alias: "o"},
			LeftKeys:  []plan.Expr{plan.Col("u.id")},
			RightKeys: []plan.Expr{plan.Col("o.uid")},
		},
	}
	rows, _ := runPlan(t, lp)
	// Every order matches exactly one user (uid = u{i%50}, users 0..49).
	if len(rows) != 100 {
		t.Errorf("join rows = %d", len(rows))
	}
}

func TestJoinWithFilterPushdownProducesSameResult(t *testing.T) {
	users := usersMem(t, 60)
	orders := ordersMem(t, 120)
	build := func() plan.LogicalPlan {
		return &plan.FilterNode{
			Cond: &plan.And{
				L: &plan.Comparison{Op: plan.OpLt, L: plan.Col("u.age"), R: plan.Lit(10)},
				R: &plan.Comparison{Op: plan.OpGe, L: plan.Col("o.amount"), R: plan.Lit(50.0)},
			},
			Child: &plan.JoinNode{
				Left:      &plan.ScanNode{Relation: users, Alias: "u"},
				Right:     &plan.ScanNode{Relation: orders, Alias: "o"},
				LeftKeys:  []plan.Expr{plan.Col("u.id")},
				RightKeys: []plan.Expr{plan.Col("o.uid")},
			},
		}
	}
	// Optimized path.
	optRows, optMeter := runPlan(t, build())
	// Unoptimized path: compile without Optimize.
	ctx, rawMeter := testCtx()
	phys, err := Compile(build())
	if err != nil {
		t.Fatal(err)
	}
	rawRows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(optRows) != len(rawRows) {
		t.Errorf("optimized %d rows vs raw %d rows", len(optRows), len(rawRows))
	}
	// Pushdown must reduce shuffle volume.
	if optMeter.Get(metrics.ShuffleBytes) >= rawMeter.Get(metrics.ShuffleBytes) {
		t.Errorf("pushdown did not reduce shuffle: %d vs %d",
			optMeter.Get(metrics.ShuffleBytes), rawMeter.Get(metrics.ShuffleBytes))
	}
}

func TestAggregates(t *testing.T) {
	rel := usersMem(t, 90) // ages 0..79, cities cycle sf,nyc,la
	lp := &plan.AggregateNode{
		GroupBy: []plan.NamedExpr{{Expr: plan.Col("city"), Name: "city"}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggCount, Name: "n"},
			{Kind: plan.AggSum, Arg: plan.Col("score"), Name: "total"},
			{Kind: plan.AggMin, Arg: plan.Col("age"), Name: "min_age"},
			{Kind: plan.AggMax, Arg: plan.Col("age"), Name: "max_age"},
			{Kind: plan.AggAvg, Arg: plan.Col("score"), Name: "avg_score"},
		},
		Child: &plan.ScanNode{Relation: rel},
	}
	rows, _ := runPlan(t, lp)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	var totalN int64
	for _, r := range rows {
		totalN += r[1].(int64)
	}
	if totalN != 90 {
		t.Errorf("total count = %d", totalN)
	}
	// Check one group's numbers exactly: city sf is i%3==0 → 30 rows.
	for _, r := range rows {
		if r[0] != "sf" {
			continue
		}
		if r[1].(int64) != 30 {
			t.Errorf("sf count = %v", r[1])
		}
		wantSum := 0.0
		for i := 0; i < 90; i += 3 {
			wantSum += float64(i) / 2
		}
		if math.Abs(r[2].(float64)-wantSum) > 1e-9 {
			t.Errorf("sf sum = %v, want %v", r[2], wantSum)
		}
		if math.Abs(r[5].(float64)-wantSum/30) > 1e-9 {
			t.Errorf("sf avg = %v", r[5])
		}
	}
}

func TestGlobalAggregateAndEmptyInput(t *testing.T) {
	rel := usersMem(t, 10)
	lp := &plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
		Child: &plan.ScanNode{Relation: rel},
	}
	rows, _ := runPlan(t, lp)
	if len(rows) != 1 || rows[0][0].(int64) != 10 {
		t.Errorf("count(*) = %v", rows)
	}
	empty := datasource.NewMemRelation("empty", plan.Schema{{Name: "x", Type: plan.TypeInt64}}, 1)
	lp2 := &plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}, {Kind: plan.AggSum, Arg: plan.Col("x"), Name: "s"}},
		Child: &plan.ScanNode{Relation: empty},
	}
	rows, _ = runPlan(t, lp2)
	if len(rows) != 1 || rows[0][0].(int64) != 0 || rows[0][1] != nil {
		t.Errorf("aggregates over empty = %v", rows)
	}
}

func TestStddevSamp(t *testing.T) {
	rel := datasource.NewMemRelation("v", plan.Schema{{Name: "x", Type: plan.TypeFloat64}}, 2)
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	rows := make([]plan.Row, len(vals))
	for i, v := range vals {
		rows[i] = plan.Row{v}
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	lp := &plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggStddevSamp, Arg: plan.Col("x"), Name: "sd"}},
		Child: &plan.ScanNode{Relation: rel},
	}
	out, _ := runPlan(t, lp)
	// Sample stddev of the classic dataset: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := out[0][0].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("stddev_samp = %v, want %v", got, want)
	}
}

func TestCountDistinct(t *testing.T) {
	rel := usersMem(t, 90)
	lp := &plan.AggregateNode{
		Aggs:  []plan.AggExpr{{Kind: plan.AggCountDistinct, Arg: plan.Col("city"), Name: "cities"}},
		Child: &plan.ScanNode{Relation: rel},
	}
	rows, _ := runPlan(t, lp)
	if rows[0][0].(int64) != 3 {
		t.Errorf("count distinct = %v", rows[0][0])
	}
}

func TestSortAndLimit(t *testing.T) {
	rel := usersMem(t, 30)
	lp := &plan.LimitNode{
		N: 5,
		Child: &plan.SortNode{
			Orders: []plan.SortOrder{{Expr: plan.Col("age"), Desc: true}, {Expr: plan.Col("id")}},
			Child:  &plan.ScanNode{Relation: rel},
		},
	}
	rows, _ := runPlan(t, lp)
	if len(rows) != 5 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	schema := plan.Schema{{Name: "id", Type: plan.TypeString}, {Name: "age", Type: plan.TypeInt32}, {Name: "city", Type: plan.TypeString}, {Name: "score", Type: plan.TypeFloat64}}
	ageIdx := schema.IndexOf("age")
	if !sort.SliceIsSorted(rows, func(i, j int) bool {
		return rows[i][ageIdx].(int32) > rows[j][ageIdx].(int32)
	}) {
		t.Error("rows not sorted desc by age")
	}
}

func TestSchedulerLocality(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 2, m)
	ran := make([]bool, 4)
	tasks := []Task{
		{PreferredHost: "h1", Run: func(context.Context) error { ran[0] = true; return nil }},
		{PreferredHost: "h2", Run: func(context.Context) error { ran[1] = true; return nil }},
		{PreferredHost: "elsewhere", Run: func(context.Context) error { ran[2] = true; return nil }},
		{Run: func(context.Context) error { ran[3] = true; return nil }},
	}
	if err := s.Run(tasks); err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("task %d did not run", i)
		}
	}
	if m.Get(metrics.TasksLaunched) != 4 {
		t.Errorf("launched = %d", m.Get(metrics.TasksLaunched))
	}
	if m.Get(metrics.TasksLocal) != 2 {
		t.Errorf("local = %d", m.Get(metrics.TasksLocal))
	}
}

func TestSchedulerErrorPropagation(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1"}, 1, m)
	err := s.Run([]Task{
		{Run: func(context.Context) error { return nil }},
		{Run: func(context.Context) error { return fmt.Errorf("task boom") }},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
	empty := NewScheduler(nil, 1, m)
	if err := empty.Run(nil); err == nil {
		t.Error("scheduler without hosts must fail")
	}
}

func TestCompileRejectsUnscannableRelation(t *testing.T) {
	bad := &planOnlyRelation{}
	if _, err := Compile(&plan.ScanNode{Relation: bad}); err == nil {
		t.Error("relation without scan support must fail to compile")
	}
}

type planOnlyRelation struct{}

func (planOnlyRelation) Name() string        { return "bad" }
func (planOnlyRelation) Schema() plan.Schema { return plan.Schema{{Name: "x", Type: plan.TypeInt64}} }

func TestTranslateFilterShapes(t *testing.T) {
	schema := plan.Schema{{Name: "age", Type: plan.TypeInt32}, {Name: "name", Type: plan.TypeString}}
	cases := []struct {
		e    plan.Expr
		want string
	}{
		{&plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: plan.Lit(5)}, "age = 5"},
		{&plan.Comparison{Op: plan.OpLt, L: plan.Lit(5), R: plan.Col("age")}, "age > 5"},
		{&plan.Comparison{Op: plan.OpNe, L: plan.Col("age"), R: plan.Lit(5)}, "age != 5"},
		{&plan.In{E: plan.Col("name"), Values: []plan.Expr{plan.Lit("a")}}, `name IN (a)`},
		{&plan.In{E: plan.Col("name"), Values: []plan.Expr{plan.Lit("a")}, Negate: true}, `name NOT IN (a)`},
		{&plan.Like{E: plan.Col("name"), Pattern: "pre%"}, `name LIKE "pre"%`},
		{&plan.And{
			L: &plan.Comparison{Op: plan.OpGe, L: plan.Col("age"), R: plan.Lit(1)},
			R: &plan.Comparison{Op: plan.OpLe, L: plan.Col("age"), R: plan.Lit(9)},
		}, "(age >= 1 AND age <= 9)"},
		{&plan.Or{
			L: &plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: plan.Lit(1)},
			R: &plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: plan.Lit(2)},
		}, "(age = 1 OR age = 2)"},
	}
	for _, c := range cases {
		f, ok := translateFilter(c.e, schema, nil)
		if !ok {
			t.Errorf("translateFilter(%s) failed", c.e)
			continue
		}
		if f.String() != c.want {
			t.Errorf("translateFilter(%s) = %q, want %q", c.e, f, c.want)
		}
	}
	// Untranslatable shapes.
	for _, e := range []plan.Expr{
		&plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: plan.Col("name")},
		&plan.Like{E: plan.Col("name"), Pattern: "%suffix"},
		&plan.Comparison{Op: plan.OpEq, L: plan.Col("ghost"), R: plan.Lit(1)},
		&plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: plan.Lit("not-an-int")},
	} {
		if _, ok := translateFilter(e, schema, nil); ok {
			t.Errorf("translateFilter(%s) should fail", e)
		}
	}
}

func TestExplainRendersTree(t *testing.T) {
	rel := usersMem(t, 5)
	lp := &plan.FilterNode{
		Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")},
		Child: &plan.ScanNode{Relation: rel},
	}
	phys, err := Compile(plan.Optimize(lp))
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(phys)
	if !strings.Contains(out, "FilterExec") || !strings.Contains(out, "ScanExec") {
		t.Errorf("Explain:\n%s", out)
	}
}

// TestGroupKeySeparatorCollision pins the length-delimited key encoding:
// values containing the old separator must land in distinct groups.
func TestGroupKeySeparatorCollision(t *testing.T) {
	rel := datasource.NewMemRelation("g", plan.Schema{
		{Name: "a", Type: plan.TypeString},
		{Name: "b", Type: plan.TypeString},
	}, 1)
	if err := rel.Insert([]plan.Row{
		{"x|", "y"},
		{"x", "|y"},
		{"x", "|y"},
	}); err != nil {
		t.Fatal(err)
	}
	lp := &plan.AggregateNode{
		GroupBy: []plan.NamedExpr{{Expr: plan.Col("a"), Name: "a"}, {Expr: plan.Col("b"), Name: "b"}},
		Aggs:    []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
		Child:   &plan.ScanNode{Relation: rel},
	}
	rows, _ := runPlan(t, lp)
	if len(rows) != 2 {
		t.Fatalf("groups = %v (separator collision)", rows)
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[fmt.Sprintf("%v/%v", r[0], r[1])] = r[2].(int64)
	}
	if counts["x|/y"] != 1 || counts["x/|y"] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

// TestJoinKeySeparatorCollision: join keys with embedded delimiters must
// not cross-match.
func TestJoinKeySeparatorCollision(t *testing.T) {
	l := datasource.NewMemRelation("l", plan.Schema{
		{Name: "k1", Type: plan.TypeString}, {Name: "k2", Type: plan.TypeString},
	}, 1)
	r := datasource.NewMemRelation("r", plan.Schema{
		{Name: "j1", Type: plan.TypeString}, {Name: "j2", Type: plan.TypeString},
	}, 1)
	if err := l.Insert([]plan.Row{{"a;", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert([]plan.Row{{"a", ";b"}}); err != nil {
		t.Fatal(err)
	}
	lp := &plan.JoinNode{
		Left: &plan.ScanNode{Relation: l}, Right: &plan.ScanNode{Relation: r},
		LeftKeys:  []plan.Expr{plan.Col("k1"), plan.Col("k2")},
		RightKeys: []plan.Expr{plan.Col("j1"), plan.Col("j2")},
	}
	rows, _ := runPlan(t, lp)
	if len(rows) != 0 {
		t.Errorf("distinct composite keys must not match: %v", rows)
	}
}
