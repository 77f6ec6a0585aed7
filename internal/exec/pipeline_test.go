package exec

import (
	"context"
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// runWith compiles and executes lp under the given config.
func runWith(t *testing.T, lp plan.LogicalPlan, cfg CompileConfig) ([]plan.Row, *metrics.Registry) {
	t.Helper()
	ctx, m := testCtx()
	return runIn(t, ctx, lp, cfg), m
}

// runIn is runWith on a caller-built context.
func runIn(t *testing.T, ctx *Context, lp plan.LogicalPlan, cfg CompileConfig) []plan.Row {
	t.Helper()
	opt := plan.Optimize(lp)
	phys, err := CompileWith(opt, cfg)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Format(opt))
	}
	rows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, Explain(phys))
	}
	return rows
}

func rowsEqual(t *testing.T, name string, got, want []plan.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: pipelined rows = %d, materialized = %d", name, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// pipelineFusionCases are fused chains over users (usersMem) and orders
// (ordersMem): filters, projections and limits, with and without a
// residual predicate, and pipelines under a sort and a join.
func pipelineFusionCases(users, orders plan.Relation) []planCase {
	scanU := func() *plan.ScanNode { return &plan.ScanNode{Relation: users} }
	return []planCase{
		{"filter-project", func() plan.LogicalPlan {
			return &plan.ProjectNode{
				Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
				Child: &plan.FilterNode{
					Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(5)},
					Child: scanU(),
				},
			}
		}},
		{"project-limit", func() plan.LogicalPlan {
			return &plan.LimitNode{N: 17, Child: &plan.ProjectNode{
				Exprs: []plan.NamedExpr{
					{Expr: plan.Col("id"), Name: "id"},
					{Expr: plan.Col("city"), Name: "city"},
				},
				Child: scanU(),
			}}
		}},
		{"residual-filter-limit", func() plan.LogicalPlan {
			// age > score compares two columns: untranslatable to a source
			// filter, so the pipeline keeps a residual Cond.
			return &plan.LimitNode{N: 9, Child: &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")},
				Child: scanU(),
			}}
		}},
		{"filter-only", func() plan.LogicalPlan {
			return &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpEq, L: plan.Col("city"), R: plan.Lit("sf")},
				Child: scanU(),
			}
		}},
		{"limit-exceeds-rows", func() plan.LogicalPlan {
			return &plan.LimitNode{N: 10000, Child: scanU()}
		}},
		{"limit-zero", func() plan.LogicalPlan {
			return &plan.LimitNode{N: 0, Child: &plan.ProjectNode{
				Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
				Child: scanU(),
			}}
		}},
		{"sort-above-pipeline", func() plan.LogicalPlan {
			return &plan.SortNode{
				Orders: []plan.SortOrder{{Expr: plan.Col("id")}},
				Child: &plan.FilterNode{
					Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(10)},
					Child: scanU(),
				},
			}
		}},
		{"join-above-pipelines", func() plan.LogicalPlan {
			return &plan.JoinNode{
				Left: &plan.FilterNode{
					Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(40)},
					Child: scanU(),
				},
				Right:     &plan.ScanNode{Relation: orders},
				LeftKeys:  []plan.Expr{plan.Col("id")},
				RightKeys: []plan.Expr{plan.Col("uid")},
				Type:      plan.InnerJoin,
			}
		}},
	}
}

// TestPipelineFusionEquivalence pins the core correctness contract: every
// query produces identical rows (values AND order) through the fused
// streaming path and the materialized path.
func TestPipelineFusionEquivalence(t *testing.T) {
	cases := pipelineFusionCases(usersMem(t, 500), ordersMem(t, 200))
	for _, c := range cases {
		streamed, _ := runWith(t, c.lp(), CompileConfig{})
		materialized, _ := runWith(t, c.lp(), CompileConfig{DisablePipelining: true})
		rowsEqual(t, c.name, streamed, materialized)
	}
}

// TestFuseChainShapes pins which trees fuse and which stay materialized.
func TestFuseChainShapes(t *testing.T) {
	users := usersMem(t, 50)
	lp := &plan.LimitNode{N: 5, Child: &plan.ProjectNode{
		Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
		Child: &plan.FilterNode{
			Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")},
			Child: &plan.ScanNode{Relation: users},
		},
	}}
	phys, err := CompileWith(plan.Optimize(lp), CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ok := phys.(*PipelineExec)
	if !ok {
		t.Fatalf("root = %T, want *PipelineExec\n%s", phys, Explain(phys))
	}
	if pipe.Limit != 5 || pipe.Exprs == nil || pipe.Cond == nil {
		t.Errorf("pipeline did not absorb all stages: %s", pipe.Explain())
	}
	// The original chain stays visible to EXPLAIN.
	out := Explain(phys)
	for _, want := range []string{"PipelineExec", "LimitExec", "ProjectExec", "FilterExec", "ScanExec"} {
		if !containsLine(out, want) {
			t.Errorf("Explain lacks %s:\n%s", want, out)
		}
	}
	// A bare scan does not fuse.
	bare, err := CompileWith(plan.Optimize(&plan.ScanNode{Relation: users}), CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := bare.(*PipelineExec); ok {
		t.Error("bare scan must not fuse")
	}
	// DisablePipelining keeps the materialized operators.
	mat, err := CompileWith(plan.Optimize(lp), CompileConfig{DisablePipelining: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mat.(*LimitExec); !ok {
		t.Errorf("disabled root = %T, want *LimitExec", mat)
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPipelineLimitShortCircuit pins the limit machinery: a fused LIMIT
// stops streaming early, meters the rows it dropped unprocessed, and the
// streamed peak memory stays below the bytes the materialized path holds.
func TestPipelineLimitShortCircuit(t *testing.T) {
	users := usersMem(t, 2000)
	lp := &plan.LimitNode{N: 3, Child: &plan.FilterNode{
		// Residual (column-vs-column) predicate: the source cannot take a
		// limit hint, so batches over-deliver and the pipeline cuts them.
		Cond:  &plan.Comparison{Op: plan.OpGt, L: plan.Col("age"), R: plan.Col("score")},
		Child: &plan.ScanNode{Relation: users},
	}}
	rows, m := runWith(t, lp, CompileConfig{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if m.Get(metrics.BatchesStreamed) == 0 {
		t.Error("pipeline must stream batches")
	}
	if m.Get(metrics.RowsShortCircuited) == 0 {
		t.Error("limit must drop in-flight rows unprocessed")
	}
	if m.Get(metrics.MemoryPeak) == 0 || m.Get(metrics.MemoryCharged) == 0 {
		t.Error("pipeline must meter charged bytes and the high-water mark")
	}
}

// TestPipelinePeakMemoryBelowMaterialized compares the same selective scan
// through both paths: releasing batches after processing must cap the
// streamed high-water mark below the materialized one. Both run on one
// executor slot, so partitions run one at a time and the streamed peak is
// one batch plus the rows kept so far, whatever the scheduler does; with
// more slots it depends on how many partitions' batches happen to be held
// at once.
func TestPipelinePeakMemoryBelowMaterialized(t *testing.T) {
	users := usersMem(t, 4000)
	lp := func() plan.LogicalPlan {
		return &plan.ProjectNode{
			Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
			Child: &plan.FilterNode{
				Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(2)},
				Child: &plan.ScanNode{Relation: users},
			},
		}
	}
	oneSlot := func() (*Context, *metrics.Registry) {
		m := metrics.NewRegistry()
		return &Context{Scheduler: NewScheduler([]string{"h1"}, 1, m), Meter: m, ShufflePartitions: 4}, m
	}
	sctx, sm := oneSlot()
	runIn(t, sctx, lp(), CompileConfig{})
	mctx, mm := oneSlot()
	runIn(t, mctx, lp(), CompileConfig{DisablePipelining: true})
	speak, mpeak := sm.Get(metrics.MemoryPeak), mm.Get(metrics.MemoryPeak)
	if speak == 0 || mpeak == 0 {
		t.Fatalf("peaks not tracked: streamed=%d materialized=%d", speak, mpeak)
	}
	if speak >= mpeak {
		t.Errorf("streamed peak (%d) should be below materialized peak (%d)", speak, mpeak)
	}
}

// TestSchedulerSpawnsAtMostQueueWorkers pins the worker-count fix: a
// one-task queue must not pay for slots-1 idle goroutines. Observable
// behaviourally: tasks run and results arrive even with huge slot counts.
func TestSchedulerSpawnsAtMostQueueWorkers(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1"}, 64, m)
	ran := 0
	if err := s.Run([]Task{{Run: func(context.Context) error { ran++; return nil }}}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
}
