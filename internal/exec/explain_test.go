package exec

import (
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/plan"
)

// TestExplainCoversAllOperators compiles a plan touching every physical
// operator and walks the whole tree's Schema/Children/Explain surface.
func TestExplainCoversAllOperators(t *testing.T) {
	users := usersMem(t, 20)
	orders := ordersMem(t, 20)
	lp := &plan.LimitNode{N: 5, Child: &plan.SortNode{
		Orders: []plan.SortOrder{{Expr: plan.Col("n"), Desc: true}},
		Child: &plan.AggregateNode{
			GroupBy: []plan.NamedExpr{{Expr: plan.Col("u.city"), Name: "city"}},
			Aggs:    []plan.AggExpr{{Kind: plan.AggCount, Name: "n"}},
			Child: &plan.FilterNode{
				Cond: &plan.Comparison{Op: plan.OpGt, L: plan.Col("o.amount"), R: plan.Col("u.score")},
				Child: &plan.JoinNode{
					Left:      &plan.ScanNode{Relation: users, Alias: "u"},
					Right:     &plan.ScanNode{Relation: orders, Alias: "o"},
					LeftKeys:  []plan.Expr{plan.Col("u.id")},
					RightKeys: []plan.Expr{plan.Col("o.uid")},
					Type:      plan.LeftOuterJoin,
				},
			},
		},
	}}
	union := &plan.UnionNode{Inputs: []plan.LogicalPlan{lp, plan.ClonePlan(lp)}}
	phys, err := CompileWith(plan.Optimize(union), CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(phys)
	for _, want := range []string{"UnionExec", "LimitExec", "SortExec", "HashAggExec", "FilterExec", "HashJoinExec[LeftOuter]", "ScanExec"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Walk every node's surface.
	var walk func(PhysicalPlan)
	walk = func(p PhysicalPlan) {
		if p.Explain() == "" {
			t.Errorf("%T has empty Explain", p)
		}
		_ = p.Schema()
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(phys)
	ctx, _ := testCtx()
	if _, err := phys.Execute(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePartitionsFallbacks(t *testing.T) {
	m := (&Context{Scheduler: NewScheduler([]string{"a"}, 3, nil)})
	if m.shufflePartitions() != 3 {
		t.Errorf("default = %d", m.shufflePartitions())
	}
	// A scheduler with no hosts has no slots; the shuffle still needs one
	// bucket.
	m = &Context{Scheduler: NewScheduler(nil, 3, nil)}
	if m.shufflePartitions() != 1 {
		t.Errorf("no slots = %d", m.shufflePartitions())
	}
}

func TestFlipOpAll(t *testing.T) {
	cases := map[plan.CmpOp]plan.CmpOp{
		plan.OpLt: plan.OpGt,
		plan.OpLe: plan.OpGe,
		plan.OpGt: plan.OpLt,
		plan.OpGe: plan.OpLe,
		plan.OpEq: plan.OpEq,
		plan.OpNe: plan.OpNe,
	}
	for in, want := range cases {
		if got := flipOp(in); got != want {
			t.Errorf("flipOp(%s) = %s, want %s", in, got, want)
		}
	}
}
