package exec

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// leaveUnhandled is a memory relation that reports unhandled every filter
// leave picks, though it evaluates them all.
type leaveUnhandled struct {
	*datasource.MemRelation
	leave func(datasource.Filter) bool
}

func (r leaveUnhandled) BuildScan(cols []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	parts, _, err := r.MemRelation.BuildScan(cols, filters)
	var unhandled []int
	for i, f := range filters {
		if r.leave(f) {
			unhandled = append(unhandled, i)
		}
	}
	return parts, unhandled, err
}

// slotLit is the literal the SQL front end makes from a query's slot-th
// literal token.
func slotLit(v any, slot int) *plan.Literal {
	l := plan.Lit(v)
	l.Slot = slot
	return l
}

// lookupPlan is SELECT id FROM rel WHERE age = <slot 1> AND city = <slot 2>,
// optimized, with the literals of vals.
func lookupPlan(rel plan.Relation, vals []any) plan.LogicalPlan {
	return plan.Optimize(&plan.ProjectNode{
		Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}},
		Child: &plan.FilterNode{
			Cond: &plan.And{
				L: &plan.Comparison{Op: plan.OpEq, L: plan.Col("age"), R: slotLit(vals[0], 1)},
				R: &plan.Comparison{Op: plan.OpEq, L: plan.Col("city"), R: slotLit(vals[1], 2)},
			},
			Child: &plan.ScanNode{Relation: rel},
		},
	})
}

func execute(t *testing.T, phys PhysicalPlan) []plan.Row {
	t.Helper()
	ctx, _ := testCtx()
	rows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, Explain(phys))
	}
	return rows
}

// TestPreparedBind: a plan prepared with one query's values binds another
// query's only when every slot sits in a filter the source handles and
// the new values translate and leave the same filters unhandled; whenever
// it binds, it plans and answers exactly as compiling the bound plan does.
func TestPreparedBind(t *testing.T) {
	mem := usersMem(t, 240)
	la := func(f datasource.Filter) bool { eq, ok := f.(datasource.EqualTo); return ok && eq.Value == "la" }
	cases := []struct {
		name string
		rel  plan.Relation
		vals []any
		ok   bool
	}{
		{"handled slots", mem, []any{int64(31), "nyc"}, true},
		{"no row", mem, []any{int64(90), "sf"}, true},
		{"value past the column type", mem, []any{int64(1) << 40, "nyc"}, false},
		{"slot in a residual", leaveUnhandled{mem, func(datasource.Filter) bool { return true }}, []any{int64(31), "nyc"}, false},
		{"value changes what is unhandled", leaveUnhandled{mem, la}, []any{int64(30), "la"}, false},
		{"value keeps what is unhandled", leaveUnhandled{mem, la}, []any{int64(31), "nyc"}, true},
	}
	for _, tc := range cases {
		pp, first, err := Prepare(lookupPlan(tc.rel, []any{int64(10), "nyc"}), CompileConfig{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := execute(t, first); !reflect.DeepEqual(got, []plan.Row{{"u010"}}) {
			t.Errorf("%s: preparing query: rows %v", tc.name, got)
		}
		bound, ok, err := pp.Bind(tc.vals)
		if err != nil || ok != tc.ok {
			t.Fatalf("%s: Bind ok = %v, err %v; want ok = %v", tc.name, ok, err, tc.ok)
		}
		if !ok {
			continue
		}
		fresh, err := CompileWith(lookupPlan(tc.rel, tc.vals), CompileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if Explain(bound) != Explain(fresh) {
			t.Errorf("%s: bound\n%s\ncompiled\n%s", tc.name, Explain(bound), Explain(fresh))
		}
		if got, want := execute(t, bound), execute(t, fresh); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: rows %v, compiled plan's %v", tc.name, got, want)
		}
	}
}
