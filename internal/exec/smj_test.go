package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

func joinPlanFor(users, orders *datasource.MemRelation, jt plan.JoinType) plan.LogicalPlan {
	return &plan.JoinNode{
		Left:      &plan.ScanNode{Relation: users, Alias: "u"},
		Right:     &plan.ScanNode{Relation: orders, Alias: "o"},
		LeftKeys:  []plan.Expr{plan.Col("u.id")},
		RightKeys: []plan.Expr{plan.Col("o.uid")},
		Type:      jt,
	}
}

func runJoin(t *testing.T, lp plan.LogicalPlan, smj bool) []plan.Row {
	t.Helper()
	ctx, _ := testCtx()
	phys, err := CompileWith(plan.Optimize(lp), CompileConfig{SortMergeJoin: smj})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := phys.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func canonical(rows []plan.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func TestSortMergeJoinMatchesHashJoin(t *testing.T) {
	users := usersMem(t, 60)
	orders := ordersMem(t, 120)
	for _, jt := range []plan.JoinType{plan.InnerJoin, plan.LeftOuterJoin} {
		hash := canonical(runJoin(t, joinPlanFor(users, orders, jt), false))
		smj := canonical(runJoin(t, joinPlanFor(users, orders, jt), true))
		if len(hash) != len(smj) {
			t.Fatalf("%s: %d vs %d rows", jt, len(hash), len(smj))
		}
		for i := range hash {
			if hash[i] != smj[i] {
				t.Fatalf("%s row %d: %s vs %s", jt, i, hash[i], smj[i])
			}
		}
	}
}

func TestSortMergeJoinExplain(t *testing.T) {
	users := usersMem(t, 5)
	orders := ordersMem(t, 5)
	phys, err := CompileWith(plan.Optimize(joinPlanFor(users, orders, plan.InnerJoin)), CompileConfig{SortMergeJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := "SortMergeJoinExec[Inner]"; !containsStr(Explain(phys), want) {
		t.Errorf("Explain missing %q:\n%s", want, Explain(phys))
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestJoinStrategiesAgreeProperty joins randomly generated tables (with
// duplicate and NULL keys) under hash (four buckets), sort-merge, and hash
// on a one-slot scheduler (one bucket) and demands identical multisets of
// output rows.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed int64, outer bool) bool {
		rng := rand.New(rand.NewSource(seed))
		left := datasource.NewMemRelation("l", plan.Schema{
			{Name: "k", Type: plan.TypeInt64}, {Name: "lv", Type: plan.TypeInt64},
		}, 3)
		right := datasource.NewMemRelation("r", plan.Schema{
			{Name: "k2", Type: plan.TypeInt64}, {Name: "rv", Type: plan.TypeInt64},
		}, 3)
		fill := func(rel *datasource.MemRelation, n int) {
			rows := make([]plan.Row, n)
			for i := range rows {
				var k any
				if rng.Intn(8) == 0 {
					k = nil // NULL keys never match
				} else {
					k = int64(rng.Intn(10)) // heavy duplication
				}
				rows[i] = plan.Row{k, int64(i)}
			}
			if err := rel.Insert(rows); err != nil {
				panic(err)
			}
		}
		fill(left, rng.Intn(40))
		fill(right, rng.Intn(40))
		jt := plan.InnerJoin
		if outer {
			jt = plan.LeftOuterJoin
		}
		lp := &plan.JoinNode{
			Left:      &plan.ScanNode{Relation: left},
			Right:     &plan.ScanNode{Relation: right},
			LeftKeys:  []plan.Expr{plan.Col("k")},
			RightKeys: []plan.Expr{plan.Col("k2")},
			Type:      jt,
		}
		hash := canonical(runJoin(t, lp, false))
		smj := canonical(runJoin(t, lp, true))
		// One bucket: nothing is split by key.
		phys, err := CompileWith(plan.Optimize(lp), CompileConfig{})
		if err != nil {
			return false
		}
		rows, err := phys.Execute(slotsCtx(1))
		if err != nil {
			return false
		}
		single := canonical(rows)
		if len(hash) != len(smj) || len(hash) != len(single) {
			t.Logf("seed %d (%s): hash=%d smj=%d single=%d", seed, jt, len(hash), len(smj), len(single))
			return false
		}
		for i := range hash {
			if hash[i] != smj[i] || hash[i] != single[i] {
				t.Logf("seed %d (%s) row %d: %s / %s / %s", seed, jt, i, hash[i], smj[i], single[i])
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
