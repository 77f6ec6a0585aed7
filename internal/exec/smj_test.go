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

// nestedLoopJoin is the join oracle: every (left, right) pair whose keys
// are both non-NULL and render to the same appendKey bytes, plus, for a
// left-outer join, each unmatched left row NULL-extended.
func nestedLoopJoin(left, right []plan.Row, lKey, rKey []int, rightWidth int, jt plan.JoinType) []plan.Row {
	var out []plan.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			if hasNilKey(l, lKey) || hasNilKey(r, rKey) ||
				string(appendKey(nil, l, lKey)) != string(appendKey(nil, r, rKey)) {
				continue
			}
			matched = true
			out = append(out, append(append(plan.Row{}, l...), r...))
		}
		if !matched && jt == plan.LeftOuterJoin {
			out = append(out, append(append(plan.Row{}, l...), make(plan.Row, rightWidth)...))
		}
	}
	return out
}

// TestJoinStrategiesAgreeProperty joins randomly generated tables (with
// duplicate and NULL keys, an int64 key against an int32 one) under the
// broadcast hash join on four slots and on one, and under sort-merge, and
// demands the nested-loop oracle's multiset of output rows from each.
// bigRight puts the larger table on the right, so a left-outer join builds
// on its larger side and an inner join on its left.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(func(seed int64, outer, bigRight bool) bool {
		rng := rand.New(rand.NewSource(seed))
		left := datasource.NewMemRelation("l", plan.Schema{
			{Name: "k", Type: plan.TypeInt64}, {Name: "lv", Type: plan.TypeInt64},
		}, 3)
		right := datasource.NewMemRelation("r", plan.Schema{
			{Name: "k2", Type: plan.TypeInt32}, {Name: "rv", Type: plan.TypeInt64},
		}, 3)
		fill := func(rel *datasource.MemRelation, n int, key func(int) any) []plan.Row {
			rows := make([]plan.Row, n)
			for i := range rows {
				var k any
				if rng.Intn(8) != 0 { // else NULL: NULL keys never match
					k = key(rng.Intn(10)) // heavy duplication
				}
				rows[i] = plan.Row{k, int64(i)}
			}
			if err := rel.Insert(rows); err != nil {
				panic(err)
			}
			return rows
		}
		nl, nr := rng.Intn(10), 10+rng.Intn(30)
		if !bigRight {
			nl, nr = nr, nl
		}
		lrows := fill(left, nl, func(k int) any { return int64(k) })
		rrows := fill(right, nr, func(k int) any { return int32(k) })
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
		want := canonical(nestedLoopJoin(lrows, rrows, []int{0}, []int{0}, 2, jt))
		hash := canonical(runJoin(t, lp, false))
		smj := canonical(runJoin(t, lp, true))
		phys, err := CompileWith(plan.Optimize(lp), CompileConfig{})
		if err != nil {
			return false
		}
		rows, err := phys.Execute(slotsCtx(1))
		if err != nil {
			return false
		}
		single := canonical(rows)
		for name, got := range map[string][]string{"hash": hash, "sort-merge": smj, "hash/1-slot": single} {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("seed %d (%s, %d×%d) %s:\n got %q\nwant %q", seed, jt, nl, nr, name, got, want)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
