package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// materialized hides an operator's type, so an aggregate over it takes
// the materialized path instead of streaming.
type materialized struct{ PhysicalPlan }

// aggOverChain is a GROUP BY a, b over a chain of two hash joins: fact
// (fk1, fk2, v) joins d1 (d1k, a) on fk1 and d2 (d2k, b) on fk2, left-deep
// ((fact ⋈ d1) ⋈ d2) or right-deep (d2 ⋈ (fact ⋈ d1)), with t1 and t2 the
// two joins' types. Each call builds a fresh operator tree.
type aggOverChain struct {
	fact, d1, d2 *rowsExec
	t1, t2       plan.JoinType
	rightDeep    bool
}

func (c aggOverChain) plan(tb testing.TB) (*HashAggExec, *HashJoinExec) {
	join := func(l, r PhysicalPlan, lk, rk string, jt plan.JoinType) *HashJoinExec {
		return &HashJoinExec{
			Left: l, Right: r,
			LeftKeys:  resolved(tb, l.Schema(), lk),
			RightKeys: resolved(tb, r.Schema(), rk),
			Type:      jt,
			OutSchema: append(append(plan.Schema{}, l.Schema()...), r.Schema()...),
		}
	}
	j1 := join(c.fact, c.d1, "fk1", "d1k", c.t1)
	j2 := join(j1, c.d2, "fk2", "d2k", c.t2)
	if c.rightDeep {
		j2 = join(c.d2, j1, "d2k", "fk2", c.t2)
	}
	in := j2.OutSchema
	groups := resolved(tb, in, "a", "b")
	v := resolved(tb, in, "v")[0]
	b := resolved(tb, in, "b")[0]
	return &HashAggExec{
		GroupBy: []plan.NamedExpr{{Expr: groups[0], Name: "a"}, {Expr: groups[1], Name: "b"}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggCount, Name: "n"},
			{Kind: plan.AggCount, Arg: b, Name: "nb"},
			{Kind: plan.AggSum, Arg: v, Name: "s"},
			{Kind: plan.AggAvg, Arg: v, Name: "m"},
			{Kind: plan.AggMin, Arg: v, Name: "lo"},
			{Kind: plan.AggMax, Arg: v, Name: "hi"},
			{Kind: plan.AggStddevSamp, Arg: v, Name: "sd"},
		},
		Child: j2,
	}, j2
}

// stddevCol is the output column of aggOverChain's stddev_samp.
const stddevCol = 8

// sameGroups reports how got and want differ as sets of groups, or "".
// Every column compares by its %#v rendering, bit for bit for floats,
// except stddev_samp: Welford's running mean is exact only in one fold
// order, and where the materialized join built on its smaller side its
// rows come in another.
func sameGroups(got, want []plan.Row) string {
	index := func(rows []plan.Row) (map[string]plan.Row, string) {
		m := make(map[string]plan.Row, len(rows))
		for _, r := range rows {
			k := fmt.Sprintf("%#v", r[:2])
			if _, dup := m[k]; dup {
				return nil, "duplicate group " + k
			}
			m[k] = r
		}
		return m, ""
	}
	g, msg := index(got)
	if msg != "" {
		return msg
	}
	w, _ := index(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d groups, want %d", len(g), len(w))
	}
	for k, wr := range w {
		gr, ok := g[k]
		if !ok {
			return "missing group " + k
		}
		for j := range wr {
			if j == stddevCol && wr[j] != nil && gr[j] != nil {
				x, y := gr[j].(float64), wr[j].(float64)
				if math.Abs(x-y) > 1e-9*math.Max(1, math.Abs(y)) {
					return fmt.Sprintf("group %s stddev %v, want %v", k, x, y)
				}
				continue
			}
			if a, b := fmt.Sprintf("%#v", gr[j]), fmt.Sprintf("%#v", wr[j]); a != b {
				return fmt.Sprintf("group %s column %d = %s, want %s", k, j, a, b)
			}
		}
	}
	return ""
}

// TestStreamedAggregateMatchesMaterialized: a GROUP BY over a chain of
// hash joins, which streams the chain into its fold through one reused row
// per join, gives the groups the same aggregate gives over the chain's
// materialized rows, on 1, 2 and 4 slots, running no probe task where
// every join streams. The
// tables are int-keyed (an int64 key against int32 ones, with stray
// string values that do and do not spell an integer) or byte-keyed, have
// NULL keys and duplicate build keys, and each join is inner or
// left-outer; a right-deep chain streams its right child when the top
// join is inner. Instrumented, every join reports the rows its
// materialized run returns.
func TestStreamedAggregateMatchesMaterialized(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed int64, byteKeys, outer1, outer2, rightDeep bool) bool {
		rng := rand.New(rand.NewSource(seed))
		key := func(dim bool) any {
			k := rng.Intn(6)
			switch r := rng.Intn(12); {
			case r == 0:
				return nil // NULL keys never match
			case r == 1:
				return strconv.Itoa(k) // a stray value that spells the key
			case r == 2:
				return "x" + strconv.Itoa(k) // a stray value that matches nothing
			case byteKeys:
				return "k" + strconv.Itoa(k)
			case dim:
				return int32(k)
			}
			return int64(k)
		}
		keyType := func(dim bool) plan.DataType {
			switch {
			case byteKeys:
				return plan.TypeString
			case dim:
				return plan.TypeInt32
			}
			return plan.TypeInt64
		}
		c := aggOverChain{
			fact: &rowsExec{schema: plan.Schema{{Name: "fk1", Type: keyType(false)}, {Name: "fk2", Type: keyType(false)}, {Name: "v", Type: plan.TypeFloat64}}},
			d1:   &rowsExec{schema: plan.Schema{{Name: "d1k", Type: keyType(true)}, {Name: "a", Type: plan.TypeString}}},
			d2:   &rowsExec{schema: plan.Schema{{Name: "d2k", Type: keyType(true)}, {Name: "b", Type: plan.TypeInt64}}},
			t1:   plan.InnerJoin, t2: plan.InnerJoin, rightDeep: rightDeep,
		}
		if outer1 {
			c.t1 = plan.LeftOuterJoin
		}
		if outer2 {
			c.t2 = plan.LeftOuterJoin
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			// Quarters sum exactly in any order, so sum and avg compare
			// bit for bit.
			c.fact.rows = append(c.fact.rows, plan.Row{key(false), key(false), float64(rng.Intn(400)) / 4})
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			c.d1.rows = append(c.d1.rows, plan.Row{key(true), "a" + strconv.Itoa(rng.Intn(3))})
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			c.d2.rows = append(c.d2.rows, plan.Row{key(true), int64(rng.Intn(3))})
		}
		for _, slots := range []int{1, 2, 4} {
			ref, _ := c.plan(t)
			ref.Child = materialized{ref.Child}
			want, err := ref.Execute(slotsCtx(slots))
			if err != nil {
				t.Fatal(err)
			}
			streamed, _ := c.plan(t)
			ctx := slotsCtx(slots)
			got, err := streamed.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if msg := sameGroups(got, want); msg != "" {
				t.Logf("seed %d (%s, %s, right-deep %v, byte keys %v, %d slots): %s\n got %v\nwant %v",
					seed, c.t1, c.t2, rightDeep, byteKeys, slots, msg, got, want)
				return false
			}
			// A left-outer join streams only its left child, so a
			// right-deep chain under one materializes its lower join.
			streamsAll := !rightDeep || c.t2 == plan.InnerJoin
			if n := ctx.Meter.Get(metrics.TasksLaunched); streamsAll && n != 0 {
				t.Logf("seed %d (%s, %s, right-deep %v): the streamed chain launched %d tasks", seed, c.t1, c.t2, rightDeep, n)
				return false
			}
			if msg := streamedActuals(t, c, slots); msg != "" {
				t.Logf("seed %d (%s, %s, right-deep %v, %d slots): %s", seed, c.t1, c.t2, rightDeep, slots, msg)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// streamedActuals runs c's aggregate instrumented, as EXPLAIN ANALYZE does,
// and reports any join whose actual rows differ from what the same join
// returns materialized.
func streamedActuals(t *testing.T, c aggOverChain, slots int) string {
	agg, _ := c.plan(t)
	root := Instrument(agg)
	if _, err := root.Execute(slotsCtx(slots)); err != nil {
		t.Fatal(err)
	}
	_, fresh := c.plan(t)
	var walk func(inst, plain PhysicalPlan) string
	walk = func(inst, plain PhysicalPlan) string {
		if j, ok := plain.(*HashJoinExec); ok {
			rows, err := j.Execute(slotsCtx(slots))
			if err != nil {
				t.Fatal(err)
			}
			st, _ := OpStatsOf(inst)
			if !st.Executed || st.Rows != int64(len(rows)) {
				return fmt.Sprintf("%s: actual rows %d (executed %v), materialized %d", j.Explain(), st.Rows, st.Executed, len(rows))
			}
			for i, child := range j.Children() {
				if msg := walk(inst.Children()[i], child); msg != "" {
					return msg
				}
			}
		}
		return ""
	}
	return walk(root.Children()[0], fresh)
}
