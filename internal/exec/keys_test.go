package exec

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/plan"
)

// rowsExec is a leaf operator that returns a fixed row set, so a test or
// benchmark drives the operator above it without a scan.
type rowsExec struct {
	schema plan.Schema
	rows   []plan.Row
}

func (r *rowsExec) Schema() plan.Schema                  { return r.schema }
func (r *rowsExec) Execute(*Context) ([]plan.Row, error) { return r.rows, nil }
func (r *rowsExec) Explain() string                      { return "rowsExec" }
func (r *rowsExec) Children() []PhysicalPlan             { return nil }

// resolved returns column references bound against schema.
func resolved(tb testing.TB, schema plan.Schema, names ...string) []plan.Expr {
	tb.Helper()
	out := make([]plan.Expr, len(names))
	for i, n := range names {
		c := plan.Col(n)
		if err := plan.Resolve(c, schema); err != nil {
			tb.Fatal(err)
		}
		out[i] = c
	}
	return out
}

// keyStringOracle is the fmt-based key renderer appendKey replaced. It
// defines the key bytes: per column, len(v), ',', v, ';' where v is the %v
// rendering of the value.
func keyStringOracle(r plan.Row, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		v := fmt.Sprintf("%v", r[i])
		fmt.Fprintf(&b, "%d,%s;", len(v), v)
	}
	return b.String()
}

func TestAppendKeyMatchesFmtOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []any{
		nil,
		int8(math.MinInt8), int8(0), int8(math.MaxInt8),
		int16(math.MinInt16), int16(-7), int16(math.MaxInt16),
		int32(math.MinInt32), int32(7), int32(math.MaxInt32),
		int64(math.MinInt64), int64(7), int64(math.MaxInt64),
		int(-1), int(0), int(math.MaxInt),
		true, false,
		"", "7", "a,b", "a;b", ";", ",", "12,3;45", "1,x;", "héllo",
		float64(0), negZero, math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, -1e21, 1e20, 1e-5, 1e-4, 0.1, 123456789.125,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		float32(0), float32(negZero), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		float32(1e21), float32(1e-5), float32(0.1), float32(3.4028235e38),
		float32(math.MaxFloat32), float32(-math.MaxFloat32), float32(math.SmallestNonzeroFloat32),
		[]byte("ab,;"), []byte{}, uint8(7), uint64(math.MaxUint64),
	}
	for _, v := range values {
		row := plan.Row{v}
		if got, want := string(appendKey(nil, row, []int{0})), keyStringOracle(row, []int{0}); got != want {
			t.Errorf("%T %v: appendKey = %q, oracle = %q", v, v, got, want)
		}
	}
	// All values as one composite key, in reverse column order, appended
	// after existing bytes.
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = len(values) - 1 - i
	}
	got := string(appendKey([]byte("prefix"), values, idx))
	if want := "prefix" + keyStringOracle(values, idx); got != want {
		t.Errorf("composite key:\n got %q\nwant %q", got, want)
	}
}

func TestFNV64aMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := fnv64a(b), h.Sum64(); got != want {
			t.Fatalf("fnv64a(%x) = %x, hash/fnv = %x", b, got, want)
		}
	}
}

// joinEveryWay runs one join as a broadcast hash join on 1, 2 and 4 slots
// and, when smj is set, as a sort-merge join too, and fails the test unless
// every run returns want (as a canonical multiset). The keys are column
// names, comma-separated for a composite key. When both inputs fit their
// schemas' types, every run is repeated over scans of them stored as
// tables, whose batches are typed vectors decoded from columnar pages.
func joinEveryWay(t *testing.T, pt *pageTables, name string, left, right *rowsExec, lKey, rKey string, jt plan.JoinType, smj bool, want []string) {
	t.Helper()
	out := append(append(plan.Schema{}, left.schema...), right.schema...)
	lKeys := resolved(t, left.schema, strings.Split(lKey, ",")...)
	rKeys := resolved(t, right.schema, strings.Split(rKey, ",")...)
	inputs := map[string][2]PhysicalPlan{"rows": {left, right}}
	if storable(left.schema, left.rows) && storable(right.schema, right.rows) {
		inputs["pages"] = [2]PhysicalPlan{pt.scan(t, left.schema, left.rows), pt.scan(t, right.schema, right.rows)}
	}
	for form, in := range inputs {
		for _, slots := range []int{1, 2, 4} {
			plans := map[string]PhysicalPlan{"hash": &HashJoinExec{
				Left: in[0], Right: in[1], LeftKeys: lKeys, RightKeys: rKeys, Type: jt, OutSchema: out,
			}}
			if smj {
				plans["sort-merge"] = &SortMergeJoinExec{
					Left: in[0], Right: in[1], LeftKeys: lKeys, RightKeys: rKeys, Type: jt, OutSchema: out,
				}
			}
			for strategy, p := range plans {
				rows, err := p.Execute(slotsCtx(slots))
				if err != nil {
					t.Fatalf("%s %s %s/%s/%d-slot: %v", name, jt, form, strategy, slots, err)
				}
				if got := canonical(rows); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s %s %s/%s/%d-slot: rows = %q, want %q", name, jt, form, strategy, slots, got, want)
				}
			}
		}
	}
}

// intOf returns v as a value of the integer type t.
func intOf(t plan.DataType, v int64) any {
	switch t {
	case plan.TypeInt8:
		return int8(v)
	case plan.TypeInt16:
		return int16(v)
	case plan.TypeInt32:
		return int32(v)
	}
	return v
}

// TestJoinKeySemantics pins the equality the key bytes give every join
// strategy: integer keys of any two widths match when equal, NULL keys
// never match (not even each other), composite keys match column by
// column, and a left-outer join NULL-extends the rest. The broadcast
// join's int64 table must agree with the key bytes wherever they differ
// from plain integer equality, over boxed rows and over typed batches.
func TestJoinKeySemantics(t *testing.T) {
	pt := newPageTables(t)
	widths := []plan.DataType{plan.TypeInt8, plan.TypeInt16, plan.TypeInt32, plan.TypeInt64}
	for _, lt := range widths {
		for _, rt := range widths {
			left := &rowsExec{
				schema: plan.Schema{{Name: "k", Type: lt}, {Name: "l", Type: plan.TypeString}},
				rows:   []plan.Row{{intOf(lt, 7), "seven"}, {nil, "null"}, {intOf(lt, 8), "eight"}},
			}
			right := &rowsExec{
				schema: plan.Schema{{Name: "j", Type: rt}, {Name: "r", Type: plan.TypeString}},
				rows:   []plan.Row{{intOf(rt, 7), "SEVEN"}, {nil, "NULL"}, {intOf(rt, 9), "NINE"}},
			}
			name := fmt.Sprintf("%s=%s", lt, rt)
			joinEveryWay(t, pt, name, left, right, "k", "j", plan.InnerJoin, true, []string{"[7 seven 7 SEVEN]"})
			joinEveryWay(t, pt, name, left, right, "k", "j", plan.LeftOuterJoin, true,
				[]string{"[7 seven 7 SEVEN]", "[8 eight <nil> <nil>]", "[<nil> null <nil> <nil>]"})
		}
	}

	// A string key matches an integer key that renders the same, and only
	// a canonical rendering does: "07" and "+7" are not 7.
	strs := &rowsExec{
		schema: plan.Schema{{Name: "s", Type: plan.TypeString}},
		rows:   []plan.Row{{"7"}, {"07"}, {"+7"}, {"x"}, {nil}},
	}
	ints := &rowsExec{
		schema: plan.Schema{{Name: "i", Type: plan.TypeInt64}},
		rows:   []plan.Row{{int64(7)}, {int64(8)}, {nil}},
	}
	joinEveryWay(t, pt, "string=bigint", strs, ints, "s", "i", plan.InnerJoin, false, []string{"[7 7]"})
	joinEveryWay(t, pt, "bigint=string", ints, strs, "i", "s", plan.LeftOuterJoin, false,
		[]string{"[7 7]", "[8 <nil>]", "[<nil> <nil>]"})
	// The same without the NULL rows, which a table of one column cannot
	// hold, run over columnar pages too.
	strs.rows, ints.rows = strs.rows[:4], ints.rows[:2]
	joinEveryWay(t, pt, "string=bigint", strs, ints, "s", "i", plan.InnerJoin, false, []string{"[7 7]"})
	joinEveryWay(t, pt, "bigint=string", ints, strs, "i", "s", plan.LeftOuterJoin, false, []string{"[7 7]", "[8 <nil>]"})

	// Integer-typed columns holding other values: a probe value that
	// renders as an integer still matches, and a build value that does not
	// is keyed by its bytes and matches the same value.
	strayProbe := &rowsExec{
		schema: plan.Schema{{Name: "k", Type: plan.TypeInt32}},
		rows:   []plan.Row{{"7"}, {7.0}, {7.5}, {int32(8)}},
	}
	strayBuild := &rowsExec{
		schema: plan.Schema{{Name: "j", Type: plan.TypeInt64}},
		rows:   []plan.Row{{int64(7)}, {"x"}},
	}
	joinEveryWay(t, pt, "stray probe", strayProbe, strayBuild, "k", "j", plan.LeftOuterJoin, false,
		[]string{"[7 7]", "[7 7]", "[7.5 <nil>]", "[8 <nil>]"})
	strayBuild.rows = append(strayBuild.rows, plan.Row{7.5})
	joinEveryWay(t, pt, "stray build", strayProbe, strayBuild, "k", "j", plan.LeftOuterJoin, false,
		[]string{"[7 7]", "[7 7]", "[7.5 7.5]", "[8 <nil>]"})

	// A left-outer join builds on the right even when the right is the
	// larger side; NULL and unmatched left rows are NULL-extended.
	small := &rowsExec{
		schema: plan.Schema{{Name: "k", Type: plan.TypeInt32}},
		rows:   []plan.Row{{int32(1)}, {nil}, {int32(5)}},
	}
	large := &rowsExec{schema: plan.Schema{{Name: "j", Type: plan.TypeInt64}, {Name: "n", Type: plan.TypeInt64}}}
	for i := int64(0); i < 12; i++ {
		large.rows = append(large.rows, plan.Row{i % 3, i})
	}
	large.rows = append(large.rows, plan.Row{nil, int64(99)})
	joinEveryWay(t, pt, "outer, larger build", small, large, "k", "j", plan.LeftOuterJoin, true,
		[]string{"[1 1 10]", "[1 1 1]", "[1 1 4]", "[1 1 7]", "[5 <nil> <nil>]", "[<nil> <nil> <nil>]"})

	// A composite key matches when every column matches, integers of any
	// width by value (an int64-keyed table for two integer columns, key
	// bytes beside a string one); a NULL in any column matches nothing.
	for _, second := range []plan.DataType{plan.TypeInt16, plan.TypeString} {
		val := func(t plan.DataType, v int64) any {
			if t == plan.TypeString {
				return fmt.Sprint(v)
			}
			return intOf(t, v)
		}
		left := &rowsExec{
			schema: plan.Schema{{Name: "k", Type: plan.TypeInt32}, {Name: "s", Type: second}, {Name: "l", Type: plan.TypeString}},
			rows: []plan.Row{{int32(1), val(second, 5), "x"}, {int32(1), val(second, 6), "y"}, {int32(2), val(second, 5), "z"},
				{nil, val(second, 5), "n"}, {int32(1), nil, "m"}},
		}
		right := &rowsExec{
			schema: plan.Schema{{Name: "j", Type: plan.TypeInt64}, {Name: "u", Type: second}, {Name: "r", Type: plan.TypeString}},
			rows: []plan.Row{{int64(1), val(second, 5), "A"}, {int64(1), val(second, 5), "A2"}, {int64(2), val(second, 6), "B"},
				{nil, val(second, 5), "N"}},
		}
		name := fmt.Sprintf("composite int,%s", second)
		joinEveryWay(t, pt, name, left, right, "k,s", "j,u", plan.InnerJoin, true, []string{"[1 5 x 1 5 A2]", "[1 5 x 1 5 A]"})
		joinEveryWay(t, pt, name, left, right, "k,s", "j,u", plan.LeftOuterJoin, true, []string{"[1 5 x 1 5 A2]", "[1 5 x 1 5 A]",
			"[1 6 y <nil> <nil> <nil>]", "[1 <nil> m <nil> <nil> <nil>]", "[2 5 z <nil> <nil> <nil>]", "[<nil> 5 n <nil> <nil> <nil>]"})
	}
	if pt.n < 40 {
		t.Errorf("%d tables stored: the integer-width, string and composite cases must each also run over columnar pages", pt.n)
	}
}
