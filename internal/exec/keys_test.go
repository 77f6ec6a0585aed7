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

// TestJoinKeySemantics pins the equality the key bytes give every join
// strategy: an int32 key matches an equal int64 key, NULL keys never match
// (not even each other), and a left-outer join NULL-extends the rest.
func TestJoinKeySemantics(t *testing.T) {
	left := &rowsExec{
		schema: plan.Schema{{Name: "k", Type: plan.TypeInt32}, {Name: "l", Type: plan.TypeString}},
		rows:   []plan.Row{{int32(7), "seven"}, {nil, "null"}, {int32(8), "eight"}},
	}
	right := &rowsExec{
		schema: plan.Schema{{Name: "j", Type: plan.TypeInt64}, {Name: "r", Type: plan.TypeString}},
		rows:   []plan.Row{{int64(7), "SEVEN"}, {nil, "NULL"}, {int64(9), "NINE"}},
	}
	out := append(append(plan.Schema{}, left.schema...), right.schema...)
	lKeys, rKeys := resolved(t, left.schema, "k"), resolved(t, right.schema, "j")
	for _, jt := range []plan.JoinType{plan.InnerJoin, plan.LeftOuterJoin} {
		want := []string{"[7 seven 7 SEVEN]"}
		if jt == plan.LeftOuterJoin {
			want = []string{"[7 seven 7 SEVEN]", "[8 eight <nil> <nil>]", "[<nil> null <nil> <nil>]"}
		}
		for _, slots := range []int{1, 2, 4} {
			for _, smj := range []bool{false, true} {
				name := fmt.Sprintf("hash/%d-slot", slots)
				var p PhysicalPlan = &HashJoinExec{
					Left: left, Right: right, LeftKeys: lKeys, RightKeys: rKeys,
					Type: jt, OutSchema: out,
				}
				if smj {
					name = fmt.Sprintf("sort-merge/%d-slot", slots)
					p = &SortMergeJoinExec{
						Left: left, Right: right, LeftKeys: lKeys, RightKeys: rKeys,
						Type: jt, OutSchema: out,
					}
				}
				rows, err := p.Execute(slotsCtx(slots))
				if err != nil {
					t.Fatalf("%s %s: %v", jt, name, err)
				}
				if got := canonical(rows); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s %s: rows = %q, want %q", jt, name, got, want)
				}
			}
		}
	}
}
