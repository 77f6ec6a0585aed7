package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// vbatch transposes rows into a fresh batch.
func vbatch(t *testing.T, schema Schema, rows []Row) *Batch {
	t.Helper()
	b := NewBatch(schema)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// compiledKeeps runs the compiled filter over all rows of b.
func compiledKeeps(t *testing.T, cond Expr, schema Schema, b *Batch) []int {
	t.Helper()
	if err := Resolve(cond, schema); err != nil {
		t.Fatal(err)
	}
	f := CompileFilter(cond, schema)
	sel, err := f.Run(b, FullSel(b.Len(), nil), NewEvalScratch(schema))
	if err != nil {
		t.Fatal(err)
	}
	return append([]int{}, sel...)
}

// interpretedKeeps is the reference: EvalPredicate row by row.
func interpretedKeeps(t *testing.T, cond Expr, schema Schema, rows []Row) []int {
	t.Helper()
	if err := Resolve(cond, schema); err != nil {
		t.Fatal(err)
	}
	keeps := []int{}
	for i, r := range rows {
		ok, err := EvalPredicate(cond, r)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			keeps = append(keeps, i)
		}
	}
	return keeps
}

func assertSameKeeps(t *testing.T, name string, cond Expr, schema Schema, rows []Row) {
	t.Helper()
	got := compiledKeeps(t, cond, schema, vbatch(t, schema, rows))
	want := interpretedKeeps(t, cond, schema, rows)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: compiled keeps %v, interpreter keeps %v", name, got, want)
	}
}

// TestCompiledFilterNullSemantics pins SQL three-valued logic through the
// vectorized filter: NULL comparisons drop rows, IS [NOT] NULL observes the
// bitmap, IN with a NULL literal never keeps a miss, and NOT flips without
// resurrecting NULLs.
func TestCompiledFilterNullSemantics(t *testing.T) {
	schema := Schema{
		{Name: "a", Type: TypeInt64},
		{Name: "s", Type: TypeString},
	}
	rows := []Row{
		{int64(1), "x"},
		{nil, "y"},
		{int64(7), nil},
		{nil, nil},
		{int64(10), "z"},
	}
	cases := []struct {
		name string
		cond func() Expr
	}{
		{"gt-drops-null", func() Expr { return &Comparison{Op: OpGt, L: Col("a"), R: Lit(int64(5))} }},
		{"ne-drops-null", func() Expr { return &Comparison{Op: OpNe, L: Col("a"), R: Lit(int64(7))} }},
		{"eq-null-literal", func() Expr { return &Comparison{Op: OpEq, L: Col("a"), R: Lit(nil)} }},
		{"is-null", func() Expr { return &IsNull{E: Col("a")} }},
		{"is-not-null", func() Expr { return &IsNull{E: Col("s"), Negate: true} }},
		{"in-with-null-literal", func() Expr {
			return &In{E: Col("a"), Values: []Expr{Lit(int64(1)), Lit(nil)}}
		}},
		{"not-in-null-probe", func() Expr {
			return &In{E: Col("a"), Values: []Expr{Lit(int64(1))}, Negate: true}
		}},
		{"not-gt", func() Expr {
			return &Not{E: &Comparison{Op: OpGt, L: Col("a"), R: Lit(int64(5))}}
		}},
		{"not-not-gt", func() Expr {
			return &Not{E: &Not{E: &Comparison{Op: OpGt, L: Col("a"), R: Lit(int64(5))}}}
		}},
		{"like-drops-null", func() Expr { return &Like{E: Col("s"), Pattern: "%"} }},
		{"and-null-left", func() Expr {
			return &And{
				L: &Comparison{Op: OpGt, L: Col("a"), R: Lit(int64(0))},
				R: &IsNull{E: Col("s"), Negate: true},
			}
		}},
	}
	for _, c := range cases {
		assertSameKeeps(t, c.name, c.cond(), schema, rows)
	}
}

// TestCompiledFilterMixedTypes pins comparisons across storage classes:
// narrow integers and float32 ride wider vectors but compare in the same
// float64 space as the interpreter, including int-vs-float column compares.
func TestCompiledFilterMixedTypes(t *testing.T) {
	schema := Schema{
		{Name: "i8", Type: TypeInt8},
		{Name: "i32", Type: TypeInt32},
		{Name: "f32", Type: TypeFloat32},
		{Name: "f64", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
	}
	rows := []Row{
		{int8(-3), int32(100), float32(2.5), 2.5, "aa"},
		{int8(5), int32(-7), float32(-0.5), 100.0, "bb"},
		{nil, int32(0), nil, 0.0, "cc"},
		{int8(120), nil, float32(1e6), nil, nil},
		{int8(0), int32(42), float32(42), 42.0, "bb"},
	}
	cases := []struct {
		name string
		cond func() Expr
	}{
		{"int8-vs-int-lit", func() Expr { return &Comparison{Op: OpGe, L: Col("i8"), R: Lit(int64(0))} }},
		{"int32-vs-float-lit", func() Expr { return &Comparison{Op: OpLt, L: Col("i32"), R: Lit(41.5)} }},
		{"float32-vs-int-lit", func() Expr { return &Comparison{Op: OpEq, L: Col("f32"), R: Lit(int64(42))} }},
		{"lit-vs-col-flipped", func() Expr { return &Comparison{Op: OpLt, L: Lit(int64(0)), R: Col("i32")} }},
		{"int-vs-float-col", func() Expr { return &Comparison{Op: OpEq, L: Col("f32"), R: Col("f64")} }},
		{"narrow-vs-wide-col", func() Expr { return &Comparison{Op: OpLe, L: Col("i8"), R: Col("i32")} }},
		{"string-eq", func() Expr { return &Comparison{Op: OpEq, L: Col("s"), R: Lit("bb")} }},
		{"numeric-in-mixed-lits", func() Expr {
			return &In{E: Col("i32"), Values: []Expr{Lit(int64(42)), Lit(100.0)}}
		}},
	}
	for _, c := range cases {
		assertSameKeeps(t, c.name, c.cond(), schema, rows)
	}
}

// TestCompiledFilterTypeErrorsMatchInterpreter: when a comparison is
// ill-typed for the data, the compiled path must surface an error just like
// the interpreter instead of silently dropping or keeping rows.
func TestCompiledFilterTypeErrorsMatchInterpreter(t *testing.T) {
	schema := Schema{{Name: "s", Type: TypeString}}
	rows := []Row{{"abc"}}
	cond := &Comparison{Op: OpGt, L: Col("s"), R: Lit(int64(3))}
	if err := Resolve(cond, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalPredicate(cond, rows[0]); err == nil {
		t.Fatal("interpreter accepted string > int; test premise broken")
	}
	f := CompileFilter(cond, schema)
	b := vbatch(t, schema, rows)
	if _, err := f.Run(b, FullSel(b.Len(), nil), NewEvalScratch(schema)); err == nil {
		t.Error("compiled filter accepted string > int")
	}
}

// TestCompiledProjectionNullPropagation pins arithmetic through the
// compiled projection: NULL operands propagate, division by zero is NULL,
// and integer inputs widen to float64 exactly like Arithmetic.Eval.
func TestCompiledProjectionNullPropagation(t *testing.T) {
	schema := Schema{
		{Name: "a", Type: TypeInt64},
		{Name: "b", Type: TypeFloat64},
	}
	rows := []Row{
		{int64(10), 4.0},
		{nil, 4.0},
		{int64(10), nil},
		{int64(10), 0.0},
		{nil, nil},
	}
	exprs := []NamedExpr{
		{Expr: &Arithmetic{Op: OpAdd, L: Col("a"), R: Col("b")}, Name: "sum"},
		{Expr: &Arithmetic{Op: OpDiv, L: Col("a"), R: Col("b")}, Name: "quot"},
		{Expr: &Arithmetic{Op: OpMul, L: Col("a"), R: Lit(nil)}, Name: "times_null"},
		{Expr: Col("a"), Name: "a"},
		{Expr: Lit("k"), Name: "konst"},
	}
	for _, ne := range exprs {
		if err := Resolve(ne.Expr, schema); err != nil {
			t.Fatal(err)
		}
	}
	proj := CompileProjection(exprs, schema)
	if !proj.Vectorized {
		t.Error("arithmetic projection should compile to typed evaluators")
	}
	b := vbatch(t, schema, rows)
	sc := NewEvalScratch(schema)
	dst := make(Row, proj.Width())
	for i, r := range rows {
		if err := proj.ProjectRow(b, i, sc, dst); err != nil {
			t.Fatal(err)
		}
		for j, ne := range exprs {
			want, err := ne.Expr.Eval(r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dst[j], want) {
				t.Errorf("row %d %s: compiled %#v, interpreter %#v", i, ne.Name, dst[j], want)
			}
		}
	}
}

// TestCompiledFilterMatchesInterpreterRandom is the property test: random
// batches (every storage class, ~15% NULLs) against random predicates —
// typed fast paths and fallback shapes alike — must keep exactly the rows
// the interpreter keeps.
func TestCompiledFilterMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := Schema{
		{Name: "i", Type: TypeInt32},
		{Name: "l", Type: TypeInt64},
		{Name: "f", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
		{Name: "bl", Type: TypeBool},
	}
	randRow := func() Row {
		r := make(Row, len(schema))
		for j, fld := range schema {
			if rng.Float64() < 0.15 {
				continue // NULL
			}
			switch fld.Type {
			case TypeInt32:
				r[j] = int32(rng.Intn(20) - 10)
			case TypeInt64:
				r[j] = int64(rng.Intn(20) - 10)
			case TypeFloat64:
				r[j] = float64(rng.Intn(40))/4 - 5
			case TypeString:
				r[j] = string(rune('a' + rng.Intn(4)))
			case TypeBool:
				r[j] = rng.Intn(2) == 0
			}
		}
		return r
	}
	numCols := []string{"i", "l", "f"}
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	randCond := func() Expr {
		switch rng.Intn(6) {
		case 0: // col vs literal
			return &Comparison{
				Op: ops[rng.Intn(len(ops))],
				L:  Col(numCols[rng.Intn(len(numCols))]),
				R:  Lit(float64(rng.Intn(16)) - 8),
			}
		case 1: // col vs col, mixed numeric kinds
			return &Comparison{
				Op: ops[rng.Intn(len(ops))],
				L:  Col(numCols[rng.Intn(len(numCols))]),
				R:  Col(numCols[rng.Intn(len(numCols))]),
			}
		case 2: // membership with an occasional NULL literal
			vals := []Expr{Lit(int64(rng.Intn(10) - 5)), Lit(float64(rng.Intn(10) - 5))}
			if rng.Intn(3) == 0 {
				vals = append(vals, Lit(nil))
			}
			return &In{E: Col(numCols[rng.Intn(len(numCols))]), Values: vals, Negate: rng.Intn(2) == 0}
		case 3: // string predicates
			if rng.Intn(2) == 0 {
				return &Comparison{Op: ops[rng.Intn(len(ops))], L: Col("s"), R: Lit(string(rune('a' + rng.Intn(4))))}
			}
			return &Like{E: Col("s"), Pattern: string(rune('a'+rng.Intn(4))) + "%"}
		case 4: // NOT / IS NULL shapes
			if rng.Intn(2) == 0 {
				return &IsNull{E: Col(schema[rng.Intn(len(schema))].Name), Negate: rng.Intn(2) == 0}
			}
			return &Not{E: &Comparison{
				Op: ops[rng.Intn(len(ops))],
				L:  Col(numCols[rng.Intn(len(numCols))]),
				R:  Lit(int64(rng.Intn(10) - 5)),
			}}
		default: // fallback shape: arithmetic inside the comparison
			return &Comparison{
				Op: ops[rng.Intn(len(ops))],
				L:  &Arithmetic{Op: OpAdd, L: Col("i"), R: Col("f")},
				R:  Lit(float64(rng.Intn(10) - 5)),
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = randRow()
		}
		cond := randCond()
		if rng.Intn(3) == 0 {
			cond = &And{L: cond, R: randCond()}
		}
		name := fmt.Sprintf("trial %d: %s", trial, cond)
		assertSameKeeps(t, name, cond, schema, rows)
	}
}

// TestVectorValueRestoresExactTypes: materialization out of wide storage
// must give back the catalog type's exact Go representation.
func TestVectorValueRestoresExactTypes(t *testing.T) {
	schema := Schema{
		{Name: "i8", Type: TypeInt8},
		{Name: "i16", Type: TypeInt16},
		{Name: "i32", Type: TypeInt32},
		{Name: "i64", Type: TypeInt64},
		{Name: "f32", Type: TypeFloat32},
		{Name: "f64", Type: TypeFloat64},
		{Name: "ts", Type: TypeTimestamp},
	}
	row := Row{int8(1), int16(2), int32(3), int64(4), float32(1.5), 2.5, int64(99)}
	b := vbatch(t, schema, []Row{row})
	got, err := b.MaterializeRow(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, row) {
		t.Fatalf("materialized %#v, want %#v", got, row)
	}
}
