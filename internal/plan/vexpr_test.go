package plan

import (
	"math/rand"
	"reflect"
	"strconv"
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
	f := CompileFilter(cond)
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
// the interpreter instead of silently dropping or keeping rows. Data can be
// ill-typed only where a lazy column decodes to another type than its
// catalog type says, so those cases read a lazy column.
func TestCompiledFilterTypeErrorsMatchInterpreter(t *testing.T) {
	schema := Schema{{Name: "s", Type: TypeString}, {Name: "n", Type: TypeInt64}}
	cases := []struct {
		name string
		cond Expr
		row  Row // the decoded values the interpreter sees
		lazy bool
	}{
		{"string > int", &Comparison{Op: OpGt, L: Col("s"), R: Lit(int64(3))}, Row{"abc", int64(1)}, false},
		{"int > string", &Comparison{Op: OpGt, L: Lit("x"), R: Col("n")}, Row{"abc", int64(1)}, false},
		{"lazy string holds an int", &Comparison{Op: OpEq, L: Col("s"), R: Lit("abc")}, Row{int64(3), int64(1)}, true},
		{"lazy int holds a string", &Comparison{Op: OpLt, L: &Arithmetic{Op: OpMul, L: Col("n"), R: Lit(int64(2))}, R: Lit(int64(80))}, Row{"abc", "x"}, true},
		{"string IN over an int", &In{E: Col("s"), Values: []Expr{Lit("a")}}, Row{int64(3), int64(1)}, true},
		{"LIKE over an int", &Like{E: Col("s"), Pattern: "a%"}, Row{int64(3), int64(1)}, true},
	}
	for _, c := range cases {
		if err := Resolve(c.cond, schema); err != nil {
			t.Fatal(err)
		}
		if _, err := EvalPredicate(c.cond, c.row); err == nil {
			t.Fatalf("%s: interpreter accepted %s; test premise broken", c.name, c.cond)
		}
		b := NewBatch(schema)
		for j, v := range c.row {
			if c.lazy {
				b.Cols[j] = NewLazyVector(schema[j].Type, func([]byte) (any, error) { return v, nil })
				b.Cols[j].AppendRaw([]byte{1})
			} else if err := b.Cols[j].Append(v); err != nil {
				t.Fatal(err)
			}
		}
		b.SetLen(1)
		if _, err := CompileFilter(c.cond).Run(b, FullSel(1, nil), NewEvalScratch(schema)); err == nil {
			t.Errorf("%s: compiled filter accepted %s", c.name, c.cond)
		}
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
	proj := CompileProjection(exprs)
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

// randSchema holds every storage class the compiled program meets.
var randSchema = Schema{
	{Name: "i", Type: TypeInt32},
	{Name: "l", Type: TypeInt64},
	{Name: "f", Type: TypeFloat64},
	{Name: "s", Type: TypeString},
	{Name: "t", Type: TypeString},
	{Name: "bl", Type: TypeBool},
	{Name: "by", Type: TypeBinary},
}

// exprGen draws random rows and expressions over randSchema.
type exprGen struct{ rng *rand.Rand }

var cmpOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

func (g exprGen) row() Row {
	r := make(Row, len(randSchema))
	for j, fld := range randSchema {
		if g.rng.Float64() < 0.15 {
			continue // NULL
		}
		switch fld.Type {
		case TypeInt32:
			r[j] = int32(g.rng.Intn(20) - 10)
		case TypeInt64:
			r[j] = int64(g.rng.Intn(20) - 10)
		case TypeFloat64:
			r[j] = float64(g.rng.Intn(40))/4 - 5
		case TypeString:
			r[j] = g.str()
		case TypeBool:
			r[j] = g.rng.Intn(2) == 0
		case TypeBinary:
			r[j] = []byte(g.str())
		}
	}
	return r
}

func (g exprGen) str() string { return string(rune('a' + g.rng.Intn(4))) }

func (g exprGen) op() CmpOp { return cmpOps[g.rng.Intn(len(cmpOps))] }

// numLit is a numeric literal of a random Go type, NULL one time in 12.
func (g exprGen) numLit() Expr {
	switch g.rng.Intn(12) {
	case 0:
		return Lit(nil)
	case 1, 2, 3:
		return Lit(int32(g.rng.Intn(10) - 5))
	case 4, 5, 6, 7:
		return Lit(int64(g.rng.Intn(16) - 8))
	}
	return Lit(float64(g.rng.Intn(16))/2 - 4)
}

func (g exprGen) numCol() Expr { return Col([]string{"i", "l", "f"}[g.rng.Intn(3)]) }

// num is a numeric operand: a column, a literal, or arithmetic over them
// (division by a zero literal or column included).
func (g exprGen) num(depth int) Expr {
	switch n := g.rng.Intn(4); {
	case depth > 0 && n == 0:
		ops := []ArithOp{OpAdd, OpSub, OpMul, OpDiv}
		return &Arithmetic{Op: ops[g.rng.Intn(len(ops))], L: g.num(depth - 1), R: g.num(depth - 1)}
	case n == 1:
		return g.numLit()
	}
	return g.numCol()
}

func (g exprGen) strOperand() Expr {
	switch g.rng.Intn(4) {
	case 0:
		if g.rng.Intn(6) == 0 {
			return Lit(nil)
		}
		return Lit(g.str())
	case 1:
		return Col("t")
	}
	return Col("s")
}

// cond draws one conjunct: typed-loop shapes, operand-loop shapes and
// interpreted fallbacks alike.
func (g exprGen) cond() Expr {
	switch g.rng.Intn(11) {
	case 0: // column against a literal, the literal on either side
		c := &Comparison{Op: g.op(), L: g.numCol(), R: g.numLit()}
		if g.rng.Intn(2) == 0 {
			c.L, c.R = c.R, c.L
		}
		return c
	case 1: // column against column, mixed numeric kinds
		return &Comparison{Op: g.op(), L: g.numCol(), R: g.numCol()}
	case 2: // arithmetic on either side
		return &Comparison{Op: g.op(), L: g.num(2), R: g.num(2)}
	case 3: // numeric membership, an arithmetic probe included
		vals := []Expr{Lit(int64(g.rng.Intn(10) - 5)), Lit(float64(g.rng.Intn(10) - 5))}
		if g.rng.Intn(3) == 0 {
			vals = append(vals, Lit(nil))
		}
		return &In{E: g.num(1), Values: vals, Negate: g.rng.Intn(2) == 0}
	case 4: // strings: column or literal against column or literal
		return &Comparison{Op: g.op(), L: g.strOperand(), R: g.strOperand()}
	case 5: // string membership and LIKE
		if g.rng.Intn(2) == 0 {
			vals := []Expr{Lit(g.str()), Lit(g.str())}
			if g.rng.Intn(3) == 0 {
				vals = append(vals, Lit(nil))
			}
			return &In{E: g.strOperand(), Values: vals, Negate: g.rng.Intn(2) == 0}
		}
		return &Like{E: g.strOperand(), Pattern: g.str() + "%"}
	case 6: // bool and binary comparisons, interpreted
		if g.rng.Intn(2) == 0 {
			r := Expr(Col("bl"))
			if g.rng.Intn(2) == 0 {
				r = Lit(g.rng.Intn(2) == 0)
			}
			return &Comparison{Op: g.op(), L: Col("bl"), R: r}
		}
		return &Comparison{Op: g.op(), L: Col("by"), R: Lit([]byte(g.str()))}
	case 7: // IS [NOT] NULL
		return &IsNull{E: Col(randSchema[g.rng.Intn(len(randSchema))].Name), Negate: g.rng.Intn(2) == 0}
	case 8: // NOT over a compiled shape
		return &Not{E: &Comparison{Op: g.op(), L: g.num(1), R: g.numLit()}}
	case 9: // NOT over membership
		return &Not{E: &In{E: g.numCol(), Values: []Expr{g.numLit(), g.numLit()}}}
	}
	// OR has no compiled form.
	return &Or{L: &Comparison{Op: g.op(), L: g.numCol(), R: g.numLit()}, R: &IsNull{E: Col("s")}}
}

// batch transposes rows into a batch; with lazy set, a random subset of
// the columns are NewLazyVector columns that decode a value only when it
// is read, as a scan's late-materialized columns do.
func (g exprGen) batch(t *testing.T, rows []Row, lazy bool) *Batch {
	t.Helper()
	b := vbatch(t, randSchema, rows)
	if !lazy {
		return b
	}
	for j, fld := range randSchema {
		if g.rng.Intn(2) == 0 {
			continue
		}
		v := NewLazyVector(fld.Type, func(raw []byte) (any, error) {
			n, err := strconv.Atoi(string(raw))
			if err != nil {
				return nil, err
			}
			return rows[n][j], nil
		})
		for i, r := range rows {
			if r[j] == nil {
				v.AppendNull()
			} else {
				v.AppendRaw([]byte(strconv.Itoa(i)))
			}
		}
		b.Cols[j] = v
	}
	return b
}

// TestCompiledFilterMatchesInterpreterRandom is the property test: random
// batches (every storage class, ~15% NULLs, some columns lazy) against
// random predicates — typed loops, operand loops and interpreted fallbacks
// alike — must keep exactly the rows the interpreter keeps.
func TestCompiledFilterMatchesInterpreterRandom(t *testing.T) {
	g := exprGen{rand.New(rand.NewSource(7))}
	for trial := 0; trial < 600; trial++ {
		rows := make([]Row, 1+g.rng.Intn(60))
		for i := range rows {
			rows[i] = g.row()
		}
		cond := g.cond()
		if g.rng.Intn(3) == 0 {
			cond = &And{L: cond, R: g.cond()}
		}
		want := interpretedKeeps(t, cond, randSchema, rows)
		got := compiledKeeps(t, cond, randSchema, g.batch(t, rows, trial%2 == 1))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d: %s: compiled keeps %v, interpreter keeps %v", trial, cond, got, want)
		}
	}
}

// TestCompiledProjectionMatchesInterpreterRandom: random projection lists
// (columns, literals, arithmetic, interpreted shapes) over random batches,
// some columns lazy, must produce exactly the interpreter's values.
func TestCompiledProjectionMatchesInterpreterRandom(t *testing.T) {
	g := exprGen{rand.New(rand.NewSource(11))}
	for trial := 0; trial < 200; trial++ {
		rows := make([]Row, 1+g.rng.Intn(40))
		for i := range rows {
			rows[i] = g.row()
		}
		exprs := []NamedExpr{
			{Expr: g.num(3), Name: "n"},
			{Expr: Col(randSchema[g.rng.Intn(len(randSchema))].Name), Name: "c"},
			{Expr: g.strOperand(), Name: "s"},
			{Expr: g.cond(), Name: "p"},
		}
		for _, ne := range exprs {
			if err := Resolve(ne.Expr, randSchema); err != nil {
				t.Fatal(err)
			}
		}
		proj := CompileProjection(exprs)
		b := g.batch(t, rows, trial%2 == 1)
		sc := NewEvalScratch(randSchema)
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
					t.Errorf("trial %d row %d %s: compiled %#v, interpreter %#v", trial, i, ne.Expr, dst[j], want)
				}
			}
		}
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
