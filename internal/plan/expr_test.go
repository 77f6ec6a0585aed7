package plan

import (
	"strings"
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		{Name: "name", Type: TypeString},
		{Name: "age", Type: TypeInt32},
		{Name: "score", Type: TypeFloat64},
		{Name: "active", Type: TypeBool},
	}
}

func mustResolve(t *testing.T, e Expr, s Schema) Expr {
	t.Helper()
	if err := Resolve(e, s); err != nil {
		t.Fatal(err)
	}
	return e
}

func evalOn(t *testing.T, e Expr, row Row) any {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestColumnRefResolveAndEval(t *testing.T) {
	s := testSchema()
	row := Row{"bob", int32(42), 3.5, true}
	c := mustResolve(t, Col("age"), s)
	if v := evalOn(t, c, row); v != int32(42) {
		t.Errorf("Eval = %v", v)
	}
	if err := Resolve(Col("missing"), s); err == nil {
		t.Error("unknown column must fail to resolve")
	}
	unresolved := Col("age")
	if _, err := unresolved.Eval(row); err == nil {
		t.Error("unresolved column must fail Eval")
	}
}

func TestQualifiedNameResolution(t *testing.T) {
	s := Schema{{Name: "t.age", Type: TypeInt32}, {Name: "u.age", Type: TypeInt32}, {Name: "u.city", Type: TypeString}}
	if s.IndexOf("t.age") != 0 {
		t.Error("qualified lookup failed")
	}
	if s.IndexOf("city") != 2 {
		t.Error("bare lookup of unambiguous qualified column failed")
	}
	if s.IndexOf("age") != -1 {
		t.Error("ambiguous bare lookup must fail")
	}
}

func TestComparisons(t *testing.T) {
	s := testSchema()
	row := Row{"bob", int32(42), 3.5, true}
	cases := []struct {
		e    Expr
		want any
	}{
		{&Comparison{Op: OpEq, L: Col("age"), R: Lit(42)}, true},
		{&Comparison{Op: OpNe, L: Col("age"), R: Lit(42)}, false},
		{&Comparison{Op: OpLt, L: Col("age"), R: Lit(50)}, true},
		{&Comparison{Op: OpLe, L: Col("age"), R: Lit(42)}, true},
		{&Comparison{Op: OpGt, L: Col("score"), R: Lit(3.0)}, true},
		{&Comparison{Op: OpGe, L: Col("score"), R: Lit(4.0)}, false},
		{&Comparison{Op: OpEq, L: Col("name"), R: Lit("bob")}, true},
	}
	for _, c := range cases {
		mustResolve(t, c.e, s)
		if got := evalOn(t, c.e, row); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	s := testSchema()
	row := Row{nil, nil, 1.0, true}
	cmp := mustResolve(t, &Comparison{Op: OpEq, L: Col("age"), R: Lit(42)}, s)
	if v := evalOn(t, cmp, row); v != nil {
		t.Errorf("NULL comparison = %v, want NULL", v)
	}
	// NULL AND false = false; NULL OR true = true.
	and := mustResolve(t, &And{L: &Comparison{Op: OpEq, L: Col("age"), R: Lit(1)}, R: Lit(false)}, s)
	if v := evalOn(t, and, row); v != false {
		t.Errorf("NULL AND false = %v", v)
	}
	or := mustResolve(t, &Or{L: &Comparison{Op: OpEq, L: Col("age"), R: Lit(1)}, R: Lit(true)}, s)
	if v := evalOn(t, or, row); v != true {
		t.Errorf("NULL OR true = %v", v)
	}
	isn := mustResolve(t, &IsNull{E: Col("age")}, s)
	if v := evalOn(t, isn, row); v != true {
		t.Errorf("IS NULL = %v", v)
	}
	notn := mustResolve(t, &IsNull{E: Col("score"), Negate: true}, s)
	if v := evalOn(t, notn, row); v != true {
		t.Errorf("IS NOT NULL = %v", v)
	}
	if ok, err := EvalPredicate(cmp, row); err != nil || ok {
		t.Errorf("EvalPredicate(NULL) = %v, %v", ok, err)
	}
}

func TestLogicalOps(t *testing.T) {
	s := testSchema()
	row := Row{"bob", int32(42), 3.5, true}
	tAge := &Comparison{Op: OpGt, L: Col("age"), R: Lit(40)}
	fAge := &Comparison{Op: OpGt, L: Col("age"), R: Lit(100)}
	and := mustResolve(t, &And{L: tAge, R: fAge}, s)
	if v := evalOn(t, and, row); v != false {
		t.Errorf("AND = %v", v)
	}
	or := mustResolve(t, &Or{L: CloneExpr(tAge), R: CloneExpr(fAge)}, s)
	if v := evalOn(t, or, row); v != true {
		t.Errorf("OR = %v", v)
	}
	not := mustResolve(t, &Not{E: CloneExpr(fAge)}, s)
	if v := evalOn(t, not, row); v != true {
		t.Errorf("NOT = %v", v)
	}
}

func TestInAndNotIn(t *testing.T) {
	s := testSchema()
	row := Row{"bob", int32(42), 3.5, true}
	in := mustResolve(t, &In{E: Col("name"), Values: []Expr{Lit("alice"), Lit("bob")}}, s)
	if v := evalOn(t, in, row); v != true {
		t.Errorf("IN = %v", v)
	}
	notIn := mustResolve(t, &In{E: Col("name"), Values: []Expr{Lit("alice")}, Negate: true}, s)
	if v := evalOn(t, notIn, row); v != true {
		t.Errorf("NOT IN = %v", v)
	}
	notInHit := mustResolve(t, &In{E: Col("name"), Values: []Expr{Lit("bob")}, Negate: true}, s)
	if v := evalOn(t, notInHit, row); v != false {
		t.Errorf("NOT IN hit = %v", v)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "he%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_ll_o", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c%", true},
		// 63 bytes fit the stack rows, 64 and more take the heap.
		{strings.Repeat("x", 62) + "y", "%y", true},
		{strings.Repeat("x", 63) + "y", "%y", true},
		{strings.Repeat("x", 63) + "y", "x%x", false},
		{strings.Repeat("x", 100), "x%_x", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	s := testSchema()
	row := Row{"bob", int32(10), 4.0, true}
	add := mustResolve(t, &Arithmetic{Op: OpAdd, L: Col("age"), R: Col("score")}, s)
	if v := evalOn(t, add, row); v != 14.0 {
		t.Errorf("add = %v", v)
	}
	div := mustResolve(t, &Arithmetic{Op: OpDiv, L: Col("age"), R: Lit(0)}, s)
	if v := evalOn(t, div, row); v != nil {
		t.Errorf("div by zero = %v, want NULL", v)
	}
	mul := mustResolve(t, &Arithmetic{Op: OpMul, L: Col("age"), R: Lit(3)}, s)
	if v := evalOn(t, mul, row); v != 30.0 {
		t.Errorf("mul = %v", v)
	}
	sub := mustResolve(t, &Arithmetic{Op: OpSub, L: Lit(5), R: Lit(2)}, s)
	if v := evalOn(t, sub, row); v != 3.0 {
		t.Errorf("sub = %v", v)
	}
}

func TestCaseWhen(t *testing.T) {
	s := testSchema()
	e := &CaseWhen{
		Whens: []WhenClause{
			{Cond: &Comparison{Op: OpGt, L: Col("age"), R: Lit(60)}, Then: Lit("old")},
			{Cond: &Comparison{Op: OpGt, L: Col("age"), R: Lit(30)}, Then: Lit("mid")},
		},
		Else: Lit("young"),
	}
	mustResolve(t, e, s)
	if v := evalOn(t, e, Row{"x", int32(42), 0.0, true}); v != "mid" {
		t.Errorf("case = %v", v)
	}
	if v := evalOn(t, e, Row{"x", int32(20), 0.0, true}); v != "young" {
		t.Errorf("case else = %v", v)
	}
	noElse := mustResolve(t, &CaseWhen{Whens: []WhenClause{{Cond: Lit(false), Then: Lit(1)}}}, s)
	if v := evalOn(t, noElse, Row{"x", int32(1), 0.0, true}); v != nil {
		t.Errorf("case without else = %v, want NULL", v)
	}
}

func TestCloneExprIndependence(t *testing.T) {
	orig := &Comparison{Op: OpEq, L: Col("age"), R: Lit(1)}
	clone := CloneExpr(orig).(*Comparison)
	s := testSchema()
	mustResolve(t, clone, s)
	if orig.L.(*ColumnRef).Index() != -1 {
		t.Error("resolving the clone must not touch the original")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := &And{
		L: &Comparison{Op: OpGt, L: Col("a"), R: Col("b")},
		R: &In{E: Col("a"), Values: []Expr{Lit(1)}},
	}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestSplitCombineConjuncts(t *testing.T) {
	a := &Comparison{Op: OpEq, L: Col("a"), R: Lit(1)}
	b := &Comparison{Op: OpEq, L: Col("b"), R: Lit(2)}
	c := &Comparison{Op: OpEq, L: Col("c"), R: Lit(3)}
	e := &And{L: &And{L: a, R: b}, R: c}
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	back := CombineConjuncts(parts)
	if !strings.Contains(back.String(), "AND") {
		t.Errorf("CombineConjuncts = %s", back)
	}
	if CombineConjuncts(nil) != nil {
		t.Error("empty conjuncts must combine to nil")
	}
}

func TestCompareProperty(t *testing.T) {
	// Compare is antisymmetric and consistent for int64 pairs.
	if err := quick.Check(func(a, b int64) bool {
		ab, err1 := Compare(a, b)
		ba, err2 := Compare(b, a)
		return err1 == nil && err2 == nil && ab == -ba
	}, nil); err != nil {
		t.Error(err)
	}
	if _, err := Compare("x", 5); err == nil {
		t.Error("mixed-type compare must fail")
	}
	if c, err := Compare(nil, "x"); err != nil || c != -1 {
		t.Errorf("NULL compare = %d, %v", c, err)
	}
	if c, err := Compare(int32(3), 3.0); err != nil || c != 0 {
		t.Errorf("numeric widening compare = %d, %v", c, err)
	}
}

func TestCoerceLiteral(t *testing.T) {
	cases := []struct {
		v    any
		t    DataType
		want any
	}{
		{int64(5), TypeInt8, int8(5)},
		{int64(300), TypeInt16, int16(300)},
		{int64(5), TypeInt32, int32(5)},
		{int64(5), TypeInt64, int64(5)},
		{int64(5), TypeFloat64, 5.0},
		{3.5, TypeFloat32, float32(3.5)},
		{"x", TypeString, "x"},
		{"x", TypeBinary, []byte("x")},
		{true, TypeBool, true},
		{int64(99), TypeTimestamp, int64(99)},
		{nil, TypeInt64, nil},
	}
	for _, c := range cases {
		got, err := CoerceLiteral(c.v, c.t)
		if err != nil {
			t.Errorf("CoerceLiteral(%v, %s): %v", c.v, c.t, err)
			continue
		}
		switch w := c.want.(type) {
		case []byte:
			if string(got.([]byte)) != string(w) {
				t.Errorf("CoerceLiteral(%v, %s) = %v", c.v, c.t, got)
			}
		default:
			if got != c.want {
				t.Errorf("CoerceLiteral(%v, %s) = %v (%T)", c.v, c.t, got, got)
			}
		}
	}
	if _, err := CoerceLiteral(int64(300), TypeInt8); err == nil {
		t.Error("overflow coercion must fail")
	}
	if _, err := CoerceLiteral("x", TypeInt64); err == nil {
		t.Error("string to int coercion must fail")
	}
}

func TestParseDataType(t *testing.T) {
	for name, want := range map[string]DataType{
		"string": TypeString, "tinyint": TypeInt8, "smallint": TypeInt16,
		"int": TypeInt32, "bigint": TypeInt64, "float": TypeFloat32,
		"double": TypeFloat64, "boolean": TypeBool, "binary": TypeBinary,
		"time": TypeTimestamp, "TIMESTAMP": TypeTimestamp,
	} {
		got, err := ParseDataType(name)
		if err != nil || got != want {
			t.Errorf("ParseDataType(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseDataType("blob"); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestRowSize(t *testing.T) {
	r := Row{"abc", int64(1), 2.0, true, []byte{1, 2}, nil, int32(7), int16(3), int8(1), float32(1)}
	if got := RowSize(r); got != 3+8+8+1+2+1+4+2+1+4 {
		t.Errorf("RowSize = %d", got)
	}
}
