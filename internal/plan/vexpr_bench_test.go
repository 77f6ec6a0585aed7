package plan

import "testing"

// BenchmarkCompiledFilter runs one compiled conjunct per operand shape over
// a 4,096-row batch in which one row in 19 holds a NULL: the per-row cost
// and allocations of the vector expression program, without a scan or an
// operator around it.
func BenchmarkCompiledFilter(b *testing.B) {
	const n = 4096
	schema := Schema{
		{Name: "age", Type: TypeInt32},
		{Name: "cap", Type: TypeInt32},
		{Name: "score", Type: TypeFloat64},
		{Name: "city", Type: TypeString},
	}
	batch := NewBatch(schema)
	cities := []string{"la", "nyc", "sf", "sea", "austin"}
	for i := 0; i < n; i++ {
		r := Row{int32(i % 80), int32(i * 37 % 80), float64(i) / 2, cities[i%len(cities)]}
		if i%19 == 0 {
			r[i%len(r)] = nil
		}
		if err := batch.AppendRow(r); err != nil {
			b.Fatal(err)
		}
	}
	ints := func(xs ...int64) []Expr {
		out := make([]Expr, len(xs))
		for i, x := range xs {
			out[i] = Lit(x)
		}
		return out
	}
	for _, bc := range []struct {
		name string
		cond Expr
	}{
		{"col-lit", &Comparison{Op: OpLt, L: Col("age"), R: Lit(int64(40))}},
		{"lit-col", &Comparison{Op: OpGt, L: Lit(int64(40)), R: Col("age")}},
		{"col-col", &Comparison{Op: OpLt, L: Col("age"), R: Col("cap")}},
		{"arith-lit", &Comparison{Op: OpLt, L: &Arithmetic{Op: OpMul, L: Col("age"), R: Lit(int64(2))}, R: Lit(int64(80))}},
		{"str-lit", &Comparison{Op: OpLt, L: Col("city"), R: Lit("sea")}},
		{"num-in", &In{E: Col("age"), Values: ints(3, 11, 17, 29, 41, 53, 67, 79)}},
		{"str-in", &In{E: Col("city"), Values: []Expr{Lit("sf"), Lit("la"), Lit("boston")}}},
		{"like", &Like{E: Col("city"), Pattern: "s%"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if err := Resolve(bc.cond, schema); err != nil {
				b.Fatal(err)
			}
			f := CompileFilter(bc.cond)
			sc := NewEvalScratch(schema)
			sel := make([]int, n)
			kept := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := f.Run(batch, FullSel(n, sel), sc)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(out)
			}
			b.StopTimer()
			if kept == 0 || kept == n {
				b.Fatalf("%s keeps %d of %d rows; the shape measures nothing", bc.cond, kept, n)
			}
		})
	}
}
