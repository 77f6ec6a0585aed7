package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/shc-go/shc/internal/plan"
)

// q39Inputs builds one month of q39's inputs: inventory(date, item, wh, qty)
// rows over 30 dates × items items × 5 warehouses, and the item dimension.
// Every key column is int32, as the TPC-DS generator writes them.
func q39Inputs(invRows, items int) (inv, item *rowsExec) {
	rng := rand.New(rand.NewSource(1))
	inv = &rowsExec{schema: plan.Schema{
		{Name: "inv_date_sk", Type: plan.TypeInt32},
		{Name: "inv_item_sk", Type: plan.TypeInt32},
		{Name: "inv_warehouse_sk", Type: plan.TypeInt32},
		{Name: "inv_quantity_on_hand", Type: plan.TypeInt32},
	}}
	for i := 0; i < invRows; i++ {
		inv.rows = append(inv.rows, plan.Row{
			int32(rng.Intn(30) + 1), int32(rng.Intn(items) + 1), int32(rng.Intn(5) + 1), int32(rng.Intn(500)),
		})
	}
	item = &rowsExec{schema: plan.Schema{
		{Name: "i_item_sk", Type: plan.TypeInt32},
		{Name: "i_item_id", Type: plan.TypeString},
	}}
	for i := 1; i <= items; i++ {
		item.rows = append(item.rows, plan.Row{int32(i), "AAAAAAAA" + string(rune('A'+i%26))})
	}
	return inv, item
}

var benchRows []plan.Row

// BenchmarkHashJoin times inventory ⋈ item on an int32 key, each inventory
// row matching one item, at q39's shape (a 200-row dimension against 4,000
// rows) and with a build side as large as its probe side (4,000 items).
// The broadcast join has no size threshold; the second case is its worst.
func BenchmarkHashJoin(b *testing.B) {
	for _, items := range []int{200, 4000} {
		inv, item := q39Inputs(4000, items)
		b.Run(fmt.Sprintf("4000x%d", items), func(b *testing.B) {
			ctx, _ := testCtx()
			j := &HashJoinExec{
				Left: inv, Right: item,
				LeftKeys:  resolved(b, inv.schema, "inv_item_sk"),
				RightKeys: resolved(b, item.schema, "i_item_sk"),
				Type:      plan.InnerJoin,
				OutSchema: append(append(plan.Schema{}, inv.schema...), item.schema...),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := j.Execute(ctx)
				if err != nil {
					b.Fatal(err)
				}
				benchRows = rows
			}
		})
	}
}

// BenchmarkHashAgg times q39's inner aggregate: GROUP BY warehouse, item
// with avg and stddev_samp of the quantity (1,000 groups over 4,000 rows).
func BenchmarkHashAgg(b *testing.B) {
	inv, _ := q39Inputs(4000, 200)
	groups := resolved(b, inv.schema, "inv_warehouse_sk", "inv_item_sk")
	qty := resolved(b, inv.schema, "inv_quantity_on_hand")[0]
	a := &HashAggExec{
		GroupBy: []plan.NamedExpr{{Expr: groups[0], Name: "w"}, {Expr: groups[1], Name: "i"}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggAvg, Arg: qty, Name: "qmean"},
			{Kind: plan.AggStddevSamp, Arg: qty, Name: "qstd"},
		},
		Child: inv,
	}
	ctx, _ := testCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := a.Execute(ctx)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
}

// BenchmarkExchange times hash-partitioning 4,000 inventory rows by their
// (warehouse, item) int32 key into 4 buckets.
func BenchmarkExchange(b *testing.B) {
	inv, _ := q39Inputs(4000, 200)
	ctx, _ := testCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets := exchange(ctx, inv.rows, []int{2, 1}, 4)
		benchRows = buckets[0]
	}
}

// BenchmarkHashAggOverJoin times one month of q39: inventory probes the
// item, warehouse and date dimensions in turn, and the joined rows fold
// into GROUP BY warehouse, item with avg and stddev_samp of the quantity.
// The join chain streams into the aggregate, materializing no joined row.
func BenchmarkHashAggOverJoin(b *testing.B) {
	inv, item := q39Inputs(4000, 200)
	dim := func(name string, n int) *rowsExec {
		d := &rowsExec{schema: plan.Schema{{Name: name, Type: plan.TypeInt32}}}
		for i := 1; i <= n; i++ {
			d.rows = append(d.rows, plan.Row{int32(i)})
		}
		return d
	}
	wh, date := dim("w_warehouse_sk", 5), dim("d_date_sk", 30)
	join := func(left PhysicalPlan, right *rowsExec, lk string) *HashJoinExec {
		out := append(append(plan.Schema{}, left.Schema()...), right.schema...)
		return &HashJoinExec{
			Left: left, Right: right,
			LeftKeys:  resolved(b, left.Schema(), lk),
			RightKeys: resolved(b, right.schema, right.schema[0].Name),
			Type:      plan.InnerJoin,
			OutSchema: out,
		}
	}
	chain := join(join(join(inv, item, "inv_item_sk"), wh, "inv_warehouse_sk"), date, "inv_date_sk")
	groups := resolved(b, chain.OutSchema, "w_warehouse_sk", "i_item_sk")
	qty := resolved(b, chain.OutSchema, "inv_quantity_on_hand")[0]
	a := &HashAggExec{
		GroupBy: []plan.NamedExpr{{Expr: groups[0], Name: "w"}, {Expr: groups[1], Name: "i"}},
		Aggs: []plan.AggExpr{
			{Kind: plan.AggAvg, Arg: qty, Name: "qmean"},
			{Kind: plan.AggStddevSamp, Arg: qty, Name: "qstd"},
		},
		Child: chain,
	}
	ctx, _ := testCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := a.Execute(ctx)
		if err != nil {
			b.Fatal(err)
		}
		benchRows = rows
	}
}
