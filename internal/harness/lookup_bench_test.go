package harness

import (
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/hbase"
)

// BenchmarkWarmPointLookup times one warm point lookup end to end on the
// SHC rig: Session.SQL (a plan-cache hit) and Collect (bind, one fused get,
// decode). It is the lookup shape of the point-lookup workload — two
// region servers with one executor each, store_sales in six regions,
// size-triggered flushes — with every tenth key absent. The keys and the
// region views are warmed before timing.
func BenchmarkWarmPointLookup(b *testing.B) {
	rig, err := NewRig(Config{
		System: SHC, Servers: 2, ExecutorsPerHost: 1, Scale: 1,
		Store: hbase.StoreConfig{FlushThresholdBytes: 12 << 10},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	sales := rig.Data.Rows("store_sales")
	queries := make([]string, 0, 1024)
	for i := 0; i < cap(queries); i++ {
		r := sales[(i*7919)%len(sales)]
		date := r[0].(int32)
		if i%10 == 9 {
			date = date%360 + 1 // the ticket under another date: no row
		}
		queries = append(queries, fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price "+
			"FROM store_sales WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", date, r[1]))
	}
	lookup := func(q string) int {
		df, err := rig.Session.SQL(q)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			b.Fatal(err)
		}
		return len(rows)
	}
	found := 0
	for _, q := range queries {
		found += lookup(q)
	}
	if found == 0 || found == len(queries) {
		b.Fatalf("warm-up found %d of %d keys; want some present and some absent", found, len(queries))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup(queries[i%len(queries)])
	}
}
