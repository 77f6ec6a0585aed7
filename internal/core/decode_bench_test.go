package core

import (
	"testing"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

const inventoryPageCatalog = `{
  "table":{"name":"inventory", "tableCoder":"PrimitiveType"},
  "rowkey":"d:i:w",
  "columns":{
    "inv_date_sk":{"cf":"rowkey", "col":"d", "type":"int"},
    "inv_item_sk":{"cf":"rowkey", "col":"i", "type":"int"},
    "inv_warehouse_sk":{"cf":"rowkey", "col":"w", "type":"int"},
    "inv_quantity_on_hand":{"cf":"f", "col":"q", "type":"int"}
  }
}`

// BenchmarkDecodePage times decoding one columnar page of q39's inventory
// shape — 1,000 rows of three int rowkey dimensions and one int cell — into
// a batch of typed vectors, as a scan under a join decodes each page it
// reads.
func BenchmarkDecodePage(b *testing.B) {
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "decode", NumServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	client := cluster.NewClient()
	defer client.Close()
	cat, err := ParseCatalog(inventoryPageCatalog)
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewHBaseRelation(client, cat, Options{}, metrics.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	block := &hbase.CellBlock{Cols: []hbase.CellColumn{{Family: "f", Qualifier: "q"}}}
	for i := 0; i < 1000; i++ {
		key, err := r.codec.encodeRowkey([]any{int32(1 + i%30), int32(1 + i%200), int32(1 + i%5)})
		if err != nil {
			b.Fatal(err)
		}
		v, err := r.coder.Encode(int32(i%500), plan.TypeInt32)
		if err != nil {
			b.Fatal(err)
		}
		block.Rows = append(block.Rows, key)
		block.Cols[0].Values = append(block.Cols[0].Values, v)
	}
	dec := &decodePlan{}
	dec.specs, dec.schema, dec.lazyDec = r.vecSpecs([]string{"inv_date_sk", "inv_item_sk", "inv_warehouse_sk", "inv_quantity_on_hand"}, nil)
	var keyScratch [][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := plan.NewBatch(dec.schema)
		batch.Grow(block.Len())
		if err := r.decodeBlock(batch, dec.specs, block, &keyScratch); err != nil {
			b.Fatal(err)
		}
		batch.SetLen(block.Len())
		if batch.Len() != 1000 || batch.Cols[3].Int64s[999] != 999%500 {
			b.Fatalf("decoded %d rows, last quantity %d", batch.Len(), batch.Cols[3].Int64s[999])
		}
	}
}
