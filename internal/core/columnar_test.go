package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

const pagesCatalog = `{
  "table":{"name":"pages", "tableCoder":"PrimitiveType"},
  "rowkey":"key1:key2",
  "columns":{
    "site":{"cf":"rowkey", "col":"key1", "type":"string"},
    "n":{"cf":"rowkey", "col":"key2", "type":"int"},
    "title":{"cf":"a", "col":"t", "type":"string"},
    "body":{"cf":"a", "col":"b", "type":"binary"},
    "hits":{"cf":"b", "col":"h", "type":"bigint"},
    "score":{"cf":"b", "col":"s", "type":"double"},
    "never":{"cf":"b", "col":"never", "type":"string"}
  }
}`

// TestComputeColumnarMatchesRowMajor: a materialized scan (a Keep stream)
// decodes its column-major pages into exactly the rows it decodes from the
// row-major pages of the same scan (RowMajorPages), over a composite
// rowkey, absent cells, empty strings and empty binaries, and a projected
// column no row holds — before and after the regions flush.
func TestComputeColumnarMatchesRowMajor(t *testing.T) {
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "pages", NumServers: 2, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient()
	defer client.Close()
	cat, err := ParseCatalog(pagesCatalog)
	if err != nil {
		t.Fatal(err)
	}
	columnar, err := NewHBaseRelation(client, cat, Options{NewTableRegions: 4}, meter)
	if err != nil {
		t.Fatal(err)
	}
	rowMajor, err := NewHBaseRelation(client, cat, Options{NewTableRegions: 4, RowMajorPages: true}, meter)
	if err != nil {
		t.Fatal(err)
	}
	var rows []plan.Row
	for _, site := range []string{"ap", "eu", "us"} {
		for n := int32(0); n < 30; n++ {
			vals := map[string]any{"site": site, "n": n, "title": fmt.Sprintf("t-%d", n),
				"body": []byte(fmt.Sprintf("b-%d", n)), "hits": int64(n) * 7, "score": float64(n) / 4}
			switch {
			case n%5 == 0:
				vals["title"], vals["body"] = "", []byte{}
			case n%7 == 0:
				delete(vals, "title")
				delete(vals, "body")
			}
			if n%3 == 0 {
				delete(vals, "hits")
			}
			row := make(plan.Row, len(cat.Schema()))
			for i, f := range cat.Schema() {
				row[i] = vals[f.Name]
			}
			rows = append(rows, row)
		}
	}
	if err := columnar.Insert(rows); err != nil {
		t.Fatal(err)
	}
	all := []string{"site", "n", "title", "body", "hits", "score", "never"}
	cases := []struct {
		name    string
		cols    []string
		filters []datasource.Filter
	}{
		{"all", all, nil},
		{"cells", []string{"hits", "body", "never", "title"}, nil},
		{"keys", []string{"n", "site"}, nil},
		{"never", []string{"never", "n", "score"}, nil},
		{"prefix", all, []datasource.Filter{datasource.EqualTo{Column: "site", Value: "eu"}}},
		{"points", all, []datasource.Filter{datasource.EqualTo{Column: "site", Value: "us"},
			datasource.In{Column: "n", Values: []any{int32(0), int32(5), int32(7), int32(11), int32(99)}}}},
	}
	compute := func(rel *HBaseRelation, cols []string, filters []datasource.Filter) []plan.Row {
		t.Helper()
		parts, _, err := rel.BuildScan(cols, filters)
		if err != nil {
			t.Fatal(err)
		}
		return scanAll(t, parts)
	}
	for _, flushed := range []bool{false, true} {
		if flushed {
			for _, rs := range cluster.Servers {
				for _, r := range rs.Regions() {
					r.Flush()
				}
			}
		}
		for _, c := range cases {
			meter.Reset()
			got := compute(columnar, c.cols, c.filters)
			pages, blocks := meter.Get(metrics.FusedPages), meter.Get(metrics.ColumnarPages)
			meter.Reset()
			want := compute(rowMajor, c.cols, c.filters)
			if len(want) == 0 {
				t.Fatalf("%s (flushed %v): no rows; the comparison is vacuous", c.name, flushed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (flushed %v): columnar pages decode to\n %v\nrow-major pages to\n %v", c.name, flushed, got, want)
			}
			if pages == 0 || blocks != pages {
				t.Errorf("%s (flushed %v): %d fused pages, %d of them columnar; want every page counted and columnar", c.name, flushed, pages, blocks)
			}
			if n := meter.Get(metrics.ColumnarPages); n != 0 || meter.Get(metrics.FusedPages) == 0 {
				t.Errorf("%s (flushed %v): the row-major relation moved %d columnar pages of %d", c.name, flushed, n, meter.Get(metrics.FusedPages))
			}
		}
	}
	// The empty values stay present: an empty string and an empty binary,
	// not NULL.
	got := compute(columnar, []string{"site", "n", "title", "body"}, []datasource.Filter{
		datasource.EqualTo{Column: "site", Value: "ap"}, datasource.EqualTo{Column: "n", Value: int32(5)}})
	if len(got) != 1 || got[0][2] != "" || !reflect.DeepEqual(got[0][3], []byte{}) {
		t.Errorf("row with empty values: got %#v", got)
	}
}
