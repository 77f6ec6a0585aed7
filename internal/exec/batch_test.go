package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// pageTables stores test inputs as HBase tables, so a scan of them reads
// columnar pages and hands the joins and aggregates above it typed
// batches decoded from those pages.
type pageTables struct {
	client *hbase.Client
	n      int
}

func newPageTables(tb testing.TB) *pageTables {
	tb.Helper()
	c, err := hbase.NewCluster(hbase.ClusterConfig{Name: "pages", NumServers: 2, Meter: metrics.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	client := c.NewClient()
	tb.Cleanup(client.Close)
	return &pageTables{client: client}
}

// scan stores rows as a new table of schema — a hidden rowkey per row in
// row order, every column a cell of its own, a NULL an absent cell — split
// into three regions, and returns a ScanExec of schema's columns over it.
func (pt *pageTables) scan(tb testing.TB, schema plan.Schema, rows []plan.Row) *ScanExec {
	tb.Helper()
	pt.n++
	cols := []string{`"row_id":{"cf":"rowkey","col":"key","type":"string"}`}
	names := make([]string, len(schema))
	for i, f := range schema {
		names[i] = f.Name
		cols = append(cols, fmt.Sprintf(`%q:{"cf":"f","col":%q,"type":%q}`, f.Name, f.Name, f.Type))
	}
	cat, err := core.ParseCatalog(fmt.Sprintf(`{"table":{"name":"t%d","tableCoder":"PrimitiveType"},"rowkey":"key","columns":{%s}}`,
		pt.n, strings.Join(cols, ",")))
	if err != nil {
		tb.Fatal(err)
	}
	rel, err := core.NewHBaseRelation(pt.client, cat, core.Options{NewTableRegions: 3}, metrics.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	stored := make([]plan.Row, len(rows))
	for i, r := range rows {
		row := make(plan.Row, len(cat.Schema()))
		for j, f := range cat.Schema() {
			if f.Name == "row_id" {
				row[j] = fmt.Sprintf("r%06d", i)
			} else {
				row[j] = r[schema.IndexOf(f.Name)]
			}
		}
		stored[i] = row
	}
	if len(rows) > 0 {
		if err := rel.Insert(stored); err != nil {
			tb.Fatal(err)
		}
	} else if err := rel.EnsureTable(nil); err != nil {
		tb.Fatal(err)
	}
	parts, _, err := rel.BuildScan(names, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range parts {
		err := p.Batches(context.Background(), datasource.BatchOptions{Keep: true}, func(b *plan.Batch) error {
			if b.Boxed() {
				return fmt.Errorf("partition %T yields boxed rows, not decoded columnar pages", p)
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return &ScanExec{Source: rel, Columns: names, OutSchema: schema, Partitions: parts}
}

// storable reports whether a table of schema holds rows as they are:
// every value is NULL or of its column's Go type, and no row is all NULL
// (HBase stores no row without a cell).
func storable(schema plan.Schema, rows []plan.Row) bool {
	goType := map[plan.DataType]string{plan.TypeInt8: "int8", plan.TypeInt16: "int16",
		plan.TypeInt32: "int32", plan.TypeInt64: "int64", plan.TypeString: "string", plan.TypeFloat64: "float64"}
	for _, r := range rows {
		cells := 0
		for j, v := range r {
			if v != nil && fmt.Sprintf("%T", v) != goType[schema[j].Type] {
				return false
			}
			if v != nil {
				cells++
			}
		}
		if cells == 0 {
			return false
		}
	}
	return true
}

// batchPartition is a partition whose pages are typed batches, decoded
// before the run, so an operator over it times no scan.
type batchPartition struct{ batches []*plan.Batch }

func (p batchPartition) Index() int            { return 0 }
func (p batchPartition) PreferredHost() string { return "" }

func (p batchPartition) Batches(_ context.Context, _ datasource.BatchOptions, yield func(*plan.Batch) error) error {
	for _, b := range p.batches {
		if err := yield(b); err != nil {
			return err
		}
	}
	return nil
}

// typedScan is a scan of r's rows transposed into typed batches of at
// most page rows each.
func typedScan(tb testing.TB, r *rowsExec, page int) *ScanExec {
	var part batchPartition
	for lo := 0; lo < len(r.rows); lo += page {
		b := plan.NewBatch(r.schema)
		for _, row := range r.rows[lo:min(lo+page, len(r.rows))] {
			if err := b.AppendRow(row); err != nil {
				tb.Fatal(err)
			}
		}
		part.batches = append(part.batches, b)
	}
	return &ScanExec{OutSchema: r.schema, Partitions: []datasource.Partition{part}}
}
