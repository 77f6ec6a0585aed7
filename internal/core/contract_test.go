package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

const eventsCatalog = `{
  "table":{"name":"events", "tableCoder":"PrimitiveType"},
  "rowkey":"r:h:t",
  "columns":{
    "region":{"cf":"rowkey", "col":"r", "type":"string"},
    "host":{"cf":"rowkey", "col":"h", "type":"string"},
    "ts":{"cf":"rowkey", "col":"t", "type":"bigint"},
    "msg":{"cf":"a", "col":"m", "type":"string"},
    "bytes":{"cf":"a", "col":"b", "type":"int"},
    "score":{"cf":"b", "col":"s", "type":"double"}
  }
}`

// contractSources loads one composite-key table, with a NULL in one cell
// column of three rows in four, into each source the engine reads: the
// in-memory relation, SHC's HBase relation, and the generic baseline. An
// HBase partition spans several streamed pages.
func contractSources(t *testing.T) (map[string]datasource.PrunedFilteredScan, []plan.Row) {
	t.Helper()
	cat, err := ParseCatalog(eventsCatalog)
	if err != nil {
		t.Fatal(err)
	}
	var rows []plan.Row
	for _, region := range []string{"ap", "eu", "us"} {
		for h := 0; h < 4; h++ {
			for ts := int64(0); ts < 90; ts++ {
				vals := map[string]any{"region": region, "host": fmt.Sprintf("host-%d", h), "ts": ts,
					"msg": fmt.Sprintf("m-%d", ts), "bytes": int32(ts * 3), "score": float64(ts) / 4}
				delete(vals, []string{"", "msg", "bytes", "score"}[ts%4])
				row := make(plan.Row, len(cat.Schema()))
				for i, f := range cat.Schema() {
					row[i] = vals[f.Name]
				}
				rows = append(rows, row)
			}
		}
	}
	boot := func(name string) *hbase.Client {
		cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: name, NumServers: 3, Meter: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		client := cluster.NewClient()
		t.Cleanup(client.Close)
		return client
	}
	shc, err := NewHBaseRelation(boot("shc"), cat, Options{NewTableRegions: 6}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]datasource.PrunedFilteredScan{
		"mem":      datasource.NewMemRelation("events", cat.Schema(), 3),
		"hbase":    shc,
		"baseline": NewBaselineRelation(boot("baseline"), cat, Options{}, metrics.NewRegistry()),
	}
	for name, src := range sources {
		if err := src.(datasource.InsertableRelation).Insert(rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return sources, rows
}

// TestPartitionBatchesContract holds every source to the one partition
// read, over two projections of a composite-key table with NULLs:
//   - (a) a Keep stream's rows equal a streamed read's rows boxed inside
//     each yield, and equal the table's. The kept batches are read only
//     after a second stream has run, so a pooled batch handed to a Keep
//     consumer shows up as rows overwritten by the second stream.
//   - (b) a stream with LimitHint n yields min(n, the partition's rows).
//   - (c) a yield that returns ErrStopBatches ends the stream, Keep or
//     not, with a nil error and no further yield.
func TestPartitionBatchesContract(t *testing.T) {
	sources, rows := contractSources(t)
	schema := sources["mem"].Schema()
	projections := [][]string{
		{"region", "host", "ts", "msg", "bytes", "score"},
		{"score", "ts", "msg"},
	}
	for name, src := range sources {
		for _, cols := range projections {
			at := fmt.Sprintf("%s %v", name, cols)
			parts, _, err := src.BuildScan(cols, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]plan.Row, len(rows))
			for i, r := range rows {
				want[i] = make(plan.Row, len(cols))
				for j, c := range cols {
					want[i][j] = r[schema.IndexOf(c)]
				}
			}

			// (a) Keep, then a second, streamed read, then the kept rows.
			kept := make([][]*plan.Batch, len(parts))
			for i, p := range parts {
				kept[i] = keptBatches(t, p, datasource.BatchOptions{})
			}
			var streamed, all []plan.Row
			for _, p := range parts {
				streamed = append(streamed, streamedRows(t, p, datasource.BatchOptions{EagerColumns: []int{0}})...)
			}
			perPart := make([]int, len(parts))
			for i := range parts {
				got := batchesRows(t, kept[i])
				perPart[i] = len(got)
				all = append(all, got...)
			}
			if !reflect.DeepEqual(all, streamed) {
				t.Fatalf("%s: kept rows differ from streamed rows (%d vs %d)", at, len(all), len(streamed))
			}
			sortContract(all)
			sortContract(want)
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("%s: %d rows read differ from the %d rows stored", at, len(all), len(want))
			}

			// (b) LimitHint caps each partition's stream: within a page and
			// past a streamed page's fusedBatchRows.
			for _, n := range []int{7, fusedBatchRows + 5} {
				capped := false
				for i, p := range parts {
					got := len(streamedRows(t, p, datasource.BatchOptions{LimitHint: n}))
					if got != min(n, perPart[i]) {
						t.Fatalf("%s: LimitHint %d on a partition of %d rows yielded %d", at, n, perPart[i], got)
					}
					capped = capped || perPart[i] > n
				}
				if !capped && n == 7 {
					t.Fatalf("%s: no partition holds more than %d rows; the cap is untested", at, n)
				}
			}

			// (c) ErrStopBatches on the first yield ends the stream cleanly.
			for _, keep := range []bool{true, false} {
				for _, p := range parts {
					calls := 0
					err := p.Batches(context.Background(), datasource.BatchOptions{Keep: keep}, func(*plan.Batch) error {
						calls++
						return datasource.ErrStopBatches
					})
					if err != nil || calls != 1 {
						t.Fatalf("%s (keep %v): stopped stream returned %v after %d yields, want nil after 1", at, keep, err, calls)
					}
				}
			}
		}
	}
}

// sortContract orders rows by their printed values.
func sortContract(rows []plan.Row) {
	sort.Slice(rows, func(i, j int) bool { return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j]) })
}
