package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/engine"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

const typedCatalog = `{
  "table":{"name":"typed", "tableCoder":%q},
  "rowkey":"key",
  "columns":{
    "id":{"cf":"rowkey", "col":"key", "type":"string"},
    "i8":{"cf":"n", "col":"a", "type":"tinyint"},
    "i16":{"cf":"n", "col":"b", "type":"smallint"},
    "i32":{"cf":"n", "col":"c", "type":"int"},
    "i64":{"cf":"n", "col":"d", "type":"bigint"},
    "f32":{"cf":"f", "col":"e", "type":"float"},
    "f64":{"cf":"f", "col":"g", "type":"double"},
    "s":{"cf":"t", "col":"s", "type":"string"}
  }
}`

// rowsOnly hides AggregateScan from a relation's partitions, keeping every
// other capability: a query over it takes the unpushed vector path, the
// reference the pushed answers must equal.
type rowsOnly struct{ *HBaseRelation }

func (r rowsOnly) BuildScan(cols []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	ps, err := r.PrepareScan(cols, filters, nil)
	if err != nil {
		return nil, nil, err
	}
	return ps.BindScan(filters)
}

// PrepareScan hides the capability from the partitions of every bind too:
// the engine plans its scans through it.
func (r rowsOnly) PrepareScan(cols []string, filters []datasource.Filter, slotted []bool) (datasource.PreparedScan, error) {
	ps, err := r.HBaseRelation.PrepareScan(cols, filters, slotted)
	return rowsOnlyScan{ps}, err
}

type rowsOnlyScan struct{ datasource.PreparedScan }

func (s rowsOnlyScan) BindScan(filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	parts, unhandled, err := s.PreparedScan.BindScan(filters)
	for i, p := range parts {
		parts[i] = rowsPartition{Partition: p, BatchScan: p.(datasource.BatchScan), VectorScan: p.(datasource.VectorScan)}
	}
	return parts, unhandled, err
}

type rowsPartition struct {
	datasource.Partition
	datasource.BatchScan
	datasource.VectorScan
}

// typedRig loads n rows of every numeric type, with NULLs, negative values
// and floats whose sum depends on addition order, into a table pre-split
// across three servers, and registers it as "typed" and, with aggregate
// pushdown hidden, "typed_rows".
func typedRig(t *testing.T, n int) (*testRig, *engine.Session) {
	t.Helper()
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "t", NumServers: 3, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient()
	cat, err := ParseCatalog(fmt.Sprintf(typedCatalog, "PrimitiveType"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewHBaseRelation(client, cat, Options{NewTableRegions: 7}, meter)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{cluster: cluster, client: client, cat: cat, rel: rel, meter: meter}
	nullIf := func(null bool, v any) any {
		if null {
			return nil
		}
		return v
	}
	for i := 0; i < n; i++ {
		// Schema order: the rowkey, then data columns by name.
		rig.rows = append(rig.rows, plan.Row{
			fmt.Sprintf("k%04d", i),
			nullIf(i%3 == 0, float32(i)*0.37-11.1),
			nullIf(i%4 == 0, float64(i)*0.1+1e-9*float64(i*i)-7.3),
			nullIf(i%11 == 0, int16(i*37%3000-1500)),
			nullIf(i%7 == 0, int32(i*7919%100000-50000)),
			nullIf(i%5 == 0, int64(i)*1_000_003-int64(n)*400_000),
			nullIf(i%13 == 0, int8(i%200-100)),
			fmt.Sprintf("s%03d", i%97),
		})
	}
	if err := rel.Insert(rig.rows); err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(engine.Config{Hosts: cluster.Hosts(), ExecutorsPerHost: 2, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	sess.RegisterAs("typed", rel)
	sess.RegisterAs("typed_rows", rowsOnly{rel})
	return rig, sess
}

func collectSQL(t *testing.T, sess *engine.Session, q string) ([]plan.Row, error) {
	t.Helper()
	df, err := sess.SQL(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return df.Collect()
}

// TestPushedAggregatesMatchVectorPath is the equivalence contract of
// aggregate pushdown: every shape the region folds returns exactly —
// reflect.DeepEqual, float sums included — what the unpushed vector fold
// returns, and the pushed run moves no row pages.
func TestPushedAggregatesMatchVectorPath(t *testing.T) {
	rig, sess := typedRig(t, 400)
	parts, _, err := rig.rel.BuildScan([]string{"i32"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := rig.client.Regions("typed")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 || len(regions) <= len(parts) {
		t.Fatalf("want several multi-region partitions, got %d partitions over %d regions", len(parts), len(regions))
	}

	all := "count(*), count(i32), count(f64), sum(i8), sum(i16), sum(i32), sum(i64), sum(f32), sum(f64), " +
		"avg(i32), avg(i64), avg(f32), avg(f64), min(i8), max(i8), min(i16), max(i16), min(i32), max(i32), " +
		"min(i64), max(i64), min(f32), max(f32), min(f64), max(f64)"
	wheres := []string{
		"",                                      // every region of every host
		" WHERE id >= 'k0050' AND id < 'k0333'", // a range over several regions and hosts
		" WHERE id BETWEEN 'k0100' AND 'k0102'", // inside one region
		" WHERE id > 'zzz'",                     // empty range: NULL extremes, zero counts
		" WHERE id = 'k0042'",                   // point get
		" WHERE id IN ('k0003', 'k0210', 'k0399')", // bulk gets on several hosts
		" WHERE i32 > 0", // a column filter pushed into the scan
	}
	for table, want := range map[string]bool{"typed": true, "typed_rows": false} {
		df, err := sess.SQL("SELECT sum(i32) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		explained, err := df.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(explained, "pushed=region"); got != want {
			t.Errorf("EXPLAIN over %s shows pushed=region: %v, want %v\n%s", table, got, want, explained)
		}
	}
	for _, where := range wheres {
		q := "SELECT " + all + " FROM %s" + where
		before := rig.meter.Get(metrics.AggregateOps)
		pagesBefore := rig.meter.Get(metrics.FusedPages)
		got, err := collectSQL(t, sess, fmt.Sprintf(q, "typed"))
		if err != nil {
			t.Fatalf("pushed %q: %v", where, err)
		}
		if rig.meter.Get(metrics.AggregateOps) == before {
			t.Errorf("%q: no aggregate op pushed", where)
		}
		if n := rig.meter.Get(metrics.FusedPages) - pagesBefore; n != 0 {
			t.Errorf("%q: pushed run moved %d row pages", where, n)
		}
		before = rig.meter.Get(metrics.AggregateOps)
		want, err := collectSQL(t, sess, fmt.Sprintf(q, "typed_rows"))
		if err != nil {
			t.Fatalf("unpushed %q: %v", where, err)
		}
		if rig.meter.Get(metrics.AggregateOps) != before {
			t.Errorf("%q: the hidden relation still pushed", where)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: pushed and vector answers differ\npushed: %v\nvector: %v", where, got, want)
		}
	}
}

// TestPushedAggregateDeclines pins when the relation declines to fold at
// the region: the query still answers through the row stream.
func TestPushedAggregateDeclines(t *testing.T) {
	rig, sess := typedRig(t, 60)
	for _, q := range []string{
		"SELECT min(s), max(s) FROM %s", // no numeric interpretation
		"SELECT min(id) FROM %s",        // a rowkey dimension
	} {
		before := rig.meter.Get(metrics.AggregateOps)
		got, err := collectSQL(t, sess, fmt.Sprintf(q, "typed"))
		if err != nil {
			t.Fatal(err)
		}
		if rig.meter.Get(metrics.AggregateOps) != before {
			t.Errorf("%q pushed; it must decline", q)
		}
		want, err := collectSQL(t, sess, fmt.Sprintf(q, "typed_rows"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: %v vs %v", q, got, want)
		}
	}

	sum := []datasource.Aggregate{{Kind: plan.AggSum, Column: 0}}
	if _, ok := rig.rel.aggSpecs([]string{"i32"}, sum); !ok {
		t.Fatal("sum(int) over PrimitiveType must push")
	}
	phoenix, err := ParseCatalog(fmt.Sprintf(typedCatalog, "Phoenix"))
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{"Phoenix coder": {}, "MaxVersions 2": {MaxVersions: 2}} {
		cat := rig.cat
		if name == "Phoenix coder" {
			cat = phoenix
		}
		rel, err := NewHBaseRelation(rig.client, cat, opts, rig.meter)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rel.aggSpecs([]string{"i32"}, sum); ok {
			t.Errorf("%s: must decline", name)
		}
	}
}

// TestPushedAggregateMalformedValue stores a cell that does not decode as
// its column's type: the pushed aggregate fails the query, like the client
// decode path, and the failure is not retried.
func TestPushedAggregateMalformedValue(t *testing.T) {
	rig, sess := typedRig(t, 60)
	key, err := rig.rel.codec.encodeRowkey([]any{"k0007"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.client.Put("typed", []hbase.Cell{{Row: key, Family: "n", Qualifier: "c", Timestamp: 5, Type: hbase.TypePut, Value: []byte{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	retries := rig.meter.Get(metrics.ClientRetries)
	if _, err := collectSQL(t, sess, "SELECT sum(i32) FROM typed"); err == nil || !strings.Contains(err.Error(), "int32 needs 4 bytes") {
		t.Fatalf("pushed sum over a malformed cell: err = %v, want a decode error", err)
	}
	if n := rig.meter.Get(metrics.ClientRetries) - retries; n != 0 {
		t.Errorf("decode failure retried %d times", n)
	}
	if _, err := collectSQL(t, sess, "SELECT sum(i32) FROM typed_rows"); err == nil {
		t.Fatal("unpushed sum over a malformed cell succeeded")
	}
}
