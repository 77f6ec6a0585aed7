package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// compositeRig loads a composite-key table: logs keyed by region:host:ts,
// 4 hosts × 25 timestamps under each region (ap, eu, us when none given).
func compositeRig(t *testing.T, opts Options, regions ...string) *testRig {
	t.Helper()
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "c", NumServers: 3, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ParseCatalog(compositeCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if opts.NewTableRegions == 0 {
		opts.NewTableRegions = 6
	}
	client := cluster.NewClient()
	rel, err := NewHBaseRelation(client, cat, opts, meter)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		regions = []string{"ap", "eu", "us"}
	}
	rig := &testRig{cluster: cluster, client: client, cat: cat, rel: rel, meter: meter}
	for _, region := range regions {
		for h := 0; h < 4; h++ {
			for ts := int64(0); ts < 25; ts++ {
				rig.rows = append(rig.rows, plan.Row{region, fmt.Sprintf("host-%d", h), ts,
					fmt.Sprintf("msg-%s-%d-%d", region, h, ts)})
			}
		}
	}
	if err := rel.Insert(rig.rows); err != nil {
		t.Fatal(err)
	}
	return rig
}

func compositeFilters() []datasource.Filter {
	return []datasource.Filter{
		datasource.EqualTo{Column: "region", Value: "eu"},
		datasource.EqualTo{Column: "host", Value: "host-2"},
		datasource.GreaterThanOrEqual{Column: "ts", Value: int64(10)},
		datasource.LessThan{Column: "ts", Value: int64(20)},
	}
}

// keep reports whether row passes every filter, the way the engine
// evaluates them.
func keep(t *testing.T, schema plan.Schema, row plan.Row, filters []datasource.Filter) bool {
	t.Helper()
	for _, f := range filters {
		ok, err := datasource.EvalFilter(f, schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	return true
}

// engineScan runs filters the way the engine does: BuildScan of every
// column, then only the filters BuildScan reports unhandled are
// re-applied. Rows come back in scan order.
func engineScan(t *testing.T, rel *HBaseRelation, filters []datasource.Filter) []plan.Row {
	t.Helper()
	var cols []string
	for _, f := range rel.Schema() {
		cols = append(cols, f.Name)
	}
	parts, idx, err := rel.BuildScan(cols, filters)
	if err != nil {
		t.Fatal(err)
	}
	var unhandled []datasource.Filter
	for _, i := range idx {
		unhandled = append(unhandled, filters[i])
	}
	var out []plan.Row
	for _, r := range scanAll(t, parts) {
		if keep(t, rel.Schema(), r, unhandled) {
			out = append(out, r)
		}
	}
	return out
}

// wantRows filters the rig's loaded rows in the engine, in key order.
func wantRows(t *testing.T, rig *testRig, filters []datasource.Filter) []plan.Row {
	t.Helper()
	var out []plan.Row
	for _, r := range rig.rows {
		if keep(t, rig.rel.Schema(), r, filters) {
			out = append(out, r)
		}
	}
	return out
}

func sameRowSet(t *testing.T, what string, got, want []plan.Row) {
	t.Helper()
	render := func(rows []plan.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(render(got), render(want)) {
		t.Errorf("%s: %d rows, want %d\n got  %v\n want %v", what, len(got), len(want), got, want)
	}
}

func TestFullKeyPruningNarrowsScans(t *testing.T) {
	off := compositeRig(t, Options{FirstDimensionPruning: true})
	on := compositeRig(t, Options{})

	rowsOff := engineScan(t, off.rel, compositeFilters())
	rowsOn := engineScan(t, on.rel, compositeFilters())

	// Identical answers.
	if len(rowsOff) != 10 || len(rowsOn) != 10 {
		t.Fatalf("rows: first-dimension=%d all-dimension=%d, want 10", len(rowsOff), len(rowsOn))
	}
	sameRowSet(t, "all-dimension vs first-dimension", rowsOn, rowsOff)
	// First-dimension pruning scans every host/ts under region=eu;
	// all-dimension pruning hits exactly the (eu, host-2, [10,20)) range.
	if scanned := off.meter.Get(metrics.RowsScanned); scanned != 100 {
		t.Errorf("first-dimension pruning should scan region=eu's 100 rows, got %d", scanned)
	}
	if scanned := on.meter.Get(metrics.RowsScanned); scanned != 10 {
		t.Errorf("all-dimension pruning should scan exactly the 10 matching rows, got %d", scanned)
	}
	if un := unhandledOf(t, on.rel, compositeFilters()); len(un) != 0 {
		t.Errorf("every predicate is encoded in the range, unhandled = %v", un)
	}
}

// unhandledOf plans a scan under filters and returns the filters
// BuildScan reports unhandled.
func unhandledOf(t *testing.T, rel datasource.PrunedFilteredScan, filters []datasource.Filter) []datasource.Filter {
	t.Helper()
	_, idx, err := rel.BuildScan(nil, filters)
	if err != nil {
		t.Fatal(err)
	}
	var out []datasource.Filter
	for _, i := range idx {
		out = append(out, filters[i])
	}
	return out
}

func TestFullKeyPruningFallsBackWithoutLeadingEquality(t *testing.T) {
	rig := compositeRig(t, Options{})
	// Equality only on the second dimension: no contiguous prefix, so the
	// pass must not narrow (and must not break results).
	filters := []datasource.Filter{datasource.EqualTo{Column: "host", Value: "host-1"}}
	tr, _ := rig.rel.pushdown(filters)
	if !tr.ranges.IsFull() {
		t.Errorf("no leading equality must give the full set, got %v", tr.ranges.Ranges())
	}
	// A key dimension is not a cell, so no server-side filter exists for
	// it: the scan stays full and the engine re-applies the predicate.
	parts, _, err := rig.rel.BuildScan([]string{"region", "host"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, parts)); got != 300 {
		t.Errorf("rows = %d, want 300 (unnarrowed)", got)
	}
	if un := unhandledOf(t, rig.rel, filters); len(un) != 1 {
		t.Errorf("host equality must be unhandled, got %v", un)
	}
}

func TestFullKeyPruningEqualityOnAllDims(t *testing.T) {
	rig := compositeRig(t, Options{})
	filters := []datasource.Filter{
		datasource.EqualTo{Column: "region", Value: "us"},
		datasource.EqualTo{Column: "host", Value: "host-0"},
		datasource.EqualTo{Column: "ts", Value: int64(7)},
	}
	before := rig.meter.Get(metrics.RowsScanned)
	parts, _, err := rig.rel.BuildScan([]string{"msg"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	ops := parts[0].(*hbasePartition).ops
	if len(ops) != 1 || len(ops[0].Rows) != 1 {
		t.Errorf("a full-key equality must be one get, ops = %+v", ops)
	}
	rows := scanAll(t, parts)
	if len(rows) != 1 || rows[0][0] != "msg-us-0-7" {
		t.Fatalf("rows = %v", rows)
	}
	if scanned := rig.meter.Get(metrics.RowsScanned) - before; scanned != 1 {
		t.Errorf("scanned %d rows, want exactly 1", scanned)
	}
	if un := unhandledOf(t, rig.rel, filters); len(un) != 0 {
		t.Errorf("every key predicate is encoded in the get, unhandled = %v", un)
	}
}

func TestCompositeFirstDimensionPruningOption(t *testing.T) {
	// The paper's stated behaviour: pruning on the first dimension only.
	rig := compositeRig(t, Options{FirstDimensionPruning: true})
	before := rig.meter.Get(metrics.RowsScanned)
	parts, _, err := rig.rel.BuildScan([]string{"msg"}, compositeFilters())
	if err != nil {
		t.Fatal(err)
	}
	scanAll(t, parts)
	scanned := rig.meter.Get(metrics.RowsScanned) - before
	// region=eu narrows to 100 rows (first dimension); host/ts predicates
	// do not narrow further.
	if scanned != 100 {
		t.Errorf("scanned = %d, want 100 (first-dimension pruning only)", scanned)
	}
	tr := rig.rel.translate(datasource.EqualTo{Column: "host", Value: "host-1"})
	if tr.handled {
		t.Error("equality on a non-first key dimension is not handled with first-dimension pruning")
	}
}

// TestCompositeVariableWidthFirstDimension: the first dimension is a
// variable-width string, stored with a terminator, so "eu" must not match
// the "euw" rows and bounds must order "euw" after "eu". Every predicate is
// checked through the engine's path (only unhandled filters re-applied)
// against the rows filtered in the engine.
func TestCompositeVariableWidthFirstDimension(t *testing.T) {
	for _, opts := range []Options{{}, {FirstDimensionPruning: true}} {
		rig := compositeRig(t, opts, "ap", "eu", "euw")
		for _, tc := range []struct {
			name    string
			filter  datasource.Filter
			handled bool
		}{
			{"equal", datasource.EqualTo{Column: "region", Value: "eu"}, true},
			{"in", datasource.In{Column: "region", Values: []any{"eu"}}, true},
			{"greater", datasource.GreaterThan{Column: "region", Value: "eu"}, true},
			{"less or equal", datasource.LessThanOrEqual{Column: "region", Value: "eu"}, true},
			{"greater or equal", datasource.GreaterThanOrEqual{Column: "region", Value: "eu"}, true},
			{"less", datasource.LessThan{Column: "region", Value: "euw"}, true},
			{"starts with", datasource.StringStartsWith{Column: "region", Prefix: "eu"}, true},
			{"equal to a NUL value", datasource.EqualTo{Column: "region", Value: "eu\x00"}, true},
			{"starts with NUL", datasource.StringStartsWith{Column: "region", Prefix: "eu\x00"}, false},
		} {
			filters := []datasource.Filter{tc.filter}
			name := fmt.Sprintf("%s (first dimension only %v)", tc.name, opts.FirstDimensionPruning)
			sameRowSet(t, name, engineScan(t, rig.rel, filters), wantRows(t, rig, filters))
			if un := unhandledOf(t, rig.rel, filters); (len(un) == 0) != tc.handled {
				t.Errorf("%s: unhandled = %v, want handled %v", name, un, tc.handled)
			}
		}
	}
}

func TestCompositeInBecomesGets(t *testing.T) {
	rig := compositeRig(t, Options{})
	// 1 × 2 × 3 = 6 keys; ts 99 does not exist, so 4 rows do.
	filters := []datasource.Filter{
		datasource.EqualTo{Column: "region", Value: "eu"},
		datasource.In{Column: "host", Values: []any{"host-3", "host-1"}},
		datasource.In{Column: "ts", Values: []any{int64(7), int64(99), int64(3)}},
	}
	before := rig.meter.Get(metrics.RowsScanned)
	got := engineScan(t, rig.rel, filters)
	if scanned := rig.meter.Get(metrics.RowsScanned) - before; scanned != 4 {
		t.Errorf("scanned %d rows, want the 4 keys that exist", scanned)
	}
	if len(got) != 4 {
		t.Errorf("rows = %d, want 4", len(got))
	}
	sameRowSet(t, "composite IN", got, wantRows(t, rig, filters))
	if un := unhandledOf(t, rig.rel, filters); len(un) != 0 {
		t.Errorf("every key predicate is encoded in the gets, unhandled = %v", un)
	}
	parts, _, err := rig.rel.BuildScan([]string{"msg"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for _, p := range parts {
		for _, op := range p.(*hbasePartition).ops {
			if len(op.Rows) == 0 {
				t.Errorf("composite IN must be gets only, got scan op %+v", op)
			}
			keys += len(op.Rows)
		}
	}
	if keys != 6 {
		t.Errorf("gets = %d keys, want the 6 of the cross product", keys)
	}

	// 1 × 4 × 25 = 100 keys is past maxKeyPoints: the ts IN falls back to
	// the (eu, host) prefix ranges and is re-applied by the engine.
	var ts []any
	for i := int64(0); i < 25; i++ {
		ts = append(ts, i)
	}
	wide := []datasource.Filter{
		datasource.EqualTo{Column: "region", Value: "eu"},
		datasource.In{Column: "host", Values: []any{"host-0", "host-1", "host-2", "host-3"}},
		datasource.In{Column: "ts", Values: ts},
	}
	before = rig.meter.Get(metrics.RowsScanned)
	sameRowSet(t, "IN past the cap", engineScan(t, rig.rel, wide), wantRows(t, rig, wide))
	if scanned := rig.meter.Get(metrics.RowsScanned) - before; scanned != 100 {
		t.Errorf("scanned %d rows, want the 100 under the (eu, host) prefixes", scanned)
	}
	if un := unhandledOf(t, rig.rel, wide); !reflect.DeepEqual(un, wide[2:]) {
		t.Errorf("only the ts IN past the cap is unhandled, got %v", un)
	}
}

const singleKeyCatalog = `{
  "table":{"name":"single", "tableCoder":%q},
  "rowkey":"key",
  "columns":{
    "id":{"cf":"rowkey", "col":"key", "type":%q},
    "v":{"cf":"p", "col":"v", "type":"string"}
  }
}`

// TestSingleKeyPredicatesAreExact: on a one-dimension key the dimension is
// the key's whole tail, so a bound must treat keys that extend the value as
// greater than it, a LIKE prefix is encoded by the coder, and no key sorts
// after the largest value. Each predicate is handled, so the scan alone
// must give the engine's answer.
func TestSingleKeyPredicatesAreExact(t *testing.T) {
	for _, tc := range []struct {
		coder, keyType string
		keys           []any
		filter         datasource.Filter
	}{
		{"PrimitiveType", "string", []any{"a", "ab", "ab\x00", "abc", "b"},
			datasource.GreaterThan{Column: "id", Value: "ab"}},
		{"PrimitiveType", "string", []any{"a", "ab", "ab\x00", "abc", "b"},
			datasource.LessThanOrEqual{Column: "id", Value: "ab"}},
		{"Phoenix", "string", []any{"a", "ab", "abc", "b"},
			datasource.StringStartsWith{Column: "id", Prefix: "ab"}},
		{"PrimitiveType", "bigint", []any{int64(-1), int64(0), int64(math.MaxInt64)},
			datasource.GreaterThan{Column: "id", Value: int64(math.MaxInt64)}},
		{"PrimitiveType", "bigint", []any{int64(-1), int64(0), int64(math.MaxInt64)},
			datasource.LessThanOrEqual{Column: "id", Value: int64(math.MaxInt64)}},
	} {
		meter := metrics.NewRegistry()
		cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "s", NumServers: 2, Meter: meter})
		if err != nil {
			t.Fatal(err)
		}
		cat, err := ParseCatalog(fmt.Sprintf(singleKeyCatalog, tc.coder, tc.keyType))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := NewHBaseRelation(cluster.NewClient(), cat, Options{NewTableRegions: 2}, meter)
		if err != nil {
			t.Fatal(err)
		}
		rig := &testRig{rel: rel}
		for _, k := range tc.keys {
			rig.rows = append(rig.rows, plan.Row{k, fmt.Sprint(k)})
		}
		if err := rel.Insert(rig.rows); err != nil {
			t.Fatal(err)
		}
		filters := []datasource.Filter{tc.filter}
		name := fmt.Sprintf("%s %s", tc.coder, tc.filter)
		sameRowSet(t, name, engineScan(t, rel, filters), wantRows(t, rig, filters))
		if un := unhandledOf(t, rel, filters); len(un) != 0 {
			t.Errorf("%s: unhandled = %v, want handled", name, un)
		}
	}
}
