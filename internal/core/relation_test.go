package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

const usersCatalog = `{
  "table":{"name":"users", "tableCoder":"PrimitiveType"},
  "rowkey":"key",
  "columns":{
    "id":{"cf":"rowkey", "col":"key", "type":"string"},
    "age":{"cf":"p", "col":"a", "type":"int"},
    "city":{"cf":"p", "col":"c", "type":"string"},
    "score":{"cf":"s", "col":"s", "type":"double"}
  }
}`

// testRig is one booted cluster + SHC relation + loaded rows.
type testRig struct {
	cluster *hbase.Cluster
	client  *hbase.Client
	cat     *Catalog
	rel     *HBaseRelation
	meter   *metrics.Registry
	rows    []plan.Row
}

func newRig(t *testing.T, opts Options, n int) *testRig {
	t.Helper()
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "t", NumServers: 3, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient()
	cat, err := ParseCatalog(usersCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if opts.NewTableRegions == 0 {
		opts.NewTableRegions = 5
	}
	rel, err := NewHBaseRelation(client, cat, opts, meter)
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{cluster: cluster, client: client, cat: cat, rel: rel, meter: meter}
	if n > 0 {
		for i := 0; i < n; i++ {
			rig.rows = append(rig.rows, plan.Row{
				fmt.Sprintf("user-%04d", i),
				int32(18 + i%60),
				[]string{"sf", "nyc", "la"}[i%3],
				float64(i) / 10,
			})
		}
		if err := rel.Insert(rig.rows); err != nil {
			t.Fatal(err)
		}
	}
	return rig
}

// scanAll reads every partition through a Keep stream and returns the
// rows.
func scanAll(t *testing.T, parts []datasource.Partition) []plan.Row {
	t.Helper()
	var out []plan.Row
	for _, p := range parts {
		out = append(out, keptRows(t, p, datasource.BatchOptions{})...)
	}
	return out
}

func sortRows(rows []plan.Row) {
	sort.Slice(rows, func(i, j int) bool {
		return fmt.Sprint(rows[i][0]) < fmt.Sprint(rows[j][0])
	})
}

func TestInsertAndFullScan(t *testing.T) {
	rig := newRig(t, Options{}, 50)
	parts, _, err := rig.rel.BuildScan([]string{"id", "age", "city", "score"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 50 {
		t.Fatalf("rows = %d", len(got))
	}
	sortRows(got)
	for i, r := range got {
		want := rig.rows[i]
		if r[0] != want[0] || r[1] != want[1] || r[2] != want[2] || r[3] != want[3] {
			t.Fatalf("row %d = %v, want %v", i, r, want)
		}
	}
}

func TestInsertPreSplitsRegions(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 5}, 100)
	regions, err := rig.client.Regions("users")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 5 {
		t.Errorf("regions = %d, want 5 (newTable pre-split)", len(regions))
	}
}

func TestPartitionPruningOnRowkeyRange(t *testing.T) {
	rig := newRig(t, Options{}, 100)
	// Keys user-0000..user-0099 split across 5 regions; a narrow range
	// must prune most regions.
	filters := []datasource.Filter{
		datasource.GreaterThanOrEqual{Column: "id", Value: "user-0090"},
	}
	parts, _, err := rig.rel.BuildScan([]string{"id"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 10 {
		t.Errorf("rows = %d, want 10", len(got))
	}
	if rig.meter.Get(metrics.RegionsPruned) == 0 {
		t.Error("expected pruned regions")
	}
	if rig.meter.Get(metrics.FiltersPushed) != 1 {
		t.Errorf("filters pushed = %d", rig.meter.Get(metrics.FiltersPushed))
	}
	// The source fully handles a rowkey range.
	if un := unhandledOf(t, rig.rel, filters); len(un) != 0 {
		t.Errorf("unhandled = %v", un)
	}
}

func TestEqualToBecomesPointGet(t *testing.T) {
	rig := newRig(t, Options{}, 60)
	before := rig.meter.Get(metrics.RowsScanned)
	parts, _, err := rig.rel.BuildScan([]string{"id", "age"},
		[]datasource.Filter{datasource.EqualTo{Column: "id", Value: "user-0033"}})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 1 || got[0][0] != "user-0033" {
		t.Fatalf("rows = %v", got)
	}
	if scanned := rig.meter.Get(metrics.RowsScanned) - before; scanned != 1 {
		t.Errorf("rows scanned = %d, want 1 (point get)", scanned)
	}
	if len(parts) != 1 {
		t.Errorf("partitions = %d, want 1 after pruning to one region", len(parts))
	}
}

func TestColumnPruningLimitsWireBytes(t *testing.T) {
	rig := newRig(t, Options{}, 80)
	run := func(cols []string) int64 {
		before := rig.meter.Get(metrics.CellsReturned)
		parts, _, err := rig.rel.BuildScan(cols, nil)
		if err != nil {
			t.Fatal(err)
		}
		scanAll(t, parts)
		return rig.meter.Get(metrics.CellsReturned) - before
	}
	narrow := run([]string{"id", "age"})
	wide := run([]string{"id", "age", "city", "score"})
	if narrow >= wide {
		t.Errorf("column pruning did not reduce cells: %d vs %d", narrow, wide)
	}
}

func TestNonKeyFilterPushedServerSide(t *testing.T) {
	rig := newRig(t, Options{}, 90)
	filters := []datasource.Filter{datasource.EqualTo{Column: "city", Value: "sf"}}
	parts, _, err := rig.rel.BuildScan([]string{"id", "city"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 30 {
		t.Errorf("rows = %d, want 30", len(got))
	}
	for _, r := range got {
		if r[1] != "sf" {
			t.Fatalf("server-side filter leaked row %v", r)
		}
	}
	if un := unhandledOf(t, rig.rel, filters); len(un) != 0 {
		t.Errorf("city filter should be handled, unhandled = %v", un)
	}
	// Server returned exactly the matching rows: pushdown, not post-filter.
	if rig.meter.Get(metrics.RowsReturned) != 30 {
		t.Errorf("rows returned = %d", rig.meter.Get(metrics.RowsReturned))
	}
}

func TestNotInStaysUnhandled(t *testing.T) {
	rig := newRig(t, Options{}, 30)
	filters := []datasource.Filter{datasource.NotIn{Column: "city", Values: []any{"sf", "la"}}}
	un := unhandledOf(t, rig.rel, filters)
	if len(un) != 1 {
		t.Fatalf("NOT IN must be unhandled (paper §VI-A.3), got %v", un)
	}
	// The scan still returns everything; the engine would re-filter.
	parts, _, err := rig.rel.BuildScan([]string{"id", "city"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, parts); len(got) != 30 {
		t.Errorf("NOT IN must not restrict the scan, rows = %d", len(got))
	}
}

func TestRowkeyOrLeadsToFullScanButInPrunes(t *testing.T) {
	rig := newRig(t, Options{}, 60)
	// OR across a rowkey range and a column predicate → full scan (paper
	// §VI-A.1's WHERE rowkey1 > "abc" OR column = "xyz" example).
	or := datasource.OrFilter{
		Left:  datasource.GreaterThan{Column: "id", Value: "user-0055"},
		Right: datasource.EqualTo{Column: "city", Value: "sf"},
	}
	tr := rig.rel.translate(or)
	if !tr.ranges.IsFull() {
		t.Errorf("mixed OR must scan everything, got %v", tr.ranges.Ranges())
	}
	if tr.handled {
		t.Error("mixed OR must stay unhandled")
	}
	// IN on the rowkey prunes to points.
	in := datasource.In{Column: "id", Values: []any{"user-0001", "user-0002"}}
	parts, _, err := rig.rel.BuildScan([]string{"id"}, []datasource.Filter{in})
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, parts); len(got) != 2 {
		t.Errorf("IN point rows = %d", len(got))
	}
	// Pure rowkey OR unions ranges and stays handled.
	keyOr := datasource.OrFilter{
		Left:  datasource.LessThan{Column: "id", Value: "user-0002"},
		Right: datasource.GreaterThanOrEqual{Column: "id", Value: "user-0058"},
	}
	trk := rig.rel.translate(keyOr)
	if !trk.handled || len(trk.ranges.Ranges()) != 2 {
		t.Errorf("rowkey OR = handled %v ranges %v", trk.handled, trk.ranges.Ranges())
	}
}

func TestRangeAndFilterCombination(t *testing.T) {
	rig := newRig(t, Options{}, 100)
	filters := []datasource.Filter{
		datasource.GreaterThanOrEqual{Column: "id", Value: "user-0020"},
		datasource.LessThan{Column: "id", Value: "user-0040"},
		datasource.EqualTo{Column: "city", Value: "nyc"},
	}
	parts, _, err := rig.rel.BuildScan([]string{"id", "city", "age"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	want := 0
	for i := 20; i < 40; i++ {
		if i%3 == 1 { // nyc
			want++
		}
	}
	if len(got) != want {
		t.Errorf("rows = %d, want %d", len(got), want)
	}
}

func TestPreferredHostsMatchRegions(t *testing.T) {
	rig := newRig(t, Options{}, 100)
	parts, _, err := rig.rel.BuildScan([]string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make(map[string]bool)
	for _, p := range parts {
		if p.PreferredHost() == "" {
			t.Error("SHC partitions must carry locality")
		}
		hosts[p.PreferredHost()] = true
	}
	// Fusion: one partition per region server (3 servers, 5 regions).
	if len(parts) != 3 {
		t.Errorf("fused partitions = %d, want 3", len(parts))
	}
	if len(hosts) != 3 {
		t.Errorf("distinct hosts = %d", len(hosts))
	}
}

func TestDisableOperatorFusion(t *testing.T) {
	rig := newRig(t, Options{DisableOperatorFusion: true}, 100)
	parts, _, err := rig.rel.BuildScan([]string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Errorf("per-region partitions = %d, want 5", len(parts))
	}
	if got := scanAll(t, parts); len(got) != 100 {
		t.Errorf("rows = %d", len(got))
	}
}

func TestDisablePartitionPruning(t *testing.T) {
	rig := newRig(t, Options{DisablePartitionPruning: true}, 100)
	before := rig.meter.Get(metrics.RegionsScanned)
	parts, _, err := rig.rel.BuildScan([]string{"id"},
		[]datasource.Filter{datasource.EqualTo{Column: "id", Value: "user-0001"}})
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 1 {
		t.Errorf("rows = %d", len(got))
	}
	if scanned := rig.meter.Get(metrics.RegionsScanned) - before; scanned != 5 {
		t.Errorf("regions scanned = %d, want 5 without pruning", scanned)
	}
}

func TestDisableFilterPushdown(t *testing.T) {
	rig := newRig(t, Options{DisableFilterPushdown: true}, 40)
	filters := []datasource.Filter{datasource.EqualTo{Column: "city", Value: "sf"}}
	if un := unhandledOf(t, rig.rel, filters); len(un) != 1 {
		t.Errorf("all filters must be unhandled, got %v", un)
	}
	parts, _, err := rig.rel.BuildScan([]string{"id", "city"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, parts); len(got) != 40 {
		t.Errorf("rows = %d (no pushdown means no narrowing)", len(got))
	}
}

func TestNullColumnsRoundTrip(t *testing.T) {
	rig := newRig(t, Options{}, 0)
	rows := []plan.Row{
		{"k1", int32(10), nil, 1.5},
		{"k2", nil, "sf", nil},
	}
	if err := rig.rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	parts, _, err := rig.rel.BuildScan([]string{"id", "age", "city", "score"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	sortRows(got)
	if got[0][2] != nil || got[1][1] != nil || got[1][3] != nil {
		t.Errorf("NULLs lost: %v", got)
	}
	if got[0][1] != int32(10) || got[1][2] != "sf" {
		t.Errorf("values lost: %v", got)
	}
	// NULL rowkey rejected.
	if err := rig.rel.Insert([]plan.Row{{nil, int32(1), "x", 1.0}}); err == nil {
		t.Error("NULL rowkey must be rejected")
	}
}

func TestTimestampAndVersionQueries(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1, MaxVersions: 3}, 0)
	// Three versions of the same row at ts 10, 20, 30 (paper Code 5).
	for i, ts := range []int64{10, 20, 30} {
		rel, err := NewHBaseRelation(rig.client, rig.cat, Options{WriteTimestamp: ts, MaxVersions: 3, NewTableRegions: 1}, rig.meter)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Insert([]plan.Row{{"k", int32(i), "v", float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(opts Options) []plan.Row {
		opts.MaxVersions = maxInt(opts.MaxVersions, 1)
		rel, err := NewHBaseRelation(rig.client, rig.cat, opts, rig.meter)
		if err != nil {
			t.Fatal(err)
		}
		parts, _, err := rel.BuildScan([]string{"id", "age"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return scanAll(t, parts)
	}
	// Latest version by default.
	got := read(Options{})
	if len(got) != 1 || got[0][1] != int32(2) {
		t.Errorf("latest = %v", got)
	}
	// Exact timestamp (df_time in Code 5).
	got = read(Options{Timestamp: 20})
	if len(got) != 1 || got[0][1] != int32(1) {
		t.Errorf("ts=20 = %v", got)
	}
	// Range [0, 25) returns the newest version within the range (df_range).
	got = read(Options{MinTimestamp: 0, MaxTimestamp: 25})
	if len(got) != 1 || got[0][1] != int32(1) {
		t.Errorf("range [0,25) = %v", got)
	}
	// Outside every version.
	got = read(Options{MinTimestamp: 100, MaxTimestamp: 200})
	if len(got) != 0 {
		t.Errorf("empty range = %v", got)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDeleteWritesTombstones(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1}, 10)
	if err := rig.rel.Delete([][]any{{"user-0003"}}, 2); err != nil {
		t.Fatal(err)
	}
	parts, _, err := rig.rel.BuildScan([]string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 9 {
		t.Errorf("rows after delete = %d", len(got))
	}
	for _, r := range got {
		if r[0] == "user-0003" {
			t.Error("deleted row still visible")
		}
	}
}

func TestBuildScanUnknownColumn(t *testing.T) {
	rig := newRig(t, Options{}, 5)
	if _, _, err := rig.rel.BuildScan([]string{"ghost"}, nil); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestSampleSplitKeys(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 100; i++ {
		keys = append(keys, []byte(fmt.Sprintf("k%03d", i)))
	}
	splits := SampleSplitKeys(keys, 5)
	if len(splits) != 4 {
		t.Fatalf("splits = %d", len(splits))
	}
	for i := 1; i < len(splits); i++ {
		if string(splits[i-1]) >= string(splits[i]) {
			t.Error("splits must be sorted and distinct")
		}
	}
	if SampleSplitKeys(keys, 1) != nil || SampleSplitKeys(nil, 5) != nil {
		t.Error("degenerate cases must return nil")
	}
	// Heavy skew: duplicates collapse.
	var skew [][]byte
	for i := 0; i < 100; i++ {
		skew = append(skew, []byte("same"))
	}
	if got := SampleSplitKeys(skew, 5); len(got) > 1 {
		t.Errorf("skewed splits = %d", len(got))
	}
}

func TestEstimatedRowCount(t *testing.T) {
	rig := newRig(t, Options{}, 80)
	est, ok := rig.rel.EstimatedRowCount()
	if !ok {
		t.Fatal("SHC relation must provide statistics")
	}
	// 80 rows × 3 data columns = 240 cells / 3 = 80.
	if est != 80 {
		t.Errorf("estimate = %d, want 80", est)
	}
	stats, err := rig.client.TableStats("users")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != 240 || stats.Regions != 5 || stats.Bytes <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	if _, err := rig.client.TableStats("missing"); err == nil {
		t.Error("stats for a missing table must fail")
	}
}

// TestPrepareScanBindsLikeBuildScan: a scan prepared with some filters
// marked slotted, then bound to filters that differ in those filters'
// values, plans what BuildScan plans for the bound filters — the same
// partitions, ops, server filters and unhandled positions, the same
// counters metered and the same rows — under every ablation that reaches
// the planning, with slotted and fixed filters mixed on key and cell
// columns.
func TestPrepareScanBindsLikeBuildScan(t *testing.T) {
	prepared := []datasource.Filter{
		datasource.GreaterThan{Column: "age", Value: int32(20)},
		datasource.EqualTo{Column: "city", Value: "sf"},
		datasource.GreaterThanOrEqual{Column: "id", Value: "user-0100"},
		datasource.LessThan{Column: "score", Value: float64(50)},
		datasource.In{Column: "city", Values: []any{"sf", "la"}},
		datasource.NotIn{Column: "city", Values: []any{"nyc"}},
	}
	slotted := []bool{true, false, true, false, true, true}
	binds := [][]datasource.Filter{
		prepared,
		{
			datasource.GreaterThan{Column: "age", Value: int32(40)},
			prepared[1],
			datasource.GreaterThanOrEqual{Column: "id", Value: "user-0300"},
			prepared[3],
			datasource.In{Column: "city", Values: []any{"nyc"}},
			datasource.NotIn{Column: "city", Values: []any{"la", "sf"}},
		},
		{
			datasource.GreaterThan{Column: "age", Value: int32(99)},
			prepared[1],
			datasource.GreaterThanOrEqual{Column: "id", Value: "zzz"},
			prepared[3],
			datasource.In{Column: "city", Values: []any{"sf"}},
			datasource.NotIn{Column: "city", Values: []any{}},
		},
	}
	cols := []string{"id", "age", "city", "score"}
	for _, opts := range []Options{
		{},
		{DisablePartitionPruning: true},
		{DisableFilterPushdown: true},
		{DisableOperatorFusion: true},
		{FirstDimensionPruning: true},
	} {
		rig := newRig(t, opts, 400)
		ps, err := rig.rel.PrepareScan(cols, prepared, slotted)
		if err != nil {
			t.Fatal(err)
		}
		for i, filters := range binds {
			before := rig.meter.Snapshot()
			parts, unhandled, err := ps.BindScan(filters)
			if err != nil {
				t.Fatal(err)
			}
			mid := rig.meter.Snapshot()
			wantParts, wantUnhandled, err := rig.rel.BuildScan(cols, filters)
			if err != nil {
				t.Fatal(err)
			}
			bound, built := metrics.Diff(before, mid), metrics.Diff(mid, rig.meter.Snapshot())
			for _, name := range []string{metrics.RegionsPruned, metrics.FiltersPushed, metrics.FiltersUnhandled} {
				if bound[name] != built[name] {
					t.Errorf("%+v, bind %d: %s %d, BuildScan %d", opts, i, name, bound[name], built[name])
				}
			}
			if fmt.Sprint(unhandled) != fmt.Sprint(wantUnhandled) {
				t.Errorf("%+v, bind %d: unhandled %v, BuildScan %v", opts, i, unhandled, wantUnhandled)
			}
			if len(parts) != len(wantParts) {
				t.Fatalf("%+v, bind %d: %d partitions, BuildScan %d", opts, i, len(parts), len(wantParts))
			}
			for j := range parts {
				p, w := parts[j].(*hbasePartition), wantParts[j].(*hbasePartition)
				if p.index != w.index || p.host != w.host || !reflect.DeepEqual(p.ops, w.ops) {
					t.Errorf("%+v, bind %d, partition %d: %d on %s %+v, BuildScan %d on %s %+v",
						opts, i, j, p.index, p.host, p.ops, w.index, w.host, w.ops)
				}
			}
			rows, want := scanAll(t, parts), scanAll(t, wantParts)
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("%+v, bind %d: %d rows, BuildScan %d", opts, i, len(rows), len(want))
			}
		}
	}
}
