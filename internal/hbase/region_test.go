package hbase

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

func testDesc() *TableDescriptor {
	return &TableDescriptor{Name: "t", Families: []string{"cf", "cg"}, MaxVersions: 3}
}

func newTestRegion(t *testing.T, cfg StoreConfig) *Region {
	t.Helper()
	info := RegionInfo{Table: "t", ID: "t-0001"}
	return NewRegion(info, testDesc(), cfg, metrics.NewRegistry())
}

// putCells writes cells to r as one unstamped batch, the way an unstamped
// MultiPut piece lands.
func putCells(r *Region, cells ...Cell) error {
	_, err := r.PutBatchStamped("", 0, 0, cells)
	return err
}

func TestRegionPutGet(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if err := putCells(r, cell("row1", "cf", "q", 1, "hello")); err != nil {
		t.Fatal(err)
	}
	res := r.Get([]byte("row1"), nil, 1, TimeRange{})
	v, ok := res.Value("cf", "q")
	if !ok || string(v) != "hello" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	empty := r.Get([]byte("missing"), nil, 1, TimeRange{})
	if !empty.Empty() {
		t.Error("missing row must be empty")
	}
}

func TestRegionRejectsBadCells(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if err := putCells(r, cell("row", "unknown", "q", 1, "x")); err == nil {
		t.Error("unknown family must be rejected")
	}
	bad := cell("row", "cf", "q", 1, "x")
	bad.Type = 0
	if err := putCells(r, bad); err == nil {
		t.Error("invalid type must be rejected")
	}
	bounded := NewRegion(RegionInfo{Table: "t", ID: "x", StartKey: []byte("m")}, testDesc(), StoreConfig{}, nil)
	if err := putCells(bounded, cell("a", "cf", "q", 1, "x")); err == nil {
		t.Error("out-of-range row must be rejected")
	}
}

func TestRegionVersionsAndDelete(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	for ts := int64(1); ts <= 5; ts++ {
		if err := putCells(r, cell("row", "cf", "q", ts, fmt.Sprintf("v%d", ts))); err != nil {
			t.Fatal(err)
		}
	}
	// MaxVersions=3 on the table caps what reads may see.
	res := r.Get([]byte("row"), nil, 10, TimeRange{})
	if len(res.Cells) != 3 {
		t.Fatalf("versions visible = %d, want 3 (table cap)", len(res.Cells))
	}
	if string(res.Cells[0].Value) != "v5" {
		t.Errorf("newest first, got %s", res.Cells[0].String())
	}
	// Delete masks everything at or below its timestamp.
	if err := putCells(r, tomb("row", "cf", "q", 5)); err != nil {
		t.Fatal(err)
	}
	res = r.Get([]byte("row"), nil, 10, TimeRange{})
	if !res.Empty() {
		t.Errorf("after tombstone ts=5: %v", res.Cells)
	}
}

func TestRegionTimeRangeQueries(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	for ts := int64(10); ts <= 30; ts += 10 {
		if err := putCells(r, cell("row", "cf", "q", ts, fmt.Sprintf("v%d", ts))); err != nil {
			t.Fatal(err)
		}
	}
	res := r.Get([]byte("row"), nil, 10, TimeRange{Min: 10, Max: 21})
	if len(res.Cells) != 2 || string(res.Cells[0].Value) != "v20" {
		t.Errorf("time range read = %v", res.Cells)
	}
}

func TestRegionScanProjectionAndFilter(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	for i := 0; i < 10; i++ {
		row := fmt.Sprintf("row-%02d", i)
		mustPut(t, r, cell(row, "cf", "a", 1, fmt.Sprintf("a%d", i)))
		mustPut(t, r, cell(row, "cf", "b", 1, fmt.Sprintf("b%d", i)))
		mustPut(t, r, cell(row, "cg", "c", 1, fmt.Sprintf("c%d", i)))
	}
	// Column pruning: only cf:a comes back.
	results := r.RunScan(&Scan{Columns: []Column{{Family: "cf", Qualifier: "a"}}})
	if len(results) != 10 {
		t.Fatalf("rows = %d", len(results))
	}
	for _, res := range results {
		if len(res.Cells) != 1 || res.Cells[0].Qualifier != "a" {
			t.Fatalf("projection leaked cells: %v", res.Cells)
		}
	}
	// Whole-family projection.
	results = r.RunScan(&Scan{Columns: []Column{{Family: "cf"}}})
	if len(results[0].Cells) != 2 {
		t.Errorf("family projection cells = %d", len(results[0].Cells))
	}
	// Range scan.
	results = r.RunScan(&Scan{StartRow: []byte("row-03"), StopRow: []byte("row-06")})
	if len(results) != 3 || string(results[0].Row) != "row-03" {
		t.Errorf("range scan = %d rows", len(results))
	}
	// Server-side filter on a column not in the projection still sees the
	// full row.
	results = r.RunScan(&Scan{
		Columns: []Column{{Family: "cf", Qualifier: "a"}},
		Filter:  &SingleColumnValueFilter{Family: "cg", Qualifier: "c", Op: CmpEqual, Value: []byte("c7")},
	})
	if len(results) != 1 || string(results[0].Row) != "row-07" {
		t.Errorf("filtered scan = %v", results)
	}
	// Limit.
	results = r.RunScan(&Scan{Limit: 4})
	if len(results) != 4 {
		t.Errorf("limited scan = %d rows", len(results))
	}
}

func TestRegionScanMetersRows(t *testing.T) {
	m := metrics.NewRegistry()
	r := NewRegion(RegionInfo{Table: "t", ID: "t-1"}, testDesc(), StoreConfig{}, m)
	for i := 0; i < 8; i++ {
		mustPut(t, r, cell(fmt.Sprintf("row-%d", i), "cf", "q", 1, "x"))
	}
	r.RunScan(&Scan{Filter: &SingleColumnValueFilter{Family: "cf", Qualifier: "q", Op: CmpEqual, Value: []byte("nomatch")}})
	if m.Get(metrics.RowsScanned) != 8 {
		t.Errorf("rows scanned = %d", m.Get(metrics.RowsScanned))
	}
	if m.Get(metrics.RowsReturned) != 0 {
		t.Errorf("rows returned = %d", m.Get(metrics.RowsReturned))
	}
}

func TestRegionFlushAndCompact(t *testing.T) {
	m := metrics.NewRegistry()
	r := NewRegion(RegionInfo{Table: "t", ID: "t-1"}, testDesc(),
		StoreConfig{FlushThresholdBytes: 1, CompactThresholdFiles: 100}, m)
	for i := 0; i < 5; i++ {
		mustPut(t, r, cell(fmt.Sprintf("row-%d", i), "cf", "q", 1, "x"))
	}
	if r.StoreFileCount() != 5 {
		t.Fatalf("store files = %d (flush per put expected)", r.StoreFileCount())
	}
	r.Compact()
	if r.StoreFileCount() != 1 {
		t.Errorf("store files after compaction = %d", r.StoreFileCount())
	}
	if m.Get(metrics.Compactions) == 0 || m.Get(metrics.MemstoreFlushes) == 0 {
		t.Error("compactions and flushes must be metered")
	}
	// Data still readable after compaction.
	if res := r.RunScan(&Scan{}); len(res) != 5 {
		t.Errorf("rows after compaction = %d", len(res))
	}
}

func TestRegionAutoCompactionAtThreshold(t *testing.T) {
	r := newTestRegion(t, StoreConfig{FlushThresholdBytes: 1, CompactThresholdFiles: 3})
	for i := 0; i < 10; i++ {
		mustPut(t, r, cell(fmt.Sprintf("row-%d", i), "cf", "q", 1, "x"))
	}
	if n := r.StoreFileCount(); n >= 3 {
		t.Errorf("auto compaction should keep file count below threshold, got %d", n)
	}
}

func TestRegionScanSeesMemstoreAndFiles(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	mustPut(t, r, cell("row-a", "cf", "q", 1, "flushed"))
	r.Flush()
	mustPut(t, r, cell("row-b", "cf", "q", 1, "buffered"))
	res := r.RunScan(&Scan{})
	if len(res) != 2 {
		t.Fatalf("scan must merge memstore and files, got %d rows", len(res))
	}
}

func TestRegionWALRecovery(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	mustPut(t, r, cell("row-1", "cf", "q", 1, "durable"))
	r.Flush()
	mustPut(t, r, cell("row-2", "cf", "q", 1, "buffered"))
	mustPut(t, r, tomb("row-1", "cf", "q", 2))

	// Crash: lose the memstore, then replay the WAL.
	r.DropMemStore()
	if res := r.RunScan(&Scan{}); len(res) != 1 {
		t.Fatalf("after crash, only flushed data should remain; got %d rows", len(res))
	}
	if err := r.RecoverFromWAL(); err != nil {
		t.Fatal(err)
	}
	res := r.RunScan(&Scan{})
	if len(res) != 1 || string(res[0].Row) != "row-2" {
		t.Errorf("after recovery rows = %v (tombstone for row-1 must also replay)", resultRows(res))
	}
}

func TestRegionSplit(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	for i := 0; i < 10; i++ {
		mustPut(t, r, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "x"))
	}
	point := r.SplitPoint()
	if point == nil {
		t.Fatal("split point expected")
	}
	low, high, err := r.SplitInto("low", "high", point, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(low.Info().EndKey, point) || !bytes.Equal(high.Info().StartKey, point) {
		t.Error("daughters must meet at the split point")
	}
	nLow := len(low.RunScan(&Scan{}))
	nHigh := len(high.RunScan(&Scan{}))
	if nLow+nHigh != 10 || nLow == 0 || nHigh == 0 {
		t.Errorf("split distribution = %d + %d", nLow, nHigh)
	}
}

func TestRegionSplitErrors(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if _, _, err := r.SplitInto("a", "b", nil, 0); err == nil {
		t.Error("nil split key must fail")
	}
	if p := r.SplitPoint(); p != nil {
		t.Error("empty region has no split point")
	}
	mustPut(t, r, cell("only", "cf", "q", 1, "x"))
	if p := r.SplitPoint(); p != nil {
		t.Error("single-row region has no split point")
	}
}

func TestRegionNeedsSplit(t *testing.T) {
	r := newTestRegion(t, StoreConfig{SplitThresholdBytes: 10})
	if r.NeedsSplit() {
		t.Error("empty region must not need split")
	}
	mustPut(t, r, cell("row", "cf", "q", 1, "a long enough value"))
	if !r.NeedsSplit() {
		t.Error("overgrown region must need split")
	}
	unlimited := newTestRegion(t, StoreConfig{})
	mustPut(t, unlimited, cell("row", "cf", "q", 1, "a long enough value"))
	if unlimited.NeedsSplit() {
		t.Error("threshold 0 disables splits")
	}
}

func mustPut(t *testing.T, r *Region, c Cell) {
	t.Helper()
	if err := putCells(r, c); err != nil {
		t.Fatal(err)
	}
}

func resultRows(results []Result) []string {
	out := make([]string, len(results))
	for i := range results {
		out[i] = string(results[i].Row)
	}
	return out
}
