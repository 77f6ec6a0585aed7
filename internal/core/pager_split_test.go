package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/plan"
)

// TestFusedPagerResumesAcrossSplit splits the region a paged fused scan is
// walking between two pages. The old (region ID, cursor) pair is dead — the
// region no longer exists — so the pager must re-lookup by the cursor KEY,
// remap the remaining range onto the daughters, and finish with exactly the
// rows an undisturbed scan would have produced.
func TestFusedPagerResumesAcrossSplit(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1}, 60)

	baseParts, err := rig.rel.BuildScan([]string{"id", "age"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := scanAll(t, baseParts)
	if len(baseline) != 60 {
		t.Fatalf("baseline rows = %d", len(baseline))
	}

	parts, err := rig.rel.BuildScan([]string{"id", "age"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	p := parts[0].(*hbasePartition)
	pager := newFusedPager(p, p.ops, 10)
	ctx := context.Background()

	var rows []plan.Row
	var scratch []any
	first := true
	for {
		resp, err := pager.next(ctx)
		if err != nil {
			t.Fatalf("paged fused scan across split: %v", err)
		}
		if resp == nil {
			break
		}
		rows, scratch, err = p.rel.decodeResults(resp.Results, p.required, rows, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			first = false
			regions, err := rig.client.Regions("users")
			if err != nil {
				t.Fatal(err)
			}
			if err := rig.cluster.Master.SplitRegion("users", regions[0].ID); err != nil {
				t.Fatalf("split under pager: %v", err)
			}
		}
	}
	_ = scratch
	if len(rows) != len(baseline) {
		t.Fatalf("rows across split = %d, want %d", len(rows), len(baseline))
	}
	for i := range rows {
		if rows[i][0] != baseline[i][0] || rows[i][1] != baseline[i][1] {
			t.Fatalf("row %d = %v, want %v (order or content drifted)", i, rows[i], baseline[i])
		}
	}
}

func TestRemapOpScanSplitsAcrossFreshRegions(t *testing.T) {
	regions := hbase.NewRegionMap([]hbase.RegionInfo{
		{ID: "r1", EndKey: []byte("m"), Epoch: 3},
		{ID: "r2", StartKey: []byte("m"), Epoch: 4},
	})
	op := hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("c"), StopRow: []byte("x"), Limit: 7}}
	out, err := remapOp(op, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("remapped ops = %d, want 2", len(out))
	}
	if out[0].RegionID != "r1" || out[0].Epoch != 3 ||
		!bytes.Equal(out[0].Scan.StartRow, []byte("c")) || !bytes.Equal(out[0].Scan.StopRow, []byte("m")) {
		t.Errorf("low op = %+v", out[0])
	}
	if out[1].RegionID != "r2" || out[1].Epoch != 4 ||
		!bytes.Equal(out[1].Scan.StartRow, []byte("m")) || !bytes.Equal(out[1].Scan.StopRow, []byte("x")) {
		t.Errorf("high op = %+v", out[1])
	}
	if out[0].Scan.Limit != 7 || out[1].Scan.Limit != 7 {
		t.Error("per-op limit must survive the remap")
	}
	// A range entirely outside the fresh regions' coverage folds to nothing.
	empty, err := remapOp(hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("x"), StopRow: []byte("x")}}, hbase.NewRegionMap(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("no-region remap = %d ops", len(empty))
	}
}

func TestRemapOpRowsPartitionByContainingRegion(t *testing.T) {
	regions := hbase.NewRegionMap([]hbase.RegionInfo{
		{ID: "r1", EndKey: []byte("m")},
		{ID: "r2", StartKey: []byte("m")},
	})
	tmpl := &hbase.Scan{}
	op := hbase.ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("a"), []byte("c"), []byte("n")}, Scan: tmpl}
	out, err := remapOp(op, regions)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("remapped ops = %d, want 2", len(out))
	}
	if out[0].RegionID != "r1" || len(out[0].Rows) != 2 {
		t.Errorf("low rows op = %+v", out[0])
	}
	if out[1].RegionID != "r2" || len(out[1].Rows) != 1 || !bytes.Equal(out[1].Rows[0], []byte("n")) {
		t.Errorf("high rows op = %+v", out[1])
	}
	if out[0].Scan != tmpl || out[1].Scan != tmpl {
		t.Error("bulk-get template must be carried through")
	}
}

func TestFoldCursorRewritesLeadOp(t *testing.T) {
	// Scan op: the cursor row becomes the op's own start row; Sent shrinks a
	// per-op limit.
	g := &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Scan: &hbase.Scan{StartRow: []byte("a"), StopRow: []byte("z"), Limit: 10}},
	}}
	g.cursor = hbase.FusedCursor{Row: []byte("k"), Sent: 4}
	g.foldCursor()
	if len(g.ops) != 1 || !bytes.Equal(g.ops[0].Scan.StartRow, []byte("k")) || g.ops[0].Scan.Limit != 6 {
		t.Errorf("folded scan op = %+v", g.ops[0])
	}
	if g.cursor.Row != nil || g.cursor.Sent != 0 {
		t.Error("cursor must be cleared after folding")
	}

	// A limit the cursor has already exhausted drops the op entirely.
	g = &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Scan: &hbase.Scan{Limit: 3}},
		{RegionID: "r2", Scan: &hbase.Scan{}},
	}}
	g.cursor = hbase.FusedCursor{Row: []byte("q"), Sent: 3}
	g.foldCursor()
	if len(g.ops) != 1 || g.ops[0].RegionID != "r2" {
		t.Errorf("exhausted lead op must drop: %+v", g.ops)
	}

	// Bulk get: rows already streamed are cut off the front.
	g = &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Rows: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
	}}
	g.cursor = hbase.FusedCursor{RowIdx: 2}
	g.foldCursor()
	if len(g.ops) != 1 || len(g.ops[0].Rows) != 1 || !bytes.Equal(g.ops[0].Rows[0], []byte("c")) {
		t.Errorf("folded rows op = %+v", g.ops[0])
	}

	// The zero cursor folds to a no-op.
	g = &fusedPager{ops: []hbase.ScanOp{{RegionID: "r1", Scan: &hbase.Scan{StartRow: []byte("a")}}}}
	g.foldCursor()
	if !bytes.Equal(g.ops[0].Scan.StartRow, []byte("a")) {
		t.Error("zero cursor must not rewrite the op")
	}
}

// listWalkRemap is the remap the pager used before region maps: a linear
// walk of the fresh region list. It is kept as the oracle remapOp must match
// byte for byte.
func listWalkRemap(op hbase.ScanOp, regions []hbase.RegionInfo) []hbase.ScanOp {
	var out []hbase.ScanOp
	if len(op.Rows) > 0 {
		i := 0
		for ri := range regions {
			in := &regions[ri]
			var rows [][]byte
			for i < len(op.Rows) && in.ContainsRow(op.Rows[i]) {
				rows = append(rows, op.Rows[i])
				i++
			}
			if len(rows) > 0 {
				out = append(out, hbase.ScanOp{RegionID: in.ID, Epoch: in.Epoch, Rows: rows, Scan: op.Scan})
			}
		}
		return out
	}
	for ri := range regions {
		in := &regions[ri]
		lo, hi, ok := hbase.SplitRowRange(in, op.Scan.StartRow, op.Scan.StopRow)
		if !ok {
			continue
		}
		sc := *op.Scan
		sc.StartRow, sc.StopRow = lo, hi
		out = append(out, hbase.ScanOp{RegionID: in.ID, Epoch: in.Epoch, Scan: &sc})
	}
	return out
}

func TestRemapOpMatchesListWalk(t *testing.T) {
	split := []hbase.RegionInfo{
		{ID: "r1", EndKey: []byte("m"), Epoch: 3},
		{ID: "r2", StartKey: []byte("m"), Epoch: 4},
	}
	tmpl := &hbase.Scan{}
	for _, tc := range []struct {
		name    string
		op      hbase.ScanOp
		regions []hbase.RegionInfo
	}{
		{"scan across two daughters",
			hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("c"), StopRow: []byte("x"), Limit: 7}}, split},
		{"scan inside one daughter",
			hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("n"), StopRow: []byte("p")}}, split},
		{"scan with no fresh regions",
			hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("x"), StopRow: []byte("x")}}, nil},
		{"rows across two daughters",
			hbase.ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("a"), []byte("c"), []byte("n")}, Scan: tmpl}, split},
		{"rows in the high daughter only",
			hbase.ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("m"), []byte("z")}, Scan: tmpl}, split},
	} {
		got, err := remapOp(tc.op, hbase.NewRegionMap(tc.regions))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := listWalkRemap(tc.op, tc.regions); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: remapOp = %+v, list walk = %+v", tc.name, got, want)
		}
	}
}

// TestFusedPagerPointOpsSurviveSplit splits the region under a composite-key
// bulk get between two pages. The get's remaining keys must be regrouped
// onto the daughters (remapOp's Rows branch) and stream the same rows in
// the same order as an undisturbed run.
func TestFusedPagerPointOpsSurviveSplit(t *testing.T) {
	rig := compositeRig(t, Options{NewTableRegions: 1})
	filters := []datasource.Filter{
		datasource.In{Column: "region", Values: []any{"ap", "eu", "us"}},
		datasource.EqualTo{Column: "host", Value: "host-1"},
		datasource.In{Column: "ts", Values: []any{int64(1), int64(5), int64(9), int64(20)}},
	}
	cols := []string{"region", "host", "ts", "msg"}
	baseParts, err := rig.rel.BuildScan(cols, filters)
	if err != nil {
		t.Fatal(err)
	}
	baseline := scanAll(t, baseParts)
	if len(baseline) != 12 {
		t.Fatalf("baseline rows = %d, want 12", len(baseline))
	}

	parts, err := rig.rel.BuildScan(cols, filters)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	p := parts[0].(*hbasePartition)
	if len(p.ops) != 1 || len(p.ops[0].Rows) != 12 {
		t.Fatalf("ops = %+v, want one 12-key get", p.ops)
	}
	pager := newFusedPager(p, p.ops, 2)
	ctx := context.Background()

	var rows []plan.Row
	var scratch []any
	first := true
	for {
		resp, err := pager.next(ctx)
		if err != nil {
			t.Fatalf("paged bulk get across split: %v", err)
		}
		if resp == nil {
			break
		}
		rows, scratch, err = p.rel.decodeResults(resp.Results, p.required, rows, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			first = false
			if err := rig.cluster.Master.SplitRegion("logs", p.ops[0].RegionID); err != nil {
				t.Fatalf("split under pager: %v", err)
			}
		}
	}
	if regions, err := rig.client.Regions("logs"); err != nil || len(regions) != 2 {
		t.Fatalf("regions after split = %d (%v), want 2", len(regions), err)
	}
	if !reflect.DeepEqual(rows, baseline) {
		t.Fatalf("rows across split = %v, want %v (order or content drifted)", rows, baseline)
	}
}
