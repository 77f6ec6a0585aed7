package hbase

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// pagerFixture boots a cluster with a one-region table "t" of n rows
// row-000.. and returns the region it lives in.
func pagerFixture(t *testing.T, n int) (*Cluster, *Client, RegionInfo) {
	t.Helper()
	c := bootCluster(t, 3)
	client := c.NewClient()
	t.Cleanup(client.Close)
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < n; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, fmt.Sprintf("v%d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	return c, client, regions[0]
}

// drainSplitting pages through a pager, splitting region id after the first
// page, and returns every row it streamed.
func drainSplitting(t *testing.T, c *Cluster, pager *Pager, id string) []Result {
	t.Helper()
	var rows []Result
	first := true
	for {
		resp, err := pager.Next(context.Background())
		if err != nil {
			t.Fatalf("paged read across split: %v", err)
		}
		if resp == nil {
			return rows
		}
		rows = append(rows, resp.Results...)
		if first {
			first = false
			if err := c.Master.SplitRegion("t", id); err != nil {
				t.Fatalf("split under pager: %v", err)
			}
		}
	}
}

// TestFusedPagerResumesAcrossSplit splits the region a paged fused scan is
// walking between two pages. The old (region ID, cursor) pair is dead — the
// region no longer exists — so the pager must re-lookup by the cursor KEY,
// remap the remaining range onto the daughters, and finish with exactly the
// rows an undisturbed scan would have produced.
func TestFusedPagerResumesAcrossSplit(t *testing.T) {
	c, client, ri := pagerFixture(t, 60)
	ops := []ScanOp{{RegionID: ri.ID, Epoch: ri.Epoch, Scan: &Scan{}}}

	baseline, err := client.NewPager("t", ri.Host, FusedRequest{Ops: ops}, 0).all(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 60 {
		t.Fatalf("baseline rows = %d", len(baseline))
	}

	rows := drainSplitting(t, c, client.NewPager("t", ri.Host, FusedRequest{Ops: ops, BatchLimit: 10}, 0), ri.ID)
	if len(rows) != len(baseline) {
		t.Fatalf("rows across split = %d, want %d", len(rows), len(baseline))
	}
	for i := range rows {
		if !reflect.DeepEqual(rows[i], baseline[i]) {
			t.Fatalf("row %d = %v, want %v (order or content drifted)", i, rows[i], baseline[i])
		}
	}
}

func TestRemapOpScanSplitsAcrossFreshRegions(t *testing.T) {
	regions := NewRegionMap([]RegionInfo{
		{ID: "r1", EndKey: []byte("m"), Epoch: 3},
		{ID: "r2", StartKey: []byte("m"), Epoch: 4},
	})
	op := ScanOp{RegionID: "gone", Scan: &Scan{StartRow: []byte("c"), StopRow: []byte("x"), Limit: 7}}
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
	empty, err := remapOp(ScanOp{RegionID: "gone", Scan: &Scan{StartRow: []byte("x"), StopRow: []byte("x")}}, NewRegionMap(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("no-region remap = %d ops", len(empty))
	}
}

func TestRemapOpRowsPartitionByContainingRegion(t *testing.T) {
	regions := NewRegionMap([]RegionInfo{
		{ID: "r1", EndKey: []byte("m")},
		{ID: "r2", StartKey: []byte("m")},
	})
	tmpl := &Scan{}
	op := ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("a"), []byte("c"), []byte("n")}, Scan: tmpl}
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
	g := &Pager{req: FusedRequest{Ops: []ScanOp{
		{RegionID: "r1", Scan: &Scan{StartRow: []byte("a"), StopRow: []byte("z"), Limit: 10}},
	}}}
	g.req.Cursor = FusedCursor{Row: []byte("k"), Sent: 4}
	g.foldCursor()
	if len(g.req.Ops) != 1 || !bytes.Equal(g.req.Ops[0].Scan.StartRow, []byte("k")) || g.req.Ops[0].Scan.Limit != 6 {
		t.Errorf("folded scan op = %+v", g.req.Ops[0])
	}
	if g.req.Cursor.Row != nil || g.req.Cursor.Sent != 0 {
		t.Error("cursor must be cleared after folding")
	}

	// A limit the cursor has already exhausted drops the op entirely.
	g = &Pager{req: FusedRequest{Ops: []ScanOp{
		{RegionID: "r1", Scan: &Scan{Limit: 3}},
		{RegionID: "r2", Scan: &Scan{}},
	}}}
	g.req.Cursor = FusedCursor{Row: []byte("q"), Sent: 3}
	g.foldCursor()
	if len(g.req.Ops) != 1 || g.req.Ops[0].RegionID != "r2" {
		t.Errorf("exhausted lead op must drop: %+v", g.req.Ops)
	}

	// Bulk get: rows already streamed are cut off the front.
	g = &Pager{req: FusedRequest{Ops: []ScanOp{
		{RegionID: "r1", Rows: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
	}}}
	g.req.Cursor = FusedCursor{RowIdx: 2}
	g.foldCursor()
	if len(g.req.Ops) != 1 || len(g.req.Ops[0].Rows) != 1 || !bytes.Equal(g.req.Ops[0].Rows[0], []byte("c")) {
		t.Errorf("folded rows op = %+v", g.req.Ops[0])
	}

	// The zero cursor folds to a no-op.
	g = &Pager{req: FusedRequest{Ops: []ScanOp{{RegionID: "r1", Scan: &Scan{StartRow: []byte("a")}}}}}
	g.foldCursor()
	if !bytes.Equal(g.req.Ops[0].Scan.StartRow, []byte("a")) {
		t.Error("zero cursor must not rewrite the op")
	}
}

// TestFoldCursorLeavesCallerOpsIntact: the op list a pager starts from is
// the caller's (a partition re-runs it on a task retry), so folding a
// cursor must rewrite a copy, never the caller's ops.
func TestFoldCursorLeavesCallerOpsIntact(t *testing.T) {
	ops := []ScanOp{{RegionID: "r1", Scan: &Scan{StartRow: []byte("a")}}, {RegionID: "r2", Scan: &Scan{}}}
	g := &Pager{req: FusedRequest{Ops: ops, Cursor: FusedCursor{Row: []byte("k")}}}
	g.foldCursor()
	if !bytes.Equal(g.req.Ops[0].Scan.StartRow, []byte("k")) {
		t.Fatalf("folded op = %+v", g.req.Ops[0])
	}
	if !bytes.Equal(ops[0].Scan.StartRow, []byte("a")) {
		t.Errorf("caller's op rewritten to start at %q", ops[0].Scan.StartRow)
	}
}

// listWalkRemap is the remap the pager used before region maps: a linear
// walk of the fresh region list. It is kept as the oracle remapOp must match
// byte for byte.
func listWalkRemap(op ScanOp, regions []RegionInfo) []ScanOp {
	var out []ScanOp
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
				out = append(out, ScanOp{RegionID: in.ID, Epoch: in.Epoch, Rows: rows, Scan: op.Scan})
			}
		}
		return out
	}
	for ri := range regions {
		in := &regions[ri]
		lo, hi, ok := SplitRowRange(in, op.Scan.StartRow, op.Scan.StopRow)
		if !ok {
			continue
		}
		sc := *op.Scan
		sc.StartRow, sc.StopRow = lo, hi
		out = append(out, ScanOp{RegionID: in.ID, Epoch: in.Epoch, Scan: &sc})
	}
	return out
}

func TestRemapOpMatchesListWalk(t *testing.T) {
	split := []RegionInfo{
		{ID: "r1", EndKey: []byte("m"), Epoch: 3},
		{ID: "r2", StartKey: []byte("m"), Epoch: 4},
	}
	tmpl := &Scan{}
	for _, tc := range []struct {
		name    string
		op      ScanOp
		regions []RegionInfo
	}{
		{"scan across two daughters",
			ScanOp{RegionID: "gone", Scan: &Scan{StartRow: []byte("c"), StopRow: []byte("x"), Limit: 7}}, split},
		{"scan inside one daughter",
			ScanOp{RegionID: "gone", Scan: &Scan{StartRow: []byte("n"), StopRow: []byte("p")}}, split},
		{"scan with no fresh regions",
			ScanOp{RegionID: "gone", Scan: &Scan{StartRow: []byte("x"), StopRow: []byte("x")}}, nil},
		{"rows across two daughters",
			ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("a"), []byte("c"), []byte("n")}, Scan: tmpl}, split},
		{"rows in the high daughter only",
			ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("m"), []byte("z")}, Scan: tmpl}, split},
	} {
		got, err := remapOp(tc.op, NewRegionMap(tc.regions))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := listWalkRemap(tc.op, tc.regions); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: remapOp = %+v, list walk = %+v", tc.name, got, want)
		}
	}
}

// TestFusedPagerPointOpsSurviveSplit splits the region under a bulk get
// between two pages. The get's remaining keys must be regrouped onto the
// daughters (remapOp's Rows branch) and stream the same rows in the same
// order as an undisturbed run.
func TestFusedPagerPointOpsSurviveSplit(t *testing.T) {
	c, client, ri := pagerFixture(t, 40)
	var keys [][]byte
	for i := 0; i < 36; i += 3 {
		keys = append(keys, []byte(fmt.Sprintf("row-%03d", i)))
	}
	ops := []ScanOp{{RegionID: ri.ID, Epoch: ri.Epoch, Rows: keys, Scan: &Scan{}}}
	baseline, err := client.NewPager("t", ri.Host, FusedRequest{Ops: ops}, 0).all(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 12 {
		t.Fatalf("baseline rows = %d, want 12", len(baseline))
	}

	rows := drainSplitting(t, c, client.NewPager("t", ri.Host, FusedRequest{Ops: ops, BatchLimit: 2}, 0), ri.ID)
	if regions, err := client.Regions("t"); err != nil || len(regions) != 2 {
		t.Fatalf("regions after split = %d (%v), want 2", len(regions), err)
	}
	if !reflect.DeepEqual(rows, baseline) {
		t.Fatalf("rows across split = %v, want %v (order or content drifted)", rows, baseline)
	}
}

// TestFusedPageRejectsBadCursor: a cursor pointing outside its op is a bad
// request, answered with an error — never an index panic in the server.
func TestFusedPageRejectsBadCursor(t *testing.T) {
	_, client := scannerFixture(t, 90)
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	ri := regions[0]
	rows := [][]byte{[]byte("row-000"), []byte("row-001")}
	ops := []ScanOp{{RegionID: ri.ID, Rows: rows}, {RegionID: ri.ID, Scan: &Scan{}}}
	for _, cur := range []FusedCursor{
		{Op: -1},
		{Op: 3},
		{Op: 0, RowIdx: -1},
		{Op: 0, RowIdx: 3},
		{Op: 1, RowIdx: 1},
		{Op: 1, Sent: -1},
	} {
		_, err := client.FusedExecPage(context.Background(), ri.Host, &FusedRequest{Ops: ops, BatchLimit: 5, Cursor: cur})
		if err == nil {
			t.Errorf("cursor %+v accepted, want an error", cur)
		}
	}
	// The cursor at the end of a row list is valid: that op is done.
	resp, err := client.FusedExecPage(context.Background(), ri.Host, &FusedRequest{Ops: ops[:1], BatchLimit: 5, Cursor: FusedCursor{RowIdx: 2}})
	if err != nil || len(resp.Results) != 0 || resp.More {
		t.Errorf("cursor at end of rows = %+v, %v; want an empty final page", resp, err)
	}
}

// TestFusedPageClipsCursorAtOpEnd: a page that fills exactly at the end of
// an op's range finishes that op instead of handing back a cursor whose
// next page would come back empty.
func TestFusedPageClipsCursorAtOpEnd(t *testing.T) {
	_, client := scannerFixture(t, 90)
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	ri := regions[0]
	// [row-000, row-009\x00) holds exactly row-000..row-009.
	whole := ScanOp{RegionID: ri.ID, Scan: &Scan{StartRow: []byte("row-000"), StopRow: append([]byte("row-009"), 0)}}
	resp, err := client.FusedExecPage(context.Background(), ri.Host, &FusedRequest{Ops: []ScanOp{whole}, BatchLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 10 || resp.More {
		t.Fatalf("page = %d rows, More=%v; want 10 rows and no more", len(resp.Results), resp.More)
	}
	// With an op after it, the page hands back a cursor at that op's start.
	next := ScanOp{RegionID: ri.ID, Scan: &Scan{StartRow: []byte("row-010"), StopRow: []byte("row-015")}}
	resp, err = client.FusedExecPage(context.Background(), ri.Host, &FusedRequest{Ops: []ScanOp{whole, next}, BatchLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.More || resp.Next.Op != 1 || resp.Next.Row != nil || resp.Next.Sent != 0 {
		t.Fatalf("page More=%v Next=%+v; want a cursor at the start of op 1", resp.More, resp.Next)
	}
	resp, err = client.FusedExecPage(context.Background(), ri.Host, &FusedRequest{Ops: []ScanOp{whole, next}, BatchLimit: 10, Cursor: resp.Next})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 || resp.More || string(resp.Results[0].Row) != "row-010" {
		t.Fatalf("second page = %d rows, More=%v", len(resp.Results), resp.More)
	}
}

// TestScanRegionSurvivesSplit: a per-region read addressed by a RegionInfo
// taken before the region split still returns exactly that region's rows.
func TestScanRegionSurvivesSplit(t *testing.T) {
	c, client := scannerFixture(t, 90)
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	old := regions[0]
	if err := c.Master.SplitRegion("t", old.ID); err != nil {
		t.Fatal(err)
	}
	got, err := client.ScanRegion(old, &Scan{})
	if err != nil {
		t.Fatalf("scan of a region that split: %v", err)
	}
	if len(got) != 30 {
		t.Fatalf("rows = %d, want 30", len(got))
	}
	for i := range got {
		if want := fmt.Sprintf("row-%03d", i); string(got[i].Row) != want {
			t.Fatalf("row %d = %q, want %q", i, got[i].Row, want)
		}
	}
}
