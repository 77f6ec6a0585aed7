package hbase

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// TestScannerLimitPageSizing pins the limit-aware last page: a Scan.Limit
// spanning a region boundary must return exactly Limit rows without the
// final page over-fetching up to the batch size.
func TestScannerLimitPageSizing(t *testing.T) {
	c, client := scannerFixture(t, 90)
	before := c.Meter.Get(metrics.RowsReturned)
	sc, err := client.OpenScanner("t", &Scan{Limit: 35}, 20)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 35 {
		t.Fatalf("rows = %d, want 35", len(all))
	}
	if string(all[34].Row) != "row-034" {
		t.Errorf("last row = %q", all[34].Row)
	}
	// The server returned exactly the limit across pages: the last page was
	// sized to the 5 remaining rows, not the 20-row batch.
	if got := c.Meter.Get(metrics.RowsReturned) - before; got != 35 {
		t.Errorf("rows returned over the wire = %d, want exactly 35", got)
	}
}

// TestScannerSkipsEmptyRegion pins that a region holding no rows in the scan
// range just advances the scan instead of ending or corrupting it.
func TestScannerSkipsEmptyRegion(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	t.Cleanup(client.Close)
	splits := [][]byte{[]byte("row-030"), []byte("row-060")}
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, splits); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 90; i++ {
		if i >= 30 && i < 60 {
			continue // middle region stays empty
		}
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, fmt.Sprintf("v%d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	sc, err := client.OpenScanner("t", &Scan{}, 25)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 60 {
		t.Fatalf("rows = %d, want 60", len(all))
	}
	if string(all[29].Row) != "row-029" || string(all[30].Row) != "row-060" {
		t.Errorf("rows around the empty region = %q, %q", all[29].Row, all[30].Row)
	}
}

// TestScannerCursorClipAtRegionEnd pins the EndKey clip: when a full page
// ends exactly at the region's last possible row, the scanner advances to
// the next region instead of issuing a vacuous RPC into the drained one.
func TestScannerCursorClipAtRegionEnd(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	t.Cleanup(client.Close)
	// Region 0 ends at row-009's immediate successor, so a 10-row page
	// [row-000, row-009] leaves the cursor exactly at EndKey.
	splits := [][]byte{append([]byte("row-009"), 0)}
	if err := client.CreateTable(TableDescriptor{Name: "clip", Families: []string{"cf"}}, splits); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, "v"))
	}
	if err := client.Put("clip", cells); err != nil {
		t.Fatal(err)
	}
	sc, err := client.OpenScanner("clip", &Scan{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Meter.Get(metrics.RPCCalls)
	all, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("rows = %d, want 20", len(all))
	}
	// Page 1 fills from region 0 and clips straight to region 1; page 2
	// fills from region 1; page 3 discovers region 1 is drained. Without
	// the clip there would be a fourth RPC re-entering region 0.
	if got := c.Meter.Get(metrics.RPCCalls) - before; got != 3 {
		t.Errorf("scan RPCs = %d, want 3 (cursor must clip at region EndKey)", got)
	}
}

// TestPagerPrefetchMatchesNext pins double buffering: a prefetching pager
// returns the same rows in the same order as one paged with Next, and
// actually issues pages ahead of consumption.
func TestPagerPrefetchMatchesNext(t *testing.T) {
	c, client := scannerFixture(t, 90)
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	var ops []ScanOp
	for _, ri := range regions {
		ops = append(ops, ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Scan: &Scan{}})
	}
	req := FusedRequest{Ops: ops, BatchLimit: 25}
	want, err := client.NewPager("t", "", req, 0).all(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	next := client.NewPager("t", "", req, 0).Prefetch(context.Background(), c.Meter)
	var got []Result
	for {
		resp, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if resp == nil {
			break
		}
		got = append(got, resp.Results...)
	}
	if len(got) != len(want) || len(want) != 90 {
		t.Fatalf("rows = %d, want %d (of 90)", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Row, want[i].Row) {
			t.Fatalf("row %d = %q, want %q", i, got[i].Row, want[i].Row)
		}
	}
	if c.Meter.Get(metrics.PagesPrefetched) == 0 {
		t.Error("prefetching pager must launch pages ahead of consumption")
	}
}

// fusedOpsForHost builds one whole-region scan op per region the host
// serves, the shape the SHC relation fuses into a single RPC.
func fusedOpsForHost(t *testing.T, client *Client, table, host string) []ScanOp {
	t.Helper()
	regions, err := client.Regions(table)
	if err != nil {
		t.Fatal(err)
	}
	var ops []ScanOp
	for _, ri := range regions {
		if ri.Host == host {
			ops = append(ops, ScanOp{RegionID: ri.ID, Scan: &Scan{}})
		}
	}
	if len(ops) == 0 {
		t.Fatalf("host %s serves no regions", host)
	}
	return ops
}

func firstHost(t *testing.T, client *Client, table string) string {
	t.Helper()
	regions, err := client.Regions(table)
	if err != nil {
		t.Fatal(err)
	}
	return regions[0].Host
}

// TestFusedExecPageMatchesUnpaged drains the paged fused endpoint and
// checks it returns exactly what the single-shot call does.
func TestFusedExecPageMatchesUnpaged(t *testing.T) {
	_, client := scannerFixture(t, 90)
	host := firstHost(t, client, "t")
	ops := fusedOpsForHost(t, client, "t", host)
	whole, err := client.FusedExecPage(context.Background(), host, &FusedRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Results
	var got []Result
	cursor := FusedCursor{}
	pages := 0
	for {
		resp, err := client.FusedExecPage(context.Background(), host, &FusedRequest{Ops: ops, BatchLimit: 7, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) > 7 {
			t.Fatalf("page holds %d rows, batch limit is 7", len(resp.Results))
		}
		got = append(got, resp.Results...)
		pages++
		if !resp.More {
			break
		}
		cursor = resp.Next
	}
	if len(got) != len(want) {
		t.Fatalf("paged rows = %d, unpaged = %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Row, want[i].Row) {
			t.Fatalf("row %d = %q, want %q", i, got[i].Row, want[i].Row)
		}
	}
	if pages < 2 {
		t.Errorf("pages = %d, want several", pages)
	}
}

// TestFusedPageHonorsPerOpLimit pins the cursor's Sent accounting: an op's
// Scan.Limit keeps its meaning even when pages cut the op mid-scan.
func TestFusedPageHonorsPerOpLimit(t *testing.T) {
	_, client := scannerFixture(t, 90)
	host := firstHost(t, client, "t")
	ops := fusedOpsForHost(t, client, "t", host)
	for i := range ops {
		s := *ops[i].Scan
		s.Limit = 12
		ops[i].Scan = &s
	}
	var got []Result
	cursor := FusedCursor{}
	for {
		resp, err := client.FusedExecPage(context.Background(), host, &FusedRequest{Ops: ops, BatchLimit: 5, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Results...)
		if !resp.More {
			break
		}
		cursor = resp.Next
	}
	want := 12 * len(ops)
	if len(got) != want {
		t.Fatalf("rows = %d, want %d (12 per op)", len(got), want)
	}
}

// TestFusedPageResumesBulkGets pins mid-list resumption of bulk-get ops.
func TestFusedPageResumesBulkGets(t *testing.T) {
	_, client := scannerFixture(t, 90)
	host := firstHost(t, client, "t")
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	var region RegionInfo
	for _, ri := range regions {
		if ri.Host == host && ri.StartKey == nil {
			region = ri
		}
	}
	if region.ID == "" {
		t.Skipf("host %s does not serve the first region", host)
	}
	var rows [][]byte
	for i := 0; i < 10; i++ {
		rows = append(rows, []byte(fmt.Sprintf("row-%03d", i)))
	}
	ops := []ScanOp{{RegionID: region.ID, Rows: rows}}
	var got []Result
	cursor := FusedCursor{}
	pages := 0
	for {
		resp, err := client.FusedExecPage(context.Background(), host, &FusedRequest{Ops: ops, BatchLimit: 3, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Results...)
		pages++
		if !resp.More {
			break
		}
		cursor = resp.Next
	}
	if len(got) != 10 {
		t.Fatalf("bulk-get rows = %d, want 10", len(got))
	}
	if pages < 4 {
		t.Errorf("pages = %d, want at least 4 with batch limit 3", pages)
	}
	for i := range got {
		if want := fmt.Sprintf("row-%03d", i); string(got[i].Row) != want {
			t.Fatalf("row %d = %q, want %q", i, got[i].Row, want)
		}
	}
}
