package hbase

import (
	"context"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// TestOneRowPageMatchesPackColumnar: a columnar single-get page is cut
// straight from the row's cells, and must be exactly what packColumnar
// makes of the row-major page — the same block (or the same row-major
// fallback), the same wire size, and the same rows and cells metered —
// for a present row, an absent one, every projection shape, and the rows
// packColumnar leaves row-major: two versions of a column, an empty value.
func TestOneRowPageMatchesPackColumnar(t *testing.T) {
	meter := metrics.NewRegistry()
	c, err := NewCluster(ClusterConfig{Name: "one", NumServers: 1, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"a", "b"}, MaxVersions: 3}, nil); err != nil {
		t.Fatal(err)
	}
	put := func(row, fam, q string, ts int64, v string) Cell {
		return Cell{Row: []byte(row), Family: fam, Qualifier: q, Timestamp: ts, Type: TypePut, Value: []byte(v)}
	}
	cells := []Cell{
		put("r1", "a", "x", 1, "x1"), put("r1", "a", "y", 1, "y1"), put("r1", "b", "z", 1, "z1"),
		put("r2", "a", "x", 1, "old"), put("r2", "a", "x", 2, "new"), put("r2", "b", "z", 1, "z2"),
		put("r3", "a", "x", 1, ""), put("r3", "b", "z", 1, "z3"),
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	rs := c.Servers[0]
	ctx := context.Background()
	projections := map[string][]Column{
		"all":         nil,
		"one":         {{Family: "a", Qualifier: "x"}},
		"two":         {{Family: "a", Qualifier: "y"}, {Family: "b", Qualifier: "z"}},
		"family":      {{Family: "a"}},
		"absent":      {{Family: "b", Qualifier: "nope"}},
		"with-absent": {{Family: "a", Qualifier: "x"}, {Family: "b", Qualifier: "nope"}},
	}
	blocks, rowMajor := 0, 0
	for name, cols := range projections {
		for _, versions := range []int{1, 2} {
			for _, row := range []string{"r1", "r2", "r3", "r9"} {
				op := ScanOp{RegionID: regions[0].ID, Epoch: regions[0].Epoch, Rows: [][]byte{[]byte(row)},
					Scan: &Scan{Columns: cols, MaxVersions: versions}}
				meter.Reset()
				want, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{op}})
				if err != nil {
					t.Fatal(err)
				}
				packColumnar(want)
				wantCounts := meter.Snapshot()
				meter.Reset()
				resp, err := rs.handleFused(ctx, &FusedRequest{Ops: []ScanOp{op}, Columnar: true})
				if err != nil {
					t.Fatal(err)
				}
				got := resp.(*ScanResponse)
				if got.Block != nil {
					blocks++
				} else if len(got.Results) > 0 {
					rowMajor++
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d versions, %s: page %+v, want %+v", name, versions, row, got, want)
				}
				if got.WireSize() != want.WireSize() {
					t.Errorf("%s, %d versions, %s: wire size %d, want %d", name, versions, row, got.WireSize(), want.WireSize())
				}
				counts := meter.Snapshot()
				for _, k := range []string{metrics.RowsReturned, metrics.CellsReturned, metrics.RowsScanned, metrics.CellsScanned} {
					if counts[k] != wantCounts[k] {
						t.Errorf("%s, %d versions, %s: %s %d, want %d", name, versions, row, k, counts[k], wantCounts[k])
					}
				}
			}
		}
	}
	if blocks == 0 || rowMajor == 0 {
		t.Errorf("%d block pages and %d row-major pages; the cases must cover both", blocks, rowMajor)
	}
}
