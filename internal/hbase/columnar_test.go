package hbase

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// packColumnar is the oracle of the columnar page cut: it repacks, after
// the fact, the row-major page a one-version read returns into the
// CellBlock the cut must make of the same rows — row keys in page order,
// columns in order of first appearance, nil for a row without the column,
// an empty value as a present zero-length entry. It reports false, leaving
// resp alone, when a row holds two versions of a column, which no page of
// a one-version read can.
func packColumnar(resp *ScanResponse) bool {
	results := resp.Results
	if len(results) == 0 {
		return true
	}
	type colKey struct{ f, q string }
	var order []colKey
	index := make(map[colKey]int)
	for ri := range results {
		cells := results[ri].Cells
		for ci := range cells {
			c := &cells[ci]
			if ci > 0 && cells[ci-1].Family == c.Family && cells[ci-1].Qualifier == c.Qualifier {
				return false
			}
			k := colKey{c.Family, c.Qualifier}
			if _, ok := index[k]; !ok {
				index[k] = len(order)
				order = append(order, k)
			}
		}
	}
	block := &CellBlock{
		Rows: make([][]byte, len(results)),
		Cols: make([]CellColumn, len(order)),
	}
	for i, k := range order {
		block.Cols[i] = CellColumn{Family: k.f, Qualifier: k.q, Values: make([][]byte, len(results))}
	}
	for ri := range results {
		block.Rows[ri] = results[ri].Row
		for ci := range results[ri].Cells {
			c := &results[ri].Cells[ci]
			v := c.Value
			if v == nil {
				v = []byte{}
			}
			block.Cols[index[colKey{c.Family, c.Qualifier}]].Values[ri] = v
		}
	}
	resp.Block, resp.Results = block, nil
	return true
}

// pageCoverage counts what the pages compared so far exercised, so the test
// fails when a case it means to cover never happened.
type pageCoverage struct {
	blocks, rowMajor, multiOp, resumed, replica, empties, absent int
	// grown counts blocks past the 64 rows an unbounded page starts with.
	grown int
}

// compareColumnarPage sends m to rs row-major and column-major and checks
// the columnar page against packColumnar's repack of the row-major one
// (the row-major page itself when the read keeps several versions): the
// same rows, More and Next, wire size, and rows and cells metered.
func compareColumnarPage(t *testing.T, rs *RegionServer, meter *metrics.Registry, m FusedRequest, oneVersion bool, cov *pageCoverage) *ScanResponse {
	t.Helper()
	ctx := context.Background()
	m.Columnar = false
	meter.Reset()
	want, err := rs.fusedPage(ctx, &m)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := meter.Snapshot()
	if oneVersion && !packColumnar(want) {
		t.Fatalf("request %+v: a one-version read returned two versions of a column", m)
	}
	m.Columnar = true
	meter.Reset()
	resp, err := rs.handleFused(ctx, &m)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.(*ScanResponse)
	counts := meter.Snapshot()
	// A replica's staleness bound is its lag at the time of the read.
	got.StalenessMs, want.StalenessMs = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request %+v:\n page %+v\n want %+v", m, got, want)
	}
	if got.WireSize() != want.WireSize() {
		t.Errorf("request %+v: wire size %d, want %d", m, got.WireSize(), want.WireSize())
	}
	for _, k := range []string{metrics.RowsReturned, metrics.CellsReturned, metrics.RowsScanned, metrics.CellsScanned} {
		if counts[k] != wantCounts[k] {
			t.Errorf("request %+v: %s %d, want %d", m, k, counts[k], wantCounts[k])
		}
	}
	switch {
	case got.Block != nil:
		cov.blocks++
		if got.Block.Len() > 64 {
			cov.grown++
		}
		if len(m.Ops)-m.Cursor.Op > 1 {
			cov.multiOp++
		}
		for _, c := range got.Block.Cols {
			for _, v := range c.Values {
				if v == nil {
					cov.absent++
				} else if len(v) == 0 {
					cov.empties++
				}
			}
		}
	case len(got.Results) > 0:
		cov.rowMajor++
	}
	if !reflect.DeepEqual(m.Cursor, FusedCursor{}) {
		cov.resumed++
	}
	for _, op := range m.Ops[m.Cursor.Op:] {
		if op.Replica > 0 {
			cov.replica++
			break
		}
	}
	return got
}

// TestColumnarPageMatchesRowMajor: a columnar page is cut as the region
// visits its rows, and must be exactly what packColumnar makes of the
// row-major page of the same request. Seeded tables at max versions 1 and
// 3, half their writes flushed and half in the MemStore, with tombstones
// and empty values, are read by random one- and multi-op pages across the
// regions and replicas of each server: range and point ops, BatchLimit
// pages resumed from their cursors, and every projection shape. The onerow
// cases are single gets of fixed rows, the rows a columnar page could not
// carry before it was cut: two versions of a column and an empty value.
func TestColumnarPageMatchesRowMajor(t *testing.T) {
	for _, maxVersions := range []int{1, 3} {
		t.Run(fmt.Sprintf("maxVersions=%d", maxVersions), func(t *testing.T) {
			seededColumnarPages(t, maxVersions)
		})
	}
	t.Run("onerow", oneRowColumnarPages)
}

func seededColumnarPages(t *testing.T, maxVersions int) {
	meter := metrics.NewRegistry()
	c, err := NewCluster(ClusterConfig{Name: "col", NumServers: 2, Meter: meter, Store: StoreConfig{RegionReplication: 2}})
	if err != nil {
		t.Fatal(err)
	}
	client := c.NewClient()
	defer client.Close()
	splits := [][]byte{[]byte("r050"), []byte("r100"), []byte("r150")}
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"a", "b"}, MaxVersions: maxVersions}, splits); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(maxVersions)))
	cols := []Column{{Family: "a", Qualifier: "x"}, {Family: "a", Qualifier: "y"}, {Family: "b", Qualifier: "z"}, {Family: "b", Qualifier: "w"}}
	write := func(ts int64) {
		var cells []Cell
		for i := 0; i < 200; i++ {
			for _, col := range cols {
				if rng.Intn(3) == 0 {
					continue
				}
				cl := Cell{Row: []byte(fmt.Sprintf("r%03d", i)), Family: col.Family, Qualifier: col.Qualifier, Timestamp: ts, Type: TypePut}
				switch rng.Intn(8) {
				case 0:
					cl.Type = TypeDelete
				case 1: // an empty value
				default:
					cl.Value = []byte(fmt.Sprintf("v%d-%d", ts, rng.Intn(100)))
				}
				cells = append(cells, cl)
			}
		}
		if err := client.Put("t", cells); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	write(2)
	for _, rs := range c.Servers {
		for _, r := range rs.Regions() {
			if !r.IsReplica() {
				r.Flush()
			}
		}
	}
	write(3)
	write(4)

	projections := [][]Column{
		nil,
		{{Family: "a", Qualifier: "x"}},
		{{Family: "a"}},
		{{Family: "b"}},
		{{Family: "a", Qualifier: "y"}, {Family: "b", Qualifier: "z"}},
		{{Family: "b", Qualifier: "nope"}},
		{{Family: "a", Qualifier: "x"}, {Family: "b", Qualifier: "nope"}, {Family: "b", Qualifier: "w"}},
	}
	key := func() []byte {
		k := fmt.Sprintf("r%03d", rng.Intn(202))
		if rng.Intn(6) == 0 {
			k += "x" // between rows: absent
		}
		return []byte(k)
	}
	var cov pageCoverage
	for _, rs := range c.Servers {
		copies := rs.Regions()
		for req := 0; req < 150; req++ {
			mv := rng.Intn(4)
			proj := projections[rng.Intn(len(projections))]
			var filter Filter
			if rng.Intn(5) == 0 {
				filter = &SingleColumnValueFilter{Family: "a", Qualifier: "x", Op: CmpNotEqual, Value: []byte("v4-7")}
			}
			m := FusedRequest{}
			if rng.Intn(2) == 0 {
				m.BatchLimit = 1 + rng.Intn(6)
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				r := copies[rng.Intn(len(copies))]
				info := r.Info()
				op := ScanOp{RegionID: info.ID, Epoch: info.Epoch, Replica: info.Replica,
					Scan: &Scan{Columns: proj, Filter: filter, MaxVersions: mv}}
				if rng.Intn(2) == 0 {
					rows := [][]byte{key(), key(), key()}[:1+rng.Intn(3)]
					sort.Slice(rows, func(i, j int) bool { return string(rows[i]) < string(rows[j]) })
					op.Rows = rows
				} else {
					if rng.Intn(3) > 0 {
						lo, hi := key(), key()
						if string(lo) > string(hi) {
							lo, hi = hi, lo
						}
						op.Scan.StartRow, op.Scan.StopRow = lo, hi
					}
					if rng.Intn(4) == 0 {
						op.Scan.Limit = 1 + rng.Intn(8)
					}
				}
				m.Ops = append(m.Ops, op)
			}
			oneVersion := min(max(mv, 1), maxVersions) == 1
			for page := 0; ; page++ {
				got := compareColumnarPage(t, rs, meter, m, oneVersion, &cov)
				if !got.More {
					break
				}
				if page > 2000 {
					t.Fatalf("request %+v: more than 2000 pages", m)
				}
				m.Cursor = got.Next
			}
		}
	}
	t.Logf("coverage %+v", cov)
	if cov.blocks == 0 || cov.multiOp == 0 || cov.resumed == 0 || cov.replica == 0 || cov.empties == 0 || cov.absent == 0 || cov.grown == 0 {
		t.Errorf("coverage %+v: every case must occur", cov)
	}
	if (cov.rowMajor == 0) != (maxVersions == 1) {
		t.Errorf("coverage %+v: row-major pages must occur exactly when the table keeps several versions", cov)
	}
}

func oneRowColumnarPages(t *testing.T) {
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
	projections := [][]Column{
		nil,
		{{Family: "a", Qualifier: "x"}},
		{{Family: "a", Qualifier: "y"}, {Family: "b", Qualifier: "z"}},
		{{Family: "a"}},
		{{Family: "b", Qualifier: "nope"}},
		{{Family: "a", Qualifier: "x"}, {Family: "b", Qualifier: "nope"}},
	}
	var cov pageCoverage
	for _, cols := range projections {
		for _, versions := range []int{1, 2} {
			for _, row := range []string{"r1", "r2", "r3", "r9"} {
				op := ScanOp{RegionID: regions[0].ID, Epoch: regions[0].Epoch, Rows: [][]byte{[]byte(row)},
					Scan: &Scan{Columns: cols, MaxVersions: versions}}
				compareColumnarPage(t, c.Servers[0], meter, FusedRequest{Ops: []ScanOp{op}}, versions == 1, &cov)
			}
		}
	}
	if cov.blocks == 0 || cov.rowMajor == 0 || cov.empties == 0 {
		t.Errorf("coverage %+v: the cases must cover block pages, row-major pages and empty values", cov)
	}
}

// TestUnboundedPageGrowsOnce: an unbounded columnar range page of 1,000
// rows allocates its block array at most twice — the first array and one
// grow to the rows its op is projected to return — where doubling from 64
// rows would allocate it five times. Its allocations beyond those of a page
// that fits the first array are the grows.
func TestUnboundedPageGrowsOnce(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Name: "grow", NumServers: 1, Meter: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"a"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 1000; i++ {
		for _, q := range []string{"x", "y", "z"} {
			cells = append(cells, Cell{Row: []byte(fmt.Sprintf("r%04d", i)), Family: "a", Qualifier: q, Timestamp: 1, Type: TypePut, Value: []byte(q)})
		}
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	rs := c.Servers[0]
	r := rs.Regions()[0]
	r.Flush()
	allocs := func(stop string) float64 {
		info := r.Info()
		m := FusedRequest{Columnar: true, Ops: []ScanOp{{RegionID: info.ID, Epoch: info.Epoch,
			Scan: &Scan{StopRow: []byte(stop)}}}}
		return testing.AllocsPerRun(20, func() {
			resp, err := rs.fusedPage(context.Background(), &m)
			if err != nil || resp.Block == nil {
				t.Fatalf("page: %v", err)
			}
		})
	}
	small, large := allocs("r0050"), allocs("r9999")
	if large-small > 1 {
		t.Errorf("a 1,000-row page makes %.0f allocations, a 50-row page %.0f: its block array grew %.0f times, want at most once", large, small, large-small)
	}
}
