package hbase

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// oracleRows is the default read of [start, stop) computed from scratch:
// every store file and the MemStore merged and resolved, grouped by row.
func oracleRows(r *Region, start, stop []byte) [][]Cell {
	r.mu.RLock()
	visible := resolveVersions(r.allCellsLocked(keys{start: start, stop: stop}), 1, TimeRange{})
	r.mu.RUnlock()
	var rows [][]Cell
	for i := 0; i < len(visible); {
		j := i + 1
		for j < len(visible) && bytes.Equal(visible[j].Row, visible[i].Row) {
			j++
		}
		rows = append(rows, visible[i:j])
		i = j
	}
	return rows
}

func sameCells(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if CompareCells(x, y) != 0 || x.Type != y.Type || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}

// checkScan runs s against r and compares the rows it returns with the
// oracle's rows of the same range, cut at s.Limit.
func checkScan(t *testing.T, what string, r *Region, s *Scan) {
	t.Helper()
	start, stop := s.StartRow, s.StopRow
	if len(r.info.StartKey) > 0 && (start == nil || bytes.Compare(start, r.info.StartKey) < 0) {
		start = r.info.StartKey
	}
	if len(r.info.EndKey) > 0 && (stop == nil || bytes.Compare(stop, r.info.EndKey) > 0) {
		stop = r.info.EndKey
	}
	want := oracleRows(r, start, stop)
	if s.Limit > 0 && len(want) > s.Limit {
		want = want[:s.Limit]
	}
	got := r.RunScan(s)
	if len(got) != len(want) {
		t.Fatalf("%s on %s [%q, %q) limit %d: %d rows, oracle %d", what, r.info.ID, s.StartRow, s.StopRow, s.Limit, len(got), len(want))
	}
	for i := range got {
		if !sameCells(got[i].Cells, want[i]) {
			t.Fatalf("%s on %s: row %q = %v, oracle %v", what, r.info.ID, got[i].Row, got[i].Cells, want[i])
		}
	}
}

func checkGet(t *testing.T, what string, r *Region, row []byte) {
	t.Helper()
	want := oracleRows(r, row, append(append([]byte(nil), row...), 0))
	got := r.Get(row, nil, 1, TimeRange{})
	if len(want) == 0 {
		if !got.Empty() {
			t.Fatalf("%s: get %q = %v, oracle has no row", what, row, got.Cells)
		}
		return
	}
	if !sameCells(got.Cells, want[0]) {
		t.Fatalf("%s: get %q = %v, oracle %v", what, row, got.Cells, want[0])
	}
}

// TestDefaultReadMatchesOracle runs a seeded random mix of writes,
// deletes, flushes, compactions, bulk loads, crash recoveries and splits,
// and after every operation compares gets, full scans and limited range
// scans against a from-scratch merge of the region's files and MemStore.
func TestDefaultReadMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runReadOracle(t, seed) })
	}
}

func runReadOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := StoreConfig{FlushThresholdBytes: 1500, CompactThresholdFiles: 4}
	regions := []*Region{NewRegion(RegionInfo{Table: "t", ID: "t-0"}, testDesc(), cfg, metrics.NewRegistry())}
	rowKey := func() []byte { return []byte(fmt.Sprintf("r%02d", rng.Intn(40))) }
	randCell := func() Cell {
		c := cell(string(rowKey()), []string{"cf", "cg"}[rng.Intn(2)], fmt.Sprintf("q%d", rng.Intn(3)), int64(1+rng.Intn(12)), fmt.Sprintf("v%d", rng.Int()))
		if rng.Intn(5) == 0 {
			c.Type, c.Value = TypeDelete, nil
		}
		return c
	}
	owner := func(row []byte) *Region {
		for _, r := range regions {
			if r.info.ContainsRow(row) {
				return r
			}
		}
		t.Fatalf("no region holds %q", row)
		return nil
	}
	splits, dirtyReads := 0, 0
	for step := 0; step < 600; step++ {
		var what string
		switch op := rng.Intn(100); {
		case op < 45:
			what = "put"
			c := randCell()
			if err := putCells(owner(c.Row), c); err != nil {
				t.Fatal(err)
			}
		case op < 55:
			what = "equal-timestamp put/delete"
			c := randCell()
			c.Type, c.Value = TypePut, []byte("pair")
			d := c
			d.Type, d.Value = TypeDelete, nil
			if rng.Intn(2) == 0 {
				c, d = d, c
			}
			r := owner(c.Row)
			if err := putCells(r, c, d); err != nil {
				t.Fatal(err)
			}
		case op < 65:
			what = "flush"
			regions[rng.Intn(len(regions))].Flush()
		case op < 70:
			what = "compact"
			regions[rng.Intn(len(regions))].Compact()
		case op < 78:
			what = "bulk load"
			r := regions[rng.Intn(len(regions))]
			var cells []Cell
			for i := 0; i < 1+rng.Intn(6); i++ {
				if c := randCell(); r.info.ContainsRow(c.Row) {
					cells = append(cells, c)
				}
			}
			if err := r.BulkLoad(sortCells(cells)); err != nil {
				t.Fatal(err)
			}
		case op < 81:
			what = "drop memstore"
			regions[rng.Intn(len(regions))].DropMemStore()
		case op < 85:
			what = "recover from WAL"
			if err := regions[rng.Intn(len(regions))].RecoverFromWAL(); err != nil {
				t.Fatal(err)
			}
		case op < 88 && splits < 4:
			what = "split"
			i := rng.Intn(len(regions))
			key := rowKey()
			if !regions[i].info.ContainsRow(key) || bytes.Equal(key, regions[i].info.StartKey) {
				continue
			}
			id := regions[i].info.ID
			low, high, err := regions[i].SplitInto(id+"a", id+"b", key, 0)
			if err != nil {
				t.Fatal(err)
			}
			regions = append(regions[:i], append([]*Region{low, high}, regions[i+1:]...)...)
			splits++
		default:
			what = "read"
		}
		what = fmt.Sprintf("step %d (%s)", step, what)
		for _, r := range regions {
			r.mu.RLock()
			if len(r.dirty) > 0 {
				dirtyReads++
			}
			r.mu.RUnlock()
			checkGet(t, what, r, rowKey())
			checkScan(t, what, r, &Scan{})
			start, stop := rowKey(), rowKey()
			if bytes.Compare(start, stop) > 0 {
				start, stop = stop, start
			}
			checkScan(t, what, r, &Scan{StartRow: start, StopRow: stop, Limit: 1 + rng.Intn(5)})
		}
	}
	if dirtyReads == 0 {
		t.Fatal("no read found a dirty row: the test never exercised the dirty-row path")
	}
}

// A tombstone flushed to a store file masks a put with an older timestamp
// that arrives later in the MemStore, through the dirty-row path, a flush
// and a compaction alike.
func TestDefaultReadFlushedTombstoneMasksOlderPut(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	row := []byte("row")
	mustPut := func(c Cell) {
		t.Helper()
		if err := putCells(r, c); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(cell("row", "cf", "q", 5, "old"))
	mustPut(cell("other", "cf", "q", 1, "x"))
	checkGet(t, "before delete", r, row) // builds the view
	mustPut(tomb("row", "cf", "q", 10))
	r.Flush()
	mustPut(cell("row", "cf", "q", 7, "masked"))
	if !r.viewOK || len(r.dirty) != 1 {
		t.Fatalf("view current %v, dirty %q: want a current view with one dirty row", r.viewOK, r.dirty)
	}
	for _, step := range []string{"memstore", "flush", "compact"} {
		switch step {
		case "flush":
			r.Flush()
		case "compact":
			r.Compact()
		}
		if got := r.Get(row, nil, 1, TimeRange{}); !got.Empty() {
			t.Fatalf("after %s: masked put visible: %v", step, got.Cells)
		}
		checkGet(t, step, r, row)
		checkScan(t, step, r, &Scan{})
	}
}

// A compaction that runs while the MemStore holds cells drops the file
// tombstone that masked them (a fenced owner compacts without flushing),
// so it must discard the view.
func TestDefaultReadCompactionUnmasksMemStoreCell(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if err := putCells(r, tomb("row", "cf", "q", 10)); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if err := putCells(r, cell("row", "cf", "q", 7, "older")); err != nil {
		t.Fatal(err)
	}
	checkGet(t, "masked", r, []byte("row")) // builds the view
	r.log.Fence(r.Epoch() + 1)
	r.Compact()
	checkGet(t, "after compaction", r, []byte("row"))
	if got := r.Get([]byte("row"), nil, 1, TimeRange{}); got.Empty() {
		t.Fatal("compaction dropped the tombstone, yet the older MemStore put is still hidden")
	}
}

// Default reads on a secondary copy track the entries shipped to it, held
// or applied, and the copy's reads stay exact across promotion.
func TestDefaultReadReplicaTracksShippedWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	primary := newTestRegion(t, StoreConfig{FlushThresholdBytes: 1 << 20})
	for i := 0; i < 30; i++ {
		if err := putCells(primary, cell(fmt.Sprintf("r%02d", i), "cf", "q", 1, "base")); err != nil {
			t.Fatal(err)
		}
	}
	rep := primary.NewReplica(1)
	checkScan(t, "bootstrap", rep, &Scan{}) // builds the copy's view
	for i := 0; i < 200; i++ {
		row := fmt.Sprintf("r%02d", rng.Intn(30))
		c := cell(row, "cf", "q", int64(2+rng.Intn(5)), fmt.Sprintf("v%d", i))
		if rng.Intn(4) == 0 {
			c = tomb(row, "cf", "q", c.Timestamp)
		}
		if err := putCells(primary, c); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(10) {
		case 0:
			rep.HoldApply(true)
		case 1:
			rep.HoldApply(false)
		case 2:
			rep.ApplyPending(1)
		}
		what := fmt.Sprintf("write %d", i)
		checkGet(t, what, rep, []byte(row))
		checkScan(t, what, rep, &Scan{})
	}
	rep.Promote(primary.Epoch() + 1)
	checkScan(t, "promoted", rep, &Scan{})
	if got, want := rep.RunScan(&Scan{}), primary.RunScan(&Scan{}); len(got) != len(want) {
		t.Fatalf("promoted copy has %d rows, primary %d", len(got), len(want))
	}
}

// The view is sized to the cells it keeps, with its row index and ids: a
// region holding four versions of every cell resolves to a quarter of what
// it merges, and the view must not keep the merge's capacity.
func TestViewSizedToWhatItKeeps(t *testing.T) {
	r := newTestRegion(t, StoreConfig{FlushThresholdBytes: 1 << 20})
	for i := 0; i < 400; i++ {
		if err := putCells(r, cell(fmt.Sprintf("r%03d", i%50), "cf", fmt.Sprintf("q%d", i/50%2), int64(i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	checkScan(t, "build", r, &Scan{})
	r.mu.RLock()
	v := r.view
	r.mu.RUnlock()
	if len(v.cells) != 100 || len(v.ids) != len(v.cells) || len(v.rows) != 51 || int(v.rows[50]) != len(v.cells) {
		t.Fatalf("view holds %d cells, %d ids, %d row starts; want 100, 100, 51 closed by 100", len(v.cells), len(v.ids), len(v.rows))
	}
	if cap(v.cells) > len(v.cells)*11/10 || cap(v.ids) > len(v.ids)*11/10 || cap(v.rows) > len(v.rows)*11/10 {
		t.Fatalf("view capacity %d cells, %d ids, %d row starts for lengths %d, %d, %d: over 1.1x", cap(v.cells), cap(v.ids), cap(v.rows), len(v.cells), len(v.ids), len(v.rows))
	}
}

// Multi-version scans and split-point probes hold only the read lock;
// they must not write shared MemStore state (run with -race). The first
// scans run concurrently, on a MemStore no read has touched yet.
func TestConcurrentMultiVersionScansDoNotRace(t *testing.T) {
	r := newTestRegion(t, StoreConfig{FlushThresholdBytes: 1 << 20})
	for i := 0; i < 200; i++ {
		if err := putCells(r, cell(fmt.Sprintf("r%03d", i%50), "cf", "q", int64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	counts := make(chan int, 4*20)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				counts <- len(r.RunScan(&Scan{MaxVersions: 2}))
				r.SplitPoint()
			}
		}()
	}
	wg.Wait()
	close(counts)
	want := r.RunScan(&Scan{MaxVersions: 2})
	if len(want) != 50 || len(want[0].Cells) != 2 {
		t.Fatalf("scan = %d rows, first with %d cells; want 50 rows of 2 versions", len(want), len(want[0].Cells))
	}
	for n := range counts {
		if n != len(want) {
			t.Fatalf("concurrent scan returned %d rows, want %d", n, len(want))
		}
	}
	if r.SplitPoint() == nil {
		t.Fatal("no split point for a 50-row region")
	}
}

// benchRegion returns a region of 500 rows × 10 columns (5,000 cells)
// spread over store files and the MemStore, with its view built.
func benchRegion(b *testing.B) *Region {
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, testDesc(), StoreConfig{FlushThresholdBytes: 32 << 10}, metrics.NewRegistry())
	for i := 0; i < 5000; i++ {
		if err := putCells(r, cell(fmt.Sprintf("row%04d", i%500), "cf", fmt.Sprintf("q%d", i/500), 1, "value-0123456789")); err != nil {
			b.Fatal(err)
		}
	}
	r.Get([]byte("row0000"), nil, 1, TimeRange{})
	return r
}

// BenchmarkRegionReadAfterWrite puts one cell and reads its row back.
func BenchmarkRegionReadAfterWrite(b *testing.B) {
	r := benchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := []byte(fmt.Sprintf("row%04d", (i*7)%500))
		if err := putCells(r, Cell{Row: row, Family: "cf", Qualifier: "q0", Timestamp: int64(2 + i), Type: TypePut, Value: []byte("v")}); err != nil {
			b.Fatal(err)
		}
		if res := r.Get(row, nil, 1, TimeRange{}); res.Empty() {
			b.Fatal("row written and not read back")
		}
	}
}

// BenchmarkRegionReadQuiescent reads one row of a region nobody writes.
func BenchmarkRegionReadQuiescent(b *testing.B) {
	r := benchRegion(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := r.Get([]byte(fmt.Sprintf("row%04d", (i*7)%500)), nil, 1, TimeRange{}); res.Empty() {
			b.Fatal("row missing")
		}
	}
}

// BenchmarkMergeSorted merges four store-file runs and a MemStore run
// (5,000 cells) the way a compaction or view rebuild does.
func BenchmarkMergeSorted(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	runs := make([][]Cell, 5)
	for i := 0; i < 5000; i++ {
		k := rng.Intn(len(runs))
		runs[k] = append(runs[k], cell(fmt.Sprintf("row%04d", rng.Intn(500)), "cf", fmt.Sprintf("q%d", rng.Intn(10)), int64(rng.Intn(4)), "v"))
	}
	for _, run := range runs {
		sortCells(run)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeSink = mergeSorted(runs...)
	}
}

// mergeSink keeps BenchmarkMergeSorted's result live.
var mergeSink []Cell
