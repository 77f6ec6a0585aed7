package hbase

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// This file holds the tests of the region's one resolved copy of its
// cells: the view a compaction keeps, and the view that is a lone store
// file's own cells. CI runs the TestKeptView tests under -race, many
// times over.

func viewDesc(maxVersions int) *TableDescriptor {
	return &TableDescriptor{Name: "t", Families: []string{"cf", "cg"}, MaxVersions: maxVersions}
}

// checkView compares every clean row of r's view — every row not in
// dirty — with the oracle's resolution of that row, and checks that the
// view misses no clean row the oracle holds.
func checkView(t *testing.T, what string, r *Region) {
	t.Helper()
	r.mu.RLock()
	ok, v, dirty := r.viewOK, r.view, append([][]byte(nil), r.dirty...)
	r.mu.RUnlock()
	if !ok {
		return
	}
	isDirty := func(row []byte) bool {
		for _, d := range dirty {
			if bytes.Equal(d, row) {
				return true
			}
		}
		return false
	}
	var clean [][]Cell
	for _, row := range oracleRows(r, nil, nil) {
		if !isDirty(row[0].Row) {
			clean = append(clean, row)
		}
	}
	i := 0
	for k := 0; k+1 < len(v.rows); k++ {
		row := v.cells[v.rows[k]:v.rows[k+1]]
		if isDirty(row[0].Row) {
			continue
		}
		if i == len(clean) || !sameCells(row, clean[i]) {
			t.Fatalf("%s: view row %q = %v, oracle's clean row %d of %d", what, row[0].Row, row, i, len(clean))
		}
		i++
	}
	if i != len(clean) {
		t.Fatalf("%s: view holds %d clean rows, oracle %d", what, i, len(clean))
	}
}

// TestKeptViewMatchesOracle runs a seeded random mix of puts, deletes,
// flushes and compactions at maxVersions 1 and 3 — among them a flushed
// tombstone masking an older MemStore put, compactions that run while the
// MemStore holds cells (a fenced owner's, and a replica's), and the same
// on a replica — and after every step compares the kept view and the
// region's reads with a from-scratch resolution of its files and MemStore.
func TestKeptViewMatchesOracle(t *testing.T) {
	for _, mv := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("maxVersions%d/seed%d", mv, seed), func(t *testing.T) { runKeptViewOracle(t, mv, seed) })
		}
	}
}

func runKeptViewOracle(t *testing.T, mv int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(mv), StoreConfig{FlushThresholdBytes: 1500, CompactThresholdFiles: 4}, metrics.NewRegistry())
	var rep *Region
	rowKey := func() string { return fmt.Sprintf("r%02d", rng.Intn(40)) }
	col := func() (string, string) { return []string{"cf", "cg"}[rng.Intn(2)], fmt.Sprintf("q%d", rng.Intn(3)) }
	put := func(cells ...Cell) {
		t.Helper()
		if err := putCells(r, cells...); err != nil {
			t.Fatal(err)
		}
	}
	// compact compacts c and counts whether it kept the view it had.
	var kept, keptDirty, dropped int
	compact := func(c *Region) {
		c.mu.RLock()
		had := c.viewOK
		c.mu.RUnlock()
		c.Compact()
		c.mu.RLock()
		defer c.mu.RUnlock()
		switch {
		case !had:
		case !c.viewOK:
			// Only past markDirtyLocked's bound: more MemStore rows than
			// half the cells of the view the compaction would have kept,
			// the compacted file's default read.
			viewCells := len(resolve(append([]Cell(nil), c.files[0].cells...), 1, TimeRange{}, nil, nil))
			if rows := c.mem.rows(); len(rows) <= viewCells/2 {
				t.Fatalf("compaction dropped a current view of %d cells with %d MemStore rows", viewCells, len(rows))
			}
			dropped++
		case len(c.dirty) > 0:
			keptDirty++
			fallthrough
		default:
			kept++
		}
	}
	for step := 0; step < 400; step++ {
		var what string
		switch op := rng.Intn(100); {
		case op < 45:
			what = "put"
			fam, q := col()
			c := cell(rowKey(), fam, q, int64(1+rng.Intn(12)), fmt.Sprintf("v%d", step))
			if rng.Intn(5) == 0 {
				c.Type, c.Value = TypeDelete, nil
			}
			put(c)
		case op < 52:
			what = "flushed tombstone over a MemStore put"
			row, ts := rowKey(), int64(10+rng.Intn(5))
			fam, q := col()
			put(tomb(row, fam, q, ts))
			r.Flush()
			put(cell(row, fam, q, ts-1-int64(rng.Intn(3)), "masked"))
		case op < 62:
			what = "flush"
			r.Flush()
		case op < 70:
			what = "compact"
			compact(r)
		case op < 76:
			// A fenced owner compacts without flushing, so the MemStore
			// keeps its cells; adopting the epoch lets writes resume.
			what = "fenced compact"
			epoch := r.Epoch() + 1
			r.log.Fence(epoch)
			compact(r)
			r.AdoptEpoch(epoch)
		case op < 80 && rep == nil:
			what = "replica"
			rep = r.NewReplica(1)
		case op < 86 && rep != nil:
			what = "replica compact"
			compact(rep)
		default:
			what = "read"
		}
		what = fmt.Sprintf("step %d (%s)", step, what)
		for _, c := range []*Region{r, rep} {
			if c == nil {
				continue
			}
			checkView(t, what, c)
			checkGet(t, what, c, []byte(rowKey()))
			checkScan(t, what, c, &Scan{})
			start, stop := rowKey(), rowKey()
			if start > stop {
				start, stop = stop, start
			}
			checkScan(t, what, c, &Scan{StartRow: []byte(start), StopRow: []byte(stop), Limit: 1 + rng.Intn(5)})
			checkView(t, what+" after reads", c)
		}
	}
	if kept == 0 || keptDirty == 0 {
		t.Fatalf("compactions kept %d views, %d with MemStore rows dirty (%d dropped): the test never exercised a kept view", kept, keptDirty, dropped)
	}
}

// After a load — puts flushed into one store file — and after a
// compaction, the view is the store file's own cells; a lone file that is
// not its own default read is resolved into a copy.
func TestKeptViewAliasesStoreFile(t *testing.T) {
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 1 << 20, CompactThresholdFiles: 4}, metrics.NewRegistry())
	for i := 0; i < 300; i++ {
		if err := putCells(r, cell(fmt.Sprintf("r%03d", (i*7)%100), "cf", fmt.Sprintf("q%d", i%3), 1, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	checkScan(t, "load", r, &Scan{})
	if !sharesCells(r.view.cells, r.files[0].cells) {
		t.Fatalf("after the load the view holds %d cells apart from the store file's %d", len(r.view.cells), len(r.files[0].cells))
	}
	for i := 0; i < 50; i++ {
		if err := putCells(r, cell(fmt.Sprintf("r%03d", i), "cf", "q0", 2, "newer")); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	checkGet(t, "second file", r, []byte("r007"))
	r.Compact()
	if !r.viewOK || len(r.dirty) != 0 || !sharesCells(r.view.cells, r.files[0].cells) {
		t.Fatalf("after a compaction: view current %v with %d dirty rows, sharing the file's cells %v", r.viewOK, len(r.dirty), sharesCells(r.view.cells, r.files[0].cells))
	}
	checkView(t, "compacted", r)
	checkScan(t, "compacted", r, &Scan{})

	// Two versions of a column in one flushed file: the view keeps one.
	r2 := NewRegion(RegionInfo{Table: "t", ID: "t-1"}, viewDesc(1), StoreConfig{}, metrics.NewRegistry())
	if err := putCells(r2, cell("a", "cf", "q", 1, "old"), cell("a", "cf", "q", 2, "new"), cell("b", "cf", "q", 1, "b")); err != nil {
		t.Fatal(err)
	}
	r2.Flush()
	checkScan(t, "two versions", r2, &Scan{})
	if len(r2.view.cells) != 2 || sharesCells(r2.view.cells, r2.files[0].cells[:2]) {
		t.Fatalf("view of a file holding two versions = %v, want a copy of 2 cells", r2.view.cells)
	}
}

// Readers run against a region while a writer puts, flushes and compacts
// it and drops its view, so views are kept, rebuilt and replaced, and
// shared with store files, under their feet. Run with -race. Every cell read is one the writer wrote, and
// the final reads match the oracle.
func TestKeptViewConcurrentReaders(t *testing.T) {
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 2 << 10, CompactThresholdFiles: 3}, metrics.NewRegistry())
	valid := func(c *Cell) bool { return string(c.Value) == fmt.Sprintf("v%s.%d", c.Row, c.Timestamp) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				row := []byte(fmt.Sprintf("r%02d", (i*(g+3))%40))
				for _, c := range r.Get(row, nil, 1, TimeRange{}).Cells {
					if !bytes.Equal(c.Row, row) || !valid(&c) {
						t.Errorf("get %q returned %v", row, c.String())
						return
					}
				}
				var prev []byte
				for _, res := range r.RunScan(&Scan{StartRow: []byte("r10"), StopRow: []byte("r30")}) {
					if prev != nil && bytes.Compare(prev, res.Row) >= 0 {
						t.Errorf("scan rows out of order: %q after %q", res.Row, prev)
						return
					}
					prev = res.Row
					for _, c := range res.Cells {
						if !bytes.Equal(c.Row, res.Row) || !valid(&c) {
							t.Errorf("scan row %q returned %v", res.Row, c.String())
							return
						}
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(1))
	for ts := int64(1); ts <= 1500; ts++ {
		row := fmt.Sprintf("r%02d", rng.Intn(40))
		c := cell(row, "cf", fmt.Sprintf("q%d", rng.Intn(3)), ts, fmt.Sprintf("v%s.%d", row, ts))
		if rng.Intn(8) == 0 {
			c.Type, c.Value = TypeDelete, nil
		}
		if err := putCells(r, c); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(100) {
		case 0:
			r.Compact()
		case 1:
			// A lone file and an empty MemStore: the view is built as the
			// file's cells, dropped, and built again while readers may
			// still walk the first.
			r.Compact()
			r.RunScan(&Scan{})
			r.DropMemStore()
			r.RunScan(&Scan{})
		}
	}
	close(done)
	wg.Wait()
	if r.meter.Get(metrics.Compactions) == 0 {
		t.Fatal("no compaction ran under the readers")
	}
	checkView(t, "final", r)
	checkScan(t, "final", r, &Scan{})
}

// The permutation sort of a flush and a bulk load orders cells exactly as
// a stable sort of the cells does, equal coordinates keeping their input
// order, whether it sorts every cell or only the rows a read covers.
func TestSortedCellsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m memStore
	for i := 0; i < 600; i++ {
		c := cell(fmt.Sprintf("r%d", rng.Intn(4)), "cf", fmt.Sprintf("q%d", rng.Intn(2)), int64(rng.Intn(2)), fmt.Sprintf("v%d", i))
		if rng.Intn(3) == 0 {
			c.Type = TypeDelete
		}
		m.add(c)
	}
	in := append([]Cell(nil), m.cells...)
	same := func(what string, got, want []Cell) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells, stable sort %d", what, len(got), len(want))
		}
		for i := range got {
			if CompareCells(&got[i], &want[i]) != 0 || got[i].Type != want[i].Type || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%s: cell %d = %v %q, stable sort %v %q", what, i, got[i].String(), got[i].Value, want[i].String(), want[i].Value)
			}
		}
	}
	same("sortedCells", sortedCells(m.cells), sortCells(append([]Cell(nil), in...)))
	same("input untouched", m.cells, in)
	for _, k := range []keys{{}, {start: []byte("r1"), stop: []byte("r3")}, {start: []byte("r2"), point: true}} {
		var want []Cell
		for _, c := range in {
			if k.has(c.Row) {
				want = append(want, c)
			}
		}
		same(fmt.Sprintf("memStore.sorted(%q, %q, point %v)", k.start, k.stop, k.point), m.sorted(k), sortCells(want))
	}
}
