package hbase

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// This file holds the tests of a dirty row's read: the one-pass
// resolution of a row written since the region's view was built
// (rowCursor.resolveRow), against the merge-then-resolve it replaces.

// TestDirtyRowReadMatchesMerge resolves every row of seeded histories —
// store files and a MemStore over two families, three qualifiers and
// timestamps drawn from 1..3, so puts tie across files, between files and
// the MemStore, and within the MemStore, and tombstones fall at, above and
// below the newest put — in one pass, and compares each with the default
// read of all the runs merged: resolve(mergeSorted(files..., MemStore), 1).
// Rows live only in files, only in the MemStore, or in both, and the empty
// row key is one of them. Each row is read as a point (by row hash, also
// with every hash forced to collide) and as a range's dirty row (from a
// sorted MemStore copy).
func TestDirtyRowReadMatchesMerge(t *testing.T) {
	var ties, tombAt, tombAbove, tombBelow, fileOnly, memOnly int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := []string{"", "a", "b", "c", "d"}
		gen := func(rowSet []string) Cell {
			c := cell(rowSet[rng.Intn(len(rowSet))], []string{"cf", "cg"}[rng.Intn(2)], fmt.Sprintf("q%d", rng.Intn(3)), int64(1+rng.Intn(3)), fmt.Sprintf("v%d", rng.Int()))
			if rng.Intn(4) == 0 {
				c.Type, c.Value = TypeDelete, nil
			}
			return c
		}
		// "a" is written only to files, "d" only to the MemStore; which of
		// them holds the empty row key varies with the seed.
		fileRows, memRows := []string{"", "a", "b", "c"}, []string{"b", "c", "d"}
		if seed%2 == 0 {
			fileRows, memRows = fileRows[1:], append(memRows, "")
		}
		d := newColDict()
		var files []*storeFile
		var runs [][]Cell
		for f := rng.Intn(4); f > 0; f-- {
			var run []Cell
			for n := 1 + rng.Intn(20); n > 0; n-- {
				run = append(run, gen(fileRows))
			}
			run = sortCells(run)
			files, runs = append(files, newStoreFile(run)), append(runs, run)
		}
		var m memStore
		for n := rng.Intn(30); n > 0; n-- {
			m.add(gen(memRows))
		}
		for _, run := range append(runs, m.cells) {
			for i := range run {
				d.record(run[i].Family, run[i].Qualifier)
			}
		}
		merged := resolve(mergeSorted(append(runs, m.sorted(keys{}))...), 1, TimeRange{}, nil, nil)
		for _, row := range append(rows, "e") {
			key := []byte(row)
			want := rowCells(merged, key)
			check := func(how string, c *rowCursor) {
				t.Helper()
				c.dict, c.files = d, files
				got, ids := c.resolveRow(key)
				if !sameCells(got, want) {
					t.Fatalf("seed %d, row %q, %s: one pass = %v, merge = %v", seed, row, how, got, want)
				}
				if len(got) == 0 {
					return
				}
				for i := range got {
					if ids[i] != d.lookup(got[i].Family, got[i].Qualifier) {
						t.Fatalf("seed %d, row %q, %s: cell %v has id %d, dictionary %d", seed, row, how, got[i].String(), ids[i], d.lookup(got[i].Family, got[i].Qualifier))
					}
				}
			}
			check("point", &rowCursor{mem: m.cells, memHash: m.hashes})
			collide := make([]uint32, len(m.hashes))
			for i := range collide {
				collide[i] = rowHash(key)
			}
			check("every hash colliding", &rowCursor{mem: m.cells, memHash: collide})
			check("range", &rowCursor{mem: m.sorted(keys{start: key, stop: append(key, 0)})})

			// Count the cases the histories covered.
			inFiles, inMem := false, false
			for _, run := range runs {
				inFiles = inFiles || len(rowCells(run, key)) > 0
			}
			for i := range m.cells {
				inMem = inMem || bytes.Equal(m.cells[i].Row, key)
			}
			fileOnly += btoi(inFiles && !inMem)
			memOnly += btoi(inMem && !inFiles)
			all := rowCells(sortCells(slices.Concat(append(runs, m.cells)...)), key)
			for i := 0; i < len(all); {
				j := i + 1
				for j < len(all) && compareColumns(&all[i], &all[j]) == 0 {
					j++
				}
				newestPut, newestTomb, puts := int64(-1), int64(-1), 0
				for _, c := range all[i:j] {
					if c.Type == TypeDelete {
						newestTomb = max(newestTomb, c.Timestamp)
						continue
					}
					if newestPut < 0 {
						newestPut = c.Timestamp
					}
					puts += btoi(c.Timestamp == newestPut)
				}
				ties += btoi(puts > 1)
				switch {
				case newestTomb < 0 || newestPut < 0:
				case newestTomb == newestPut:
					tombAt++
				case newestTomb > newestPut:
					tombAbove++
				default:
					tombBelow++
				}
				i = j
			}
		}
	}
	for what, n := range map[string]int{"tied newest puts": ties, "tombstones at the newest put": tombAt, "tombstones above it": tombAbove, "tombstones below it": tombBelow, "rows only in files": fileOnly, "rows only in the MemStore": memOnly} {
		if n < 5 {
			t.Errorf("the histories held %d columns or rows with %s, want at least 5", n, what)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDirtyRowConcurrentReaders writes new versions of a few hot rows,
// through flushes and compactions, while readers get and scan those rows:
// every read of a hot row is of a dirty row, whose cursor reads the
// MemStore after the region lock is released. Run with -race. Every cell
// read is one the writer wrote, and no reader sees a column go back to an
// older version.
func TestDirtyRowConcurrentReaders(t *testing.T) {
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 2 << 10, CompactThresholdFiles: 3}, metrics.NewRegistry())
	valid := func(c *Cell) bool { return string(c.Value) == fmt.Sprintf("v%s.%d", c.Row, c.Timestamp) }
	hot := func(i int) []byte { return []byte(fmt.Sprintf("h%d", i%8)) }
	write := func(ts int64, rows ...[]byte) {
		t.Helper()
		var batch []Cell
		for _, row := range rows {
			for q := 0; q < 4; q++ {
				batch = append(batch, cell(string(row), "cf", fmt.Sprintf("q%d", q), ts, fmt.Sprintf("v%s.%d", row, ts)))
			}
		}
		if err := putCells(r, batch...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		write(1, []byte(fmt.Sprintf("r%02d", i)))
	}
	write(1, hot(0), hot(1), hot(2), hot(3), hot(4), hot(5), hot(6), hot(7))
	r.Get(hot(0), nil, 1, TimeRange{}) // builds the view the writes below dirty
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[string]int64{} // newest timestamp read per row and column
			fresh := func(c *Cell) bool {
				k := string(c.Row) + "/" + c.Qualifier
				if !valid(c) || c.Timestamp < seen[k] {
					return false
				}
				seen[k] = c.Timestamp
				return true
			}
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				row := hot(i)
				res := r.Get(row, nil, 1, TimeRange{})
				if len(res.Cells) != 4 {
					t.Errorf("get %q returned %d cells, want 4", row, len(res.Cells))
					return
				}
				for _, c := range res.Cells {
					if !bytes.Equal(c.Row, row) || !fresh(&c) {
						t.Errorf("get %q returned %v after timestamp %d", row, c.String(), seen[string(c.Row)+"/"+c.Qualifier])
						return
					}
				}
				if i%4 != 0 {
					continue
				}
				for _, res := range r.RunScan(&Scan{StartRow: []byte("h"), StopRow: []byte("i")}) {
					for _, c := range res.Cells {
						if !bytes.Equal(c.Row, res.Row) || !fresh(&c) {
							t.Errorf("scan row %q returned %v", res.Row, c.String())
							return
						}
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(1))
	for ts := int64(2); ts <= 1500; ts++ {
		k := rng.Intn(8)
		write(ts, hot(k), hot(k+1+rng.Intn(7)))
	}
	close(done)
	wg.Wait()
	if r.meter.Get(metrics.MemstoreFlushes) == 0 || r.meter.Get(metrics.Compactions) == 0 {
		t.Fatal("no flush or no compaction ran under the readers")
	}
	r.mu.RLock()
	viewOK := r.viewOK
	r.mu.RUnlock()
	if !viewOK {
		t.Fatal("the region lost its view, so no read was of a dirty row")
	}
	checkView(t, "final", r)
	checkScan(t, "final", r, &Scan{})
}

// TestDirtyPointReadAllocs: a dirty point read costs the same allocations
// whether the MemStore holds one version of its row or forty, and no more
// than the merge-then-resolve read made for one version.
func TestDirtyPointReadAllocs(t *testing.T) {
	// mergeReadAllocs is what a dirty point read of one MemStore version
	// allocated when it sorted, merged and resolved the row's cells.
	const mergeReadAllocs = 10
	allocs := func(versions int) float64 {
		r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 1 << 30}, metrics.NewRegistry())
		w := &ackedWriter{}
		row4 := func(row string, ts int64) []Cell {
			var cells []Cell
			for q := 0; q < 4; q++ {
				cells = append(cells, cell(row, "cf", fmt.Sprintf("q%d", q), ts, "value-0123456789"))
			}
			return cells
		}
		for i := 0; i < 100; i++ {
			if err := w.put(r, row4(fmt.Sprintf("row%03d", i), 1)...); err != nil {
				t.Fatal(err)
			}
		}
		r.Flush()
		r.Get([]byte("row000"), nil, 1, TimeRange{})
		for v := 0; v < versions; v++ {
			// Other rows' cells lie between the versions, as on a live
			// region.
			if err := w.put(r, append(row4("row050", int64(2+v)), row4(fmt.Sprintf("row%03d", v), int64(2+v))...)...); err != nil {
				t.Fatal(err)
			}
		}
		row := []byte("row050")
		return testing.AllocsPerRun(100, func() {
			if res := r.Get(row, nil, 1, TimeRange{}); len(res.Cells) != 4 || res.Cells[0].Timestamp != int64(1+versions) {
				t.Fatalf("get %q = %v", row, res.Cells)
			}
		})
	}
	one, forty := allocs(1), allocs(40)
	if one != forty {
		t.Errorf("a dirty point read made %.1f allocations with 1 MemStore version and %.1f with 40", one, forty)
	}
	if one > mergeReadAllocs {
		t.Errorf("a dirty point read of one version made %.1f allocations, the merge-then-resolve read %d", one, mergeReadAllocs)
	}
}

// BenchmarkRegionHotRowRead runs a region shaped like mixed-rw's: each
// iteration writes a batch of 8 four-column rows, 90% of them updates of
// Zipf(1.2)-hot rows and the rest new rows, into a region that flushes at
// 12 KiB and compacts at 4 files, then reads one of the batch's rows back,
// a dirty row. The batches come from a 512-batch ring generated up front,
// and the region is loaded and run once round the ring before the timer
// starts, so the ring's new rows exist by then and the region's size, and
// with it ns/op, does not grow with b.N.
func BenchmarkRegionHotRowRead(b *testing.B) {
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 12 << 10, CompactThresholdFiles: 4}, metrics.NewRegistry())
	w := &ackedWriter{}
	qualifiers := [4]string{"q0", "q1", "q2", "q3"}
	value := []byte("value-0123456789")
	ts := int64(0)
	var batch []Cell
	write := func(rows [][]byte) {
		ts++
		batch = batch[:0]
		for _, row := range rows {
			for _, q := range qualifiers {
				batch = append(batch, Cell{Row: row, Family: "cf", Qualifier: q, Timestamp: ts, Type: TypePut, Value: value})
			}
		}
		if err := w.put(r, batch...); err != nil {
			b.Fatal(err)
		}
	}
	const hotRows = 1300
	hot := make([][]byte, hotRows)
	for i := range hot {
		hot[i] = []byte(fmt.Sprintf("hot%06d", i))
	}
	for i := 0; i < hotRows; i += 8 {
		write(hot[i:min(i+8, hotRows)])
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, hotRows-1)
	rank := rng.Perm(hotRows) // Zipf rank -> hot row
	ring := make([][][]byte, 512)
	for i := range ring {
		seen := map[string]bool{}
		for len(ring[i]) < 8 {
			k := hot[rank[zipf.Uint64()]]
			if rng.Float64() < 0.1 {
				k = []byte(fmt.Sprintf("new%08d", rng.Int31()))
			}
			if !seen[string(k)] {
				seen[string(k)] = true
				ring[i] = append(ring[i], k)
			}
		}
	}
	step := func(i int) {
		rows := ring[i%len(ring)]
		write(rows)
		row := rows[i%8]
		if res := r.Get(row, nil, 1, TimeRange{}); len(res.Cells) != 4 || res.Cells[0].Timestamp != ts {
			b.Fatalf("get %q = %v", row, res.Cells)
		}
	}
	for i := range ring {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
