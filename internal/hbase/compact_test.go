package hbase

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// This file holds the tests of a major compaction's row-wise merge
// (compact): its output against the merge-then-resolve it replaces, the
// view index it carries, what it allocates, and its pooled scratch under
// concurrent compactions. CI runs the TestCompact tests under -race, many
// times over.

// TestCompactByRowMatchesMerge compacts seeded random store files at max
// versions 1 to 3 and compares the output with resolve(mergeSorted(...)).
// The files hold two families, three qualifiers and timestamps drawn from
// 1..4, so cells tie across files and tombstones fall above, at and below
// puts. Each row is held by one file only, by every file, or by a random
// few, and the empty row key is one of the rows. A file is marked resolved
// only when it is a resolve output. Some seeds hold only tombstones, or no
// file at all, so the output is empty. At one version, the index compact
// carries from a view of a resolved file must equal the output's
// from-scratch index.
func TestCompactByRowMatchesMerge(t *testing.T) {
	var ties, resolvedOnly, unresolvedOnly, everyFile, empty int
	for mv := 1; mv <= 3; mv++ {
		for seed := int64(1); seed <= 80; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(mv)))
			nfiles := rng.Intn(5)
			onlyTombs := seed%16 == 0
			d := newColDict()
			runs := make([][]Cell, nfiles)
			for _, row := range []string{"", "a", "b", "c", "d", "e", "f", "g"} {
				held := make([]bool, nfiles)
				switch rng.Intn(3) {
				case 0:
					if nfiles > 0 {
						held[rng.Intn(nfiles)] = true
					}
				case 1:
					for i := range held {
						held[i] = true
					}
				default:
					for i := range held {
						held[i] = rng.Intn(2) == 0
					}
				}
				for i := range held {
					for n := 1 + rng.Intn(6); held[i] && n > 0; n-- {
						c := cell(row, []string{"cf", "cg"}[rng.Intn(2)], fmt.Sprintf("q%d", rng.Intn(3)), int64(1+rng.Intn(4)), fmt.Sprintf("f%d-%d", i, rng.Int()))
						if onlyTombs || rng.Intn(4) == 0 {
							c.Type, c.Value = TypeDelete, nil
						}
						d.record(c.Family, c.Qualifier)
						runs[i] = append(runs[i], c)
					}
				}
			}
			files := make([]*storeFile, nfiles)
			for i := range runs {
				runs[i] = sortCells(runs[i])
				resolved := rng.Intn(2) == 0
				if resolved {
					runs[i] = resolve(runs[i], mv, TimeRange{}, nil, nil)
				}
				files[i] = newStoreFile(runs[i])
				files[i].resolved = resolved
			}
			ties += countTies(runs)
			for _, row := range []string{"", "a", "b", "c", "d", "e", "f", "g"} {
				var holders []int
				for i := range runs {
					if len(rowCells(runs[i], []byte(row))) > 0 {
						holders = append(holders, i)
					}
				}
				switch {
				case len(holders) == 1 && files[holders[0]].resolved:
					resolvedOnly++
				case len(holders) == 1:
					unresolvedOnly++
				case len(holders) > 1 && len(holders) == nfiles:
					everyFile++
				}
			}

			want := resolve(mergeSorted(runs...), mv, TimeRange{}, nil, nil)
			got := compact(files, mv, nil, d)
			what := fmt.Sprintf("maxVersions %d, seed %d, %d files", mv, seed, nfiles)
			if !sameCells(got, want) {
				t.Fatalf("%s: compact = %v, want %v", what, got, want)
			}
			if len(got) != cap(got) {
				t.Errorf("%s: compact output has %d cells and capacity %d", what, len(got), cap(got))
			}
			if len(got) == 0 {
				empty++
			}
			if mv != 1 {
				continue
			}
			// Carry the index of a view of each resolved file in turn (the
			// view is that file's own cells), and of no file.
			for from := -1; from < nfiles; from++ {
				var view rowRun
				if from >= 0 {
					if !files[from].resolved {
						continue
					}
					resolve(files[from].cells, 1, TimeRange{}, d, &view)
				}
				got := compact(files, 1, &view, d)
				var ix rowRun
				resolve(slices.Clone(got), 1, TimeRange{}, d, &ix)
				if !sameCells(got, want) || !sharesCells(view.cells, got) && len(got) > 0 || !slices.Equal(view.ids, ix.ids) || !slices.Equal(view.rows, ix.rows) {
					t.Fatalf("%s, view of file %d: index ids %v rows %v over %d cells, want ids %v rows %v", what, from, view.ids, view.rows, len(view.cells), ix.ids, ix.rows)
				}
			}
		}
	}
	t.Logf("%d cross-file ties, %d rows held by a resolved file alone, %d by an unresolved file alone, %d by every file, %d empty outputs", ties, resolvedOnly, unresolvedOnly, everyFile, empty)
	if ties == 0 || resolvedOnly == 0 || unresolvedOnly == 0 || everyFile == 0 || empty == 0 {
		t.Fatal("the seeds missed a case the test is meant to cover")
	}
	for mv := 1; mv <= 3; mv++ {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("region/maxVersions%d/seed%d", mv, seed), func(t *testing.T) { runCompactedView(t, mv, seed) })
		}
	}
}

// countTies counts the cells of runs that sort equal to a cell of an
// earlier run, ties the merge must break in run order.
func countTies(runs [][]Cell) int {
	n := 0
	for i := range runs {
		for j := range runs[i] {
			for _, earlier := range runs[:i] {
				for k := range earlier {
					if CompareCells(&runs[i][j], &earlier[k]) == 0 {
						n++
					}
				}
			}
		}
	}
	return n
}

// runCompactedView writes a seeded random mix of puts and deletes into a
// region that flushes at 1.5 KiB and compacts at 4 files, forces
// compactions, and reads to keep a view current. After every compaction
// with a current view, the view must equal the compacted file's
// from-scratch default read, defaultView(files[0].cells): cells, ids and
// row offsets.
func runCompactedView(t *testing.T, mv int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(mv), StoreConfig{FlushThresholdBytes: 1500, CompactThresholdFiles: 4}, metrics.NewRegistry())
	checked := 0
	check := func(step int) {
		r.mu.RLock()
		defer r.mu.RUnlock()
		if !r.viewOK || len(r.files) != 1 || !r.files[0].resolved {
			return
		}
		want := r.defaultView(r.files[0].cells, false)
		if !sameCells(r.view.cells, want.cells) || !slices.Equal(r.view.ids, want.ids) || !slices.Equal(r.view.rows, want.rows) {
			t.Fatalf("step %d: view after compaction = %v ids %v rows %v, want %v ids %v rows %v", step, r.view.cells, r.view.ids, r.view.rows, want.cells, want.ids, want.rows)
		}
		if mv == 1 && len(want.cells) > 0 && !sharesCells(r.view.cells, r.files[0].cells) {
			t.Fatalf("step %d: at one version the view does not share the compacted file's cells", step)
		}
		checked++
	}
	for step := 0; step < 600; step++ {
		before := r.meter.Get(metrics.Compactions)
		switch op := rng.Intn(100); {
		case op < 80:
			row := fmt.Sprintf("r%02d", rng.Intn(30))
			if rng.Intn(10) == 0 {
				row = "" // the empty row key
			}
			var batch []Cell
			for q := 0; q < 1+rng.Intn(3); q++ {
				c := cell(row, []string{"cf", "cg"}[rng.Intn(2)], fmt.Sprintf("q%d", rng.Intn(4)), int64(1+rng.Intn(20)), fmt.Sprintf("v%d", step))
				if rng.Intn(6) == 0 {
					c.Type, c.Value = TypeDelete, nil
				}
				batch = append(batch, c)
			}
			if err := putCells(r, batch...); err != nil {
				t.Fatal(err)
			}
		case op < 90:
			r.Get([]byte(fmt.Sprintf("r%02d", rng.Intn(30))), nil, 1, TimeRange{})
		default:
			r.Compact()
		}
		if r.meter.Get(metrics.Compactions) > before {
			check(step)
		}
	}
	if checked == 0 {
		t.Fatal("no compaction ran with a current view")
	}
}

// compactShape loads a region shaped like mixed-rw's before a compaction:
// one compacted file of 1,330 four-column rows whose cells a current view
// shares, then three 12 KiB flushes of 8-row batches, each row drawn by
// pick from those 1,330, and an empty MemStore.
func compactShape(tb testing.TB, pick func() int) *Region {
	const rows = 1330
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, viewDesc(1), StoreConfig{FlushThresholdBytes: 12 << 10, CompactThresholdFiles: 1 << 10}, metrics.NewRegistry())
	w := &ackedWriter{}
	ts := int64(0)
	write := func(keys []int) {
		ts++
		batch := make([]Cell, 0, 4*len(keys))
		for _, k := range keys {
			for q := 0; q < 4; q++ {
				batch = append(batch, Cell{Row: []byte(fmt.Sprintf("row%06d", k)), Family: "cf", Qualifier: fmt.Sprintf("q%d", q), Timestamp: ts, Type: TypePut, Value: []byte("value-0123456789")})
			}
		}
		if err := w.put(r, batch...); err != nil {
			tb.Fatal(err)
		}
	}
	for lo := 0; lo < rows; lo += 8 {
		keys := make([]int, 0, 8)
		for k := lo; k < min(lo+8, rows); k++ {
			keys = append(keys, k)
		}
		write(keys)
	}
	r.Compact()
	r.Get([]byte("row000000"), nil, 1, TimeRange{})
	for r.StoreFileCount() < 4 {
		keys := make([]int, 8)
		for i := range keys {
			keys[i] = pick()
		}
		write(keys)
	}
	if !r.viewOK || !sharesCells(r.view.cells, r.files[0].cells) || len(r.mem.cells) != 0 {
		tb.Fatal("the region is not in the shape compactShape promises")
	}
	return r
}

// recompact compacts r from the files and view it holds now, and returns a
// function that puts them back and compacts again, the same work each call.
func recompact(r *Region) func() {
	r.mu.Lock()
	files, view, dirty := r.files, r.view, r.dirty
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.files, r.view, r.viewOK, r.dirty = append(r.files[:0:0], files...), view, true, dirty
		r.compactLocked()
		r.mu.Unlock()
	}
}

// TestCompactAllocs holds a compaction's allocations to its output: a
// region of mixed-rw's shape compacts with the same number of allocations
// whether its three flushes update 10 rows or 300. The count includes one
// allocation of the test's own, the file list it puts back.
func TestCompactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so allocation counts vary")
	}
	allocs := func(touched int) float64 {
		rng := rand.New(rand.NewSource(1))
		r := compactShape(t, func() int { return rng.Intn(touched) * (1330 / touched) })
		return testing.AllocsPerRun(20, recompact(r))
	}
	few, many := allocs(10), allocs(300)
	t.Logf("a compaction makes %.1f allocations after updates to 10 rows, %.1f after updates to 300", few, many)
	if few != many {
		t.Errorf("a compaction made %.1f allocations after updates to 10 rows and %.1f after updates to 300", few, many)
	}
}

// TestCompactConcurrentRegions compacts two regions at once, as one server
// hosts them, while readers scan and get both. The compactions share the
// package's pooled scratch, so each must see only its own rows: every read
// must find each region's 200 rows with 4 cells each, every cell a value
// its writer wrote at that timestamp.
func TestCompactConcurrentRegions(t *testing.T) {
	regions := make([]*Region, 2)
	for i := range regions {
		regions[i] = NewRegion(RegionInfo{Table: "t", ID: fmt.Sprintf("t-%d", i)}, viewDesc(1), StoreConfig{FlushThresholdBytes: 4 << 10, CompactThresholdFiles: 3}, metrics.NewRegistry())
	}
	put := func(r *Region, ts int64, rows ...int) {
		var batch []Cell
		for _, k := range rows {
			for q := 0; q < 4; q++ {
				batch = append(batch, cell(fmt.Sprintf("%s-row%03d", r.info.ID, k), "cf", fmt.Sprintf("q%d", q), ts, fmt.Sprintf("%s@%d", r.info.ID, ts)))
			}
		}
		if err := putCells(r, batch...); err != nil {
			t.Error(err)
		}
	}
	for _, r := range regions {
		for k := 0; k < 200; k += 8 {
			put(r, 1, k, k+1, k+2, k+3, k+4, k+5, k+6, k+7)
		}
		r.Compact()
	}
	check := func(r *Region, res []Result) {
		if len(res) != 200 {
			t.Errorf("%s: scan found %d rows, want 200", r.info.ID, len(res))
			return
		}
		for _, row := range res {
			for _, c := range row.Cells {
				if string(c.Value) != fmt.Sprintf("%s@%d", r.info.ID, c.Timestamp) {
					t.Errorf("%s: row %q holds %v", r.info.ID, row.Row, c.String())
					return
				}
			}
			if len(row.Cells) != 4 {
				t.Errorf("%s: row %q holds %d cells, want 4", r.info.ID, row.Row, len(row.Cells))
			}
		}
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for i, r := range regions {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for ts := int64(2); ts < 400; ts++ {
				put(r, ts, rng.Intn(200), rng.Intn(200), 100+rng.Intn(10))
				if ts%50 == 0 {
					r.Compact()
				}
			}
		}()
		for range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					check(r, r.RunScan(&Scan{}))
					if res := r.Get([]byte(r.info.ID+"-row105"), nil, 1, TimeRange{}); len(res.Cells) != 4 {
						t.Errorf("%s: get found %v", r.info.ID, res.Cells)
					}
				}
			}()
		}
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, r := range regions {
		check(r, r.RunScan(&Scan{}))
	}
}
