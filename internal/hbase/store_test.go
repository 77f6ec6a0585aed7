package hbase

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func cell(row, fam, qual string, ts int64, val string) Cell {
	return Cell{Row: []byte(row), Family: fam, Qualifier: qual, Timestamp: ts, Type: TypePut, Value: []byte(val)}
}

func tomb(row, fam, qual string, ts int64) Cell {
	return Cell{Row: []byte(row), Family: fam, Qualifier: qual, Timestamp: ts, Type: TypeDelete}
}

// sameColumn reports whether two cells name the same (row, family,
// qualifier) coordinate, ignoring version.
func sameColumn(a, b *Cell) bool {
	return bytes.Equal(a.Row, b.Row) && a.Family == b.Family && a.Qualifier == b.Qualifier
}

// sortCells stably sorts cells in store order, in place.
func sortCells(cells []Cell) []Cell {
	sort.SliceStable(cells, func(i, j int) bool { return CompareCells(&cells[i], &cells[j]) < 0 })
	return cells
}

func TestCompareCellsOrdering(t *testing.T) {
	ordered := []Cell{
		tomb("a", "cf", "q", 5),
		cell("a", "cf", "q", 5, "x"),
		cell("a", "cf", "q", 3, "x"),
		cell("a", "cf", "r", 9, "x"),
		cell("a", "dg", "a", 9, "x"),
		cell("b", "cf", "q", 1, "x"),
	}
	for i := 0; i+1 < len(ordered); i++ {
		if CompareCells(&ordered[i], &ordered[i+1]) >= 0 {
			t.Errorf("cells %d and %d out of order: %v vs %v", i, i+1, ordered[i].String(), ordered[i+1].String())
		}
	}
	if CompareCells(&ordered[0], &ordered[0]) != 0 {
		t.Error("cell must equal itself")
	}
}

func TestMemStoreSnapshotSorted(t *testing.T) {
	var m memStore
	m.add(cell("b", "cf", "q", 1, "2"))
	m.add(cell("a", "cf", "q", 1, "1"))
	m.add(cell("a", "cf", "q", 9, "newer"))
	snap := m.sorted(keys{})
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return CompareCells(&snap[i], &snap[j]) < 0 }) {
		t.Error("snapshot must be sorted")
	}
	if string(snap[0].Value) != "newer" {
		t.Errorf("newest version of row a must sort first, got %s", snap[0].String())
	}
	if m.bytes == 0 {
		t.Error("memstore must track size")
	}
	m.reset()
	if m.bytes != 0 || len(m.cells) != 0 {
		t.Error("reset must clear the memstore")
	}
}

func TestStoreFileCellsInRange(t *testing.T) {
	cells := []Cell{
		cell("a", "cf", "q", 1, "1"),
		cell("c", "cf", "q", 1, "3"),
		cell("e", "cf", "q", 1, "5"),
	}
	f := newStoreFile(cells)
	got := clipRows(f.cells, []byte("b"), []byte("e"))
	if len(got) != 1 || string(got[0].Row) != "c" {
		t.Errorf("range [b,e) = %v", got)
	}
	if got := clipRows(f.cells, nil, nil); len(got) != 3 {
		t.Errorf("unbounded range returned %d cells", len(got))
	}
	if got := clipRows(f.cells, []byte("f"), nil); len(got) != 0 {
		t.Errorf("range beyond end returned %d cells", len(got))
	}
	if f.size == 0 {
		t.Error("store file must track size")
	}
}

func TestResolveVersionsNewestFirstAndLimit(t *testing.T) {
	sorted := sortCells([]Cell{
		cell("r", "cf", "q", 1, "v1"),
		cell("r", "cf", "q", 2, "v2"),
		cell("r", "cf", "q", 3, "v3"),
	})
	got := resolveVersions(sorted, 2, TimeRange{})
	if len(got) != 2 {
		t.Fatalf("want 2 versions, got %d", len(got))
	}
	if string(got[0].Value) != "v3" || string(got[1].Value) != "v2" {
		t.Errorf("versions = %v, %v", got[0].String(), got[1].String())
	}
}

func TestResolveVersionsTombstoneMasks(t *testing.T) {
	sorted := sortCells([]Cell{
		cell("r", "cf", "q", 1, "old"),
		cell("r", "cf", "q", 5, "mid"),
		tomb("r", "cf", "q", 5),
		cell("r", "cf", "q", 9, "new"),
	})
	got := resolveVersions(sorted, 10, TimeRange{})
	if len(got) != 1 || string(got[0].Value) != "new" {
		t.Errorf("tombstone at ts=5 must mask versions <= 5, got %v", got)
	}
}

func TestResolveVersionsTimeRange(t *testing.T) {
	sorted := sortCells([]Cell{
		cell("r", "cf", "q", 10, "a"),
		cell("r", "cf", "q", 20, "b"),
		cell("r", "cf", "q", 30, "c"),
	})
	got := resolveVersions(sorted, 10, TimeRange{Min: 15, Max: 30})
	if len(got) != 1 || string(got[0].Value) != "b" {
		t.Errorf("time range [15,30) = %v", got)
	}
	// Exact timestamp read: [ts, ts+1).
	got = resolveVersions(sorted, 10, TimeRange{Min: 10, Max: 11})
	if len(got) != 1 || string(got[0].Value) != "a" {
		t.Errorf("point read ts=10 = %v", got)
	}
}

func TestResolveVersionsMultipleColumns(t *testing.T) {
	sorted := sortCells([]Cell{
		cell("r", "cf", "a", 1, "va"),
		cell("r", "cf", "b", 1, "vb"),
		tomb("r", "cf", "b", 2),
		cell("r2", "cf", "a", 1, "r2a"),
	})
	got := resolveVersions(sorted, 1, TimeRange{})
	if len(got) != 2 {
		t.Fatalf("visible = %v", got)
	}
	if string(got[0].Row) != "r" || got[0].Qualifier != "a" || string(got[1].Row) != "r2" {
		t.Errorf("visible = %v, %v", got[0].String(), got[1].String())
	}
}

func TestCompactDropsTombstonesAndTrims(t *testing.T) {
	run1 := sortCells([]Cell{cell("r", "cf", "q", 1, "v1"), cell("r", "cf", "q", 2, "v2")})
	run2 := sortCells([]Cell{tomb("r", "cf", "q", 1), cell("r", "cf", "q", 3, "v3")})
	out := compact([]*storeFile{newStoreFile(run1), newStoreFile(run2)}, 1, nil, nil)
	if len(out) != 1 || string(out[0].Value) != "v3" {
		t.Errorf("compact = %v", out)
	}
	for _, c := range out {
		if c.Type == TypeDelete {
			t.Error("compaction must drop tombstones")
		}
	}
}

func TestResolveVersionsProperty(t *testing.T) {
	// Visible cells are always a subset of the input puts, sorted, with at
	// most maxVersions per column, and never include masked versions.
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(func(seed int64, maxV uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		var cells []Cell
		for i := 0; i < n; i++ {
			row := fmt.Sprintf("r%d", rng.Intn(3))
			qual := fmt.Sprintf("q%d", rng.Intn(3))
			ts := int64(rng.Intn(10))
			if rng.Intn(4) == 0 {
				cells = append(cells, tomb(row, "cf", qual, ts))
			} else {
				cells = append(cells, cell(row, "cf", qual, ts, fmt.Sprintf("v%d", i)))
			}
		}
		mv := int(maxV%5) + 1
		sorted := sortCells(cells)
		got := resolveVersions(sorted, mv, TimeRange{})
		if !sort.SliceIsSorted(got, func(i, j int) bool { return CompareCells(&got[i], &got[j]) < 0 }) {
			return false
		}
		counts := make(map[string]int)
		for i := range got {
			c := &got[i]
			if c.Type == TypeDelete {
				return false
			}
			key := string(c.Row) + "/" + c.Qualifier
			counts[key]++
			if counts[key] > mv {
				return false
			}
			// No tombstone in the input may mask this cell.
			for j := range cells {
				d := &cells[j]
				if d.Type == TypeDelete && sameColumn(c, d) && c.Timestamp <= d.Timestamp {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimeRangeContains(t *testing.T) {
	if !(TimeRange{}).Contains(0) || !(TimeRange{}).Contains(1<<60) {
		t.Error("unbounded range must contain everything")
	}
	tr := TimeRange{Min: 5, Max: 10}
	for ts, want := range map[int64]bool{4: false, 5: true, 9: true, 10: false} {
		if tr.Contains(ts) != want {
			t.Errorf("Contains(%d) = %v", ts, !want)
		}
	}
	open := TimeRange{Min: 5}
	if !open.Contains(1 << 60) {
		t.Error("Max=0 must mean unbounded above")
	}
}

func TestResultValue(t *testing.T) {
	r := Result{Row: []byte("r"), Cells: []Cell{cell("r", "cf", "q", 2, "new"), cell("r", "cf", "q", 1, "old")}}
	v, ok := r.Value("cf", "q")
	if !ok || string(v) != "new" {
		t.Errorf("Value = %q, %v", v, ok)
	}
	if _, ok := r.Value("cf", "missing"); ok {
		t.Error("missing column must not be found")
	}
	if r.Empty() {
		t.Error("result with cells is not empty")
	}
}

func TestFilters(t *testing.T) {
	row := Result{Row: []byte("user-5"), Cells: []Cell{cell("user-5", "cf", "age", 1, "\x21")}}
	eq := &SingleColumnValueFilter{Family: "cf", Qualifier: "age", Op: CmpEqual, Value: []byte("\x21")}
	if !eq.Match(&row) {
		t.Error("equality filter must match")
	}
	gt := &SingleColumnValueFilter{Family: "cf", Qualifier: "age", Op: CmpGreater, Value: []byte("\x30")}
	if gt.Match(&row) {
		t.Error("greater filter must not match")
	}
	missing := &SingleColumnValueFilter{Family: "cf", Qualifier: "nope", Op: CmpEqual, Value: []byte("x")}
	if missing.Match(&row) {
		t.Error("filter on missing column must drop the row")
	}
	prefix := &RowPrefixFilter{Prefix: []byte("user-")}
	if !prefix.Match(&row) {
		t.Error("prefix filter must match")
	}
	and := &FilterList{Op: MustPassAll, Filters: []Filter{eq, prefix}}
	if !and.Match(&row) {
		t.Error("AND list must match")
	}
	or := &FilterList{Op: MustPassOne, Filters: []Filter{gt, prefix}}
	if !or.Match(&row) {
		t.Error("OR list must match")
	}
	andFail := &FilterList{Op: MustPassAll, Filters: []Filter{eq, gt}}
	if andFail.Match(&row) {
		t.Error("AND list with failing child must not match")
	}
	if and.WireSize() <= 0 || eq.String() == "" || or.String() == "" || prefix.String() == "" {
		t.Error("filters must report sizes and strings")
	}
}

func TestCompareOpEval(t *testing.T) {
	cases := []struct {
		op   CompareOp
		cmp  int
		want bool
	}{
		{CmpEqual, 0, true}, {CmpEqual, 1, false},
		{CmpNotEqual, 1, true}, {CmpNotEqual, 0, false},
		{CmpLess, -1, true}, {CmpLess, 0, false},
		{CmpLessOrEqual, 0, true}, {CmpLessOrEqual, 1, false},
		{CmpGreater, 1, true}, {CmpGreater, 0, false},
		{CmpGreaterOrEqual, 0, true}, {CmpGreaterOrEqual, -1, false},
	}
	for _, c := range cases {
		if got := c.op.eval(c.cmp); got != c.want {
			t.Errorf("%s.eval(%d) = %v", c.op, c.cmp, got)
		}
	}
}

func TestMergeSortedStability(t *testing.T) {
	a := []Cell{cell("a", "cf", "q", 1, "x")}
	b := []Cell{cell("b", "cf", "q", 1, "y")}
	got := mergeSorted(b, a)
	if !bytes.Equal(got[0].Row, []byte("a")) {
		t.Error("mergeSorted must sort across runs")
	}
}

// TestMergeSortedMatchesStableSort checks the k-way merge against the
// concatenate-and-stable-sort it replaced, on random sorted runs full of
// cells at equal coordinates (told apart by value, so run order shows).
func TestMergeSortedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		runs := make([][]Cell, rng.Intn(7))
		var concat []Cell
		for k := range runs {
			for i := rng.Intn(30); i > 0; i-- {
				c := cell(fmt.Sprintf("r%d", rng.Intn(4)), "cf", fmt.Sprintf("q%d", rng.Intn(2)), int64(rng.Intn(3)), fmt.Sprintf("run%d-%d", k, i))
				if rng.Intn(4) == 0 {
					c.Type = TypeDelete
				}
				runs[k] = append(runs[k], c)
			}
			sortCells(runs[k])
			concat = append(concat, runs[k]...)
		}
		want := sortCells(concat)
		got := mergeSorted(runs...)
		if len(got) != len(want) {
			t.Fatalf("iter %d: merged %d cells, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("iter %d: cell %d = %s, stable sort gives %s", iter, i, got[i].String(), want[i].String())
			}
		}
	}
}
