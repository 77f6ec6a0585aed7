package hbase

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
)

// memStore is the in-memory write buffer of a region: cells in arrival
// order, appended in O(1) under the region's write lock. It is never
// sorted in place and caches no sorted copy: a flush or a read takes its
// own sorted copy of the rows it needs (sorted), and a point read finds its
// row by hashes, so concurrent readers share no mutable state. add only
// appends, and reset replaces the arrays, so the cells and hashes a reader
// saw under the lock are never written again.
type memStore struct {
	cells []Cell
	// hashes[i] is rowHash(cells[i].Row), computed once per run of
	// same-row cells: a point read compares these and reads a cell's row
	// only on a match.
	hashes []uint32
	bytes  int
}

func (m *memStore) add(c Cell) {
	if n := len(m.cells); n > 0 && bytes.Equal(m.cells[n-1].Row, c.Row) {
		m.hashes = append(m.hashes, m.hashes[n-1])
	} else {
		m.hashes = append(m.hashes, rowHash(c.Row))
	}
	m.cells = append(m.cells, c)
	m.bytes += c.WireSize()
}

func (m *memStore) reset() {
	m.cells, m.hashes = nil, nil
	m.bytes = 0
}

// rowSeed seeds rowHash. No read depends on the hash's values: a match is
// confirmed by comparing the rows.
var rowSeed = maphash.MakeSeed()

func rowHash(row []byte) uint32 { return uint32(maphash.Bytes(rowSeed, row)) }

// sorted returns a fresh copy of the cells of the rows k covers, in
// store-file order. Cells at equal coordinates keep their arrival order.
func (m *memStore) sorted(k keys) []Cell {
	if k.all() {
		return sortedCells(m.cells)
	}
	var buf [16]int32 // a point read's few indices stay on the stack
	idx := buf[:0]
	h := rowHash(k.start) // a point reads a cell's row only on a hash match
	for i := range m.cells {
		if k.point && m.hashes[i] == h && bytes.Equal(m.cells[i].Row, k.start) || !k.point && k.has(m.cells[i].Row) {
			idx = append(idx, int32(i))
		}
	}
	return gather(m.cells, idx)
}

// rows returns the distinct row keys the MemStore holds, sorted.
func (m *memStore) rows() [][]byte {
	if len(m.cells) == 0 {
		return nil
	}
	rows := make([][]byte, len(m.cells))
	for i := range m.cells {
		rows[i] = m.cells[i].Row
	}
	slices.SortFunc(rows, bytes.Compare)
	return slices.CompactFunc(rows, bytes.Equal)
}

// sortedCells returns cells in CompareCells order, a new slice. Cells at
// equal coordinates keep their order in cells, as a stable sort keeps it.
func sortedCells(cells []Cell) []Cell {
	idx := make([]int32, len(cells))
	for i := range idx {
		idx[i] = int32(i)
	}
	return gather(cells, idx)
}

// gather returns the cells idx names in CompareCells order, a new slice,
// breaking ties by index, so equal cells keep their order in cells. It
// sorts idx in place — indices, not 96-byte cells — and moves each cell
// once.
func gather(cells []Cell, idx []int32) []Cell {
	slices.SortFunc(idx, func(a, b int32) int {
		if c := CompareCells(&cells[a], &cells[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]Cell, len(idx))
	for i, j := range idx {
		out[i] = cells[j]
	}
	return out
}

// storeFile is an immutable run of cells sorted in CompareCells order —
// the simulator's HFile. Range reads binary-search it (clipRows).
type storeFile struct {
	cells []Cell
	size  int
}

func newStoreFile(sorted []Cell) *storeFile {
	size := 0
	for i := range sorted {
		size += sorted[i].WireSize()
	}
	return &storeFile{cells: sorted, size: size}
}

// keys is the row keys a read covers: the rows in [start, stop) (nil
// bounds are open), or, when point is set, the one row start.
type keys struct {
	start, stop []byte
	point       bool
}

// all reports whether k covers every row.
func (k keys) all() bool { return !k.point && k.start == nil && k.stop == nil }

// has reports whether k covers row.
func (k keys) has(row []byte) bool {
	if k.point {
		return bytes.Equal(row, k.start)
	}
	return bytes.Compare(row, k.start) >= 0 && (k.stop == nil || bytes.Compare(row, k.stop) < 0)
}

// clip subslices a row-sorted cell run to the rows k covers, without
// copying.
func (k keys) clip(cells []Cell) []Cell {
	if k.point {
		return rowCells(cells, k.start)
	}
	return clipRows(cells, k.start, k.stop)
}

// clipRows subslices a row-sorted cell run to startRow <= row < stopRow
// without copying (nil bounds are open).
func clipRows(cells []Cell, startRow, stopRow []byte) []Cell {
	lo := sort.Search(len(cells), func(i int) bool {
		return bytes.Compare(cells[i].Row, startRow) >= 0
	})
	hi := len(cells)
	if stopRow != nil {
		hi = lo + sort.Search(len(cells)-lo, func(i int) bool {
			return bytes.Compare(cells[lo+i].Row, stopRow) >= 0
		})
	}
	return cells[lo:hi]
}

// rowCells subslices a row-sorted cell run to the cells of one row.
func rowCells(cells []Cell, row []byte) []Cell {
	lo := sort.Search(len(cells), func(i int) bool {
		return bytes.Compare(cells[i].Row, row) >= 0
	})
	hi := lo
	for hi < len(cells) && bytes.Equal(cells[hi].Row, row) {
		hi++
	}
	return cells[lo:hi]
}

// mergeSorted merges runs, each sorted in CompareCells order, into one
// new sorted slice. Cells at equal coordinates come out in run order —
// the order a stable sort of the concatenated runs gives — so an earlier
// run wins a tie wherever version resolution keeps the first of equals.
// It is a k-way merge over a heap of run heads: O(n log k), no sort.
func mergeSorted(runs ...[]Cell) []Cell {
	total, nonEmpty, last := 0, 0, 0
	for i, r := range runs {
		if len(r) > 0 {
			total += len(r)
			nonEmpty++
			last = i
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return append([]Cell(nil), runs[last]...)
	}
	out := make([]Cell, 0, total)
	m := runMerger{runs: make([][]Cell, 0, nonEmpty)}
	for _, r := range runs {
		if len(r) > 0 {
			m.runs = append(m.runs, r)
		}
	}
	m.heap = make([]int, len(m.runs))
	for i := range m.heap {
		m.heap[i] = i
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	for len(m.heap) > 0 {
		top := m.heap[0]
		out = append(out, m.runs[top][0])
		if m.runs[top] = m.runs[top][1:]; len(m.runs[top]) == 0 {
			n := len(m.heap) - 1
			m.heap[0] = m.heap[n]
			m.heap = m.heap[:n]
		}
		m.down(0)
	}
	return out
}

// runMerger is mergeSorted's min-heap of run indices, keyed by each run's
// head cell and then by run index.
type runMerger struct {
	runs [][]Cell
	heap []int
}

func (m *runMerger) less(a, b int) bool {
	if c := CompareCells(&m.runs[a][0], &m.runs[b][0]); c != 0 {
		return c < 0
	}
	return a < b
}

func (m *runMerger) down(i int) {
	for {
		min := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(m.heap) && m.less(m.heap[child], m.heap[min]) {
				min = child
			}
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// rowRun is a row-sorted run of resolved cells indexed for the row
// visitor: ids[i] is the column id of cells[i] in the region's dictionary,
// and rows holds the offset of each row's first cell followed by
// len(cells), so row k is cells[rows[k]:rows[k+1]]. The zero rowRun has
// no rows.
type rowRun struct {
	cells []Cell
	ids   []colID
	rows  []int32
}

// clip returns the run cut to the rows k covers, sharing its cells: a
// binary search over the row starts.
func (v rowRun) clip(k keys) rowRun {
	n := len(v.rows) - 1
	if n <= 0 {
		return rowRun{}
	}
	first := func(key []byte) int {
		return sort.Search(n, func(i int) bool { return bytes.Compare(v.cells[v.rows[i]].Row, key) >= 0 })
	}
	var lo, hi int
	if k.point {
		lo = first(k.start)
		hi = lo
		if lo < n && bytes.Equal(v.cells[v.rows[lo]].Row, k.start) {
			hi++
		}
	} else {
		lo, hi = first(k.start), n
		if k.stop != nil {
			hi = first(k.stop)
		}
		hi = max(hi, lo)
	}
	v.rows = v.rows[lo : hi+1]
	return v
}

// resolve compacts sorted — cells in CompareCells order that the caller
// owns — in place to the cells visible under HBase read semantics and
// returns them: delete tombstones mask every version at or below their
// timestamp for the same column, at most maxVersions live versions are
// kept per column (newest first), and only versions inside tr are
// visible. Tombstones themselves are never kept. A cell is written only
// when an earlier one was dropped, so a run resolve keeps whole is only
// read: a shared run that is its own default read (isDefaultRead) may be
// resolved to the default read too. With ix non-nil, the same pass
// indexes the result into ix: it sets ix.cells to it, appends each kept
// cell's id in d to ix.ids and each kept row's first offset to ix.rows,
// and closes ix.rows with the kept length.
func resolve(sorted []Cell, maxVersions int, tr TimeRange, d *colDict, ix *rowRun) []Cell {
	if maxVersions <= 0 {
		maxVersions = 1
	}
	// sorted[:n] holds the kept cells: a column's kept cells never
	// outnumber its cells, so writes stay behind reads.
	n := 0
	// rowOpen says the current row has a kept cell (and so an entry in
	// ix.rows).
	rowOpen := false
	if ix != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	for i := 0; i < len(sorted); {
		row, family, qualifier := sorted[i].Row, sorted[i].Family, sorted[i].Qualifier
		j := i + 1
		for j < len(sorted) && sorted[j].Family == family && sorted[j].Qualifier == qualifier && bytes.Equal(sorted[j].Row, row) {
			j++
		}
		start := n
		n = keepVisible(sorted, n, i, j, maxVersions, tr)
		if ix != nil && n > start {
			if !rowOpen {
				ix.rows = append(ix.rows, int32(start))
				rowOpen = true
			}
			id := d.lookup(family, qualifier)
			for range n - start {
				ix.ids = append(ix.ids, id)
			}
		}
		if j == len(sorted) || !bytes.Equal(sorted[j].Row, row) {
			rowOpen = false
		}
		i = j
	}
	out := sorted[:n]
	if ix != nil {
		ix.cells, ix.rows = out, append(ix.rows, int32(n))
	}
	return out
}

// keepVisible moves the visible cells of one column, sorted[i:j], down to
// sorted[n:] and returns the new kept length. A cell already in its place
// is not written.
func keepVisible(sorted []Cell, n, i, j, maxVersions int, tr TimeRange) int {
	var deleteFloor int64 = -1 << 63
	hasFloor := false
	taken := 0
	for k := i; k < j; k++ {
		c := &sorted[k]
		if c.Type == TypeDelete {
			if !hasFloor || c.Timestamp > deleteFloor {
				deleteFloor = c.Timestamp
				hasFloor = true
			}
			continue
		}
		if hasFloor && c.Timestamp <= deleteFloor {
			continue
		}
		if !tr.Contains(c.Timestamp) {
			continue
		}
		if taken >= maxVersions {
			continue
		}
		if n != k {
			sorted[n] = *c
		}
		n++
		taken++
	}
	return n
}

// foldNewest folds the cells of one column-sorted run of a row into cols
// (newestCell). Only a column's first cell in the run can win, so the
// rest of its cells are skipped.
func foldNewest(cols, run []Cell, at int) ([]Cell, int) {
	for i := range run {
		if i == 0 || run[i].Qualifier != run[i-1].Qualifier || run[i].Family != run[i-1].Family {
			cols, at = newestCell(cols, &run[i], at+1)
		}
	}
	return cols, at
}

// newestCell folds c into cols, one cell per column of a row, sorted by
// column, and returns c's column's index. A column keeps the first of its
// cells in the order resolve reads them: the newest, a tombstone before a
// put of the same timestamp, and of equal cells the one folded first.
// Folded run by run in tie order, a column ends on a put exactly when
// resolve at one version keeps that put: the newest put that no tombstone
// at or above its timestamp masks. A row's cells come column by column, so
// c's column is looked for at next first (0 past the end), then searched.
func newestCell(cols []Cell, c *Cell, next int) ([]Cell, int) {
	i := next
	if i >= len(cols) {
		i = 0
	}
	if i == len(cols) || cols[i].Family != c.Family || cols[i].Qualifier != c.Qualifier {
		i = sort.Search(len(cols), func(i int) bool { return compareColumns(&cols[i], c) >= 0 })
		if i == len(cols) || compareColumns(&cols[i], c) != 0 {
			return slices.Insert(cols, i, *c), i
		}
	}
	if b := &cols[i]; c.Timestamp > b.Timestamp || c.Timestamp == b.Timestamp && c.Type == TypeDelete && b.Type != TypeDelete {
		*b = *c
	}
	return cols, i
}

// compareColumns orders cells by column, as CompareCells does within a row.
func compareColumns(a, b *Cell) int {
	return cmp.Or(strings.Compare(a.Family, b.Family), strings.Compare(a.Qualifier, b.Qualifier))
}

// isDefaultRead reports whether a run in CompareCells order is its own
// default read (maxVersions 1, unbounded time range): it holds no
// tombstone and one version per column, so resolve keeps every cell.
func isDefaultRead(cells []Cell) bool {
	for i := range cells {
		c := &cells[i]
		if c.Type == TypeDelete {
			return false
		}
		if i > 0 {
			p := &cells[i-1]
			if p.Family == c.Family && p.Qualifier == c.Qualifier && bytes.Equal(p.Row, c.Row) {
				return false
			}
		}
	}
	return true
}

// fit returns s for keeping: copied into an exact-size slice when its
// capacity exceeds its length by more than a tenth, else clipped with the
// spare capacity cleared, so a kept run pins no dropped cell.
func fit[T any](s []T) []T {
	if cap(s)-len(s) > len(s)/10 {
		return append(make([]T, 0, len(s)), s...)
	}
	clear(s[len(s):cap(s)])
	return s[:len(s):len(s)]
}

// compact merges cells from several sorted runs into one run with deletes
// applied and versions trimmed to maxVersions, dropping tombstones — a
// major compaction.
func compact(maxVersions int, runs ...[]Cell) []Cell {
	return fit(resolve(mergeSorted(runs...), maxVersions, TimeRange{}, nil, nil))
}
