package hbase

import (
	"bytes"
	"sort"
)

// memStore is the in-memory write buffer of a region: cells in arrival
// order, appended in O(1) under the region's write lock. It is never
// sorted in place and caches no sorted copy: each reader, holding only the
// read lock, takes its own sorted copy of the rows it needs (sorted), so
// concurrent readers share no mutable state.
type memStore struct {
	cells []Cell
	bytes int
}

func (m *memStore) add(c Cell) {
	m.cells = append(m.cells, c)
	m.bytes += c.WireSize()
}

func (m *memStore) reset() {
	m.cells = nil
	m.bytes = 0
}

// sorted returns a fresh copy of the cells with startRow <= row < stopRow
// (nil bounds are open), in store-file order. Cells at equal coordinates
// keep their arrival order.
func (m *memStore) sorted(startRow, stopRow []byte) []Cell {
	var out []Cell
	if startRow == nil && stopRow == nil {
		out = append([]Cell(nil), m.cells...)
	} else {
		for i := range m.cells {
			row := m.cells[i].Row
			if bytes.Compare(row, startRow) >= 0 && (stopRow == nil || bytes.Compare(row, stopRow) < 0) {
				out = append(out, m.cells[i])
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return CompareCells(&out[i], &out[j]) < 0 })
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
	out := make([]Cell, 0, total)
	switch nonEmpty {
	case 0:
		return out
	case 1:
		return append(out, runs[last]...)
	}
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

// resolveVersions walks cells sorted in CompareCells order and produces the
// visible cells under HBase read semantics: delete tombstones mask every
// version at or below their timestamp for the same column, at most
// maxVersions live versions are returned per column (newest first), and
// only versions inside tr are visible. Tombstones themselves are never
// returned. keepAll=true (compaction) keeps tombstones and every surviving
// version instead.
func resolveVersions(sorted []Cell, maxVersions int, tr TimeRange) []Cell {
	if maxVersions <= 0 {
		maxVersions = 1
	}
	var out []Cell
	var colStart int
	for i := 0; i <= len(sorted); i++ {
		if i < len(sorted) && i > 0 && sameColumn(&sorted[i], &sorted[colStart]) {
			continue
		}
		if i > 0 {
			out = appendVisible(out, sorted[colStart:i], maxVersions, tr)
		}
		colStart = i
	}
	return out
}

func appendVisible(out []Cell, col []Cell, maxVersions int, tr TimeRange) []Cell {
	var deleteFloor int64 = -1 << 63
	hasFloor := false
	taken := 0
	for i := range col {
		c := &col[i]
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
		out = append(out, *c)
		taken++
	}
	return out
}

// compact merges cells from several sorted runs into one run with deletes
// applied and versions trimmed to maxVersions, dropping tombstones — a
// major compaction.
func compact(maxVersions int, runs ...[]Cell) []Cell {
	return resolveVersions(mergeSorted(runs...), maxVersions, TimeRange{})
}
