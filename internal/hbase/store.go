package hbase

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
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
// the simulator's HFile. Range reads binary-search it (clipRows). A
// resolved file, which only a compaction writes, is a fixed point of
// resolve at the table's max versions: it holds no tombstone and at most
// that many versions of a column, so the next compaction copies the rows
// it alone holds as they stand.
type storeFile struct {
	cells    []Cell
	size     int
	resolved bool
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
// resolved to the default read too. With ix non-nil, the result is then
// indexed into ix: ix.cells is set to it, each kept cell's id in d is
// appended to ix.ids and each kept row's first offset to ix.rows, and
// ix.rows is closed with the kept length.
func resolve(sorted []Cell, maxVersions int, tr TimeRange, d *colDict, ix *rowRun) []Cell {
	if maxVersions <= 0 {
		maxVersions = 1
	}
	// sorted[:n] holds the kept cells: a column's kept cells never
	// outnumber its cells, so writes stay behind reads.
	n := 0
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sameQualifier(&sorted[j], &sorted[i]) && bytes.Equal(sorted[j].Row, sorted[i].Row) {
			j++
		}
		n = keepVisible(sorted, n, i, j, maxVersions, tr)
		i = j
	}
	out := sorted[:n]
	if ix != nil {
		d.mu.RLock()
		ix.index(out, 0, d)
		d.mu.RUnlock()
		ix.cells, ix.rows = out, append(ix.rows, int32(n))
	}
	return out
}

// index extends v, an index of cells[:lo], over cells[lo:], whole rows of
// a resolved run: it appends each cell's column id in d to v.ids and each
// row's first offset to v.rows. A cell of the same column as the previous
// row's cell at the same position takes that cell's id: rows repeat their
// columns in order, so few cells look theirs up in d's map. The caller
// holds d.mu shared or the region's write lock.
func (v *rowRun) index(cells []Cell, lo int, d *colDict) {
	prev, cur := -1, -1 // the first cells of the previous row and of this one
	if n := len(v.rows); n > 0 {
		cur = int(v.rows[n-1])
	}
	for i := lo; i < len(cells); i++ {
		c := &cells[i]
		if i == lo || !bytes.Equal(c.Row, cells[i-1].Row) {
			prev, cur = cur, i
			v.rows = append(v.rows, int32(i))
		}
		if p := prev + i - cur; prev >= 0 && p < cur && sameQualifier(&cells[p], c) {
			v.ids = append(v.ids, v.ids[p])
		} else {
			v.ids = append(v.ids, d.lookup(c.Family, c.Qualifier))
		}
	}
}

// sameQualifier reports whether a and b are cells of the same column
// (family and qualifier), whatever their rows.
func sameQualifier(a, b *Cell) bool { return a.Qualifier == b.Qualifier && a.Family == b.Family }

// keepVisible moves the visible cells of one column, sorted[i:j], down to
// sorted[n:] and returns the new kept length: the newest maxVersions puts
// inside tr above the column's first tombstone, which, newest first and
// ahead of a put of its timestamp, masks every cell after it. A cell
// already in its place is not written.
func keepVisible(sorted []Cell, n, i, j, maxVersions int, tr TimeRange) int {
	for k, taken := i, 0; k < j && sorted[k].Type != TypeDelete && taken < maxVersions; k++ {
		if !tr.Contains(sorted[k].Timestamp) {
			continue
		}
		if n != k {
			sorted[n] = sorted[k]
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
		if c := &cells[i]; c.Type == TypeDelete || i > 0 && sameQualifier(&cells[i-1], c) && bytes.Equal(cells[i-1].Row, c.Row) {
			return false
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

// sharesCells reports whether a and b are the same cells in memory.
func sharesCells(a, b []Cell) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// compactScratch is a compaction's working memory, pooled so that the
// compactions of every region reuse it: the rows it resolves, the plan of
// its output, each input file's read offset, and the output's row index.
type compactScratch struct {
	cells []Cell
	segs  []compactSeg
	pos   []int
	rows  []int32
}

// compactSeg is a stretch of a compaction's output: cells[lo:hi] of input
// file file, or of the scratch's resolved rows when file is -1.
type compactSeg struct{ file, lo, hi int }

var compactScratchPool = sync.Pool{New: func() any { return new(compactScratch) }}

// compact merges files into one new run resolved at maxVersions — a major
// compaction — equal to resolve(mergeSorted(cells of files...)). It walks
// the files by head row. The stretch of rows one file alone holds, up to
// the next file's head row, is copied as it stands from a resolved file and
// resolved alone from any other. A row several files hold has just its
// cells merged, of equal cells the earlier file's first, and resolved. The
// output is allocated once, at its size.
//
// With view non-nil the table keeps one version, so the output is its own
// default read, and compact replaces *view with the output's index. The
// stretches it copies from the file whose cells *view indexes take their
// ids and row offsets from *view; only other rows look their columns up in
// d. The caller holds the region's write lock.
func compact(files []*storeFile, maxVersions int, view *rowRun, d *colDict) []Cell {
	s := compactScratchPool.Get().(*compactScratch)
	pos, resolved, segs, total := append(s.pos[:0], make([]int, len(files))...), s.cells[:0], s.segs[:0], 0
	row := func(i int) []byte { return files[i].cells[pos[i]].Row }
	for {
		// head is the file with the least head row, next the file with the
		// next least, which may be the same row.
		head, next := -1, -1
		for i, f := range files {
			switch {
			case pos[i] == len(f.cells):
			case head < 0 || bytes.Compare(row(i), row(head)) < 0:
				head, next = i, head
			case next < 0 || bytes.Compare(row(i), row(next)) < 0:
				next = i
			}
		}
		if head < 0 {
			break
		}
		start := len(resolved)
		if next < 0 || !bytes.Equal(row(head), row(next)) {
			run := files[head].cells[pos[head]:]
			if next >= 0 {
				run = run[:gallop(run, row(next))]
			}
			pos[head] += len(run)
			if files[head].resolved {
				segs = append(segs, compactSeg{head, pos[head] - len(run), pos[head]})
				total += len(run)
				continue
			}
			resolved = append(resolved, run...)
		} else {
			// Each time the least head cell of the row, of equal cells the
			// earlier file's.
			for key := row(head); ; {
				next := -1
				for i, f := range files {
					if pos[i] < len(f.cells) && bytes.Equal(row(i), key) && (next < 0 || CompareCells(&f.cells[pos[i]], &files[next].cells[pos[next]]) < 0) {
						next = i
					}
				}
				if next < 0 {
					break
				}
				resolved = append(resolved, files[next].cells[pos[next]])
				pos[next]++
			}
		}
		resolved = resolved[:start+len(resolve(resolved[start:], maxVersions, TimeRange{}, nil, nil))]
		total += len(resolved) - start
		segs = append(segs, compactSeg{-1, start, len(resolved)})
	}

	out := make([]Cell, total)
	var old rowRun
	from := -1 // the file whose cells old indexes
	if view != nil {
		old, *view = *view, rowRun{cells: out, ids: make([]colID, 0, total), rows: s.rows[:0]}
		from = slices.IndexFunc(files, func(f *storeFile) bool { return sharesCells(f.cells, old.cells) })
	}
	at, r := 0, 0 // r: the first of old's row offsets not yet passed
	for _, g := range segs {
		src := resolved
		if g.file >= 0 {
			src = files[g.file].cells
		}
		src = src[g.lo:g.hi]
		copy(out[at:], src)
		switch {
		case view == nil:
		case g.file >= 0 && g.file == from:
			view.ids = append(view.ids, old.ids[g.lo:g.hi]...)
			// old.rows ends with len(old.cells), at or past g.hi.
			for ; int(old.rows[r]) < g.hi; r++ {
				if int(old.rows[r]) >= g.lo {
					view.rows = append(view.rows, old.rows[r]-int32(g.lo)+int32(at))
				}
			}
		default:
			view.index(out[:at+len(src)], at, d)
		}
		at += len(src)
	}
	if view != nil {
		s.rows = append(view.rows, int32(total))
		view.rows = append(make([]int32, 0, len(s.rows)), s.rows...)
	}
	clear(resolved)
	s.pos, s.cells, s.segs = pos, resolved[:0], segs[:0]
	compactScratchPool.Put(s)
	return out
}

// gallop returns how many leading cells of run, whose first cell sorts
// below bound, have rows below bound: doubling steps from the front, then
// bisection, so a short stretch costs few compares.
func gallop(run []Cell, bound []byte) int {
	lo, step := 0, 1 // run[lo].Row < bound
	for lo+step < len(run) && bytes.Compare(run[lo+step].Row, bound) < 0 {
		lo += step
		step *= 2
	}
	n := min(step, len(run)-lo) - 1 // run[lo+n+1], if any, has a row at or above bound
	return lo + 1 + sort.Search(n, func(i int) bool { return bytes.Compare(run[lo+1+i].Row, bound) >= 0 })
}
