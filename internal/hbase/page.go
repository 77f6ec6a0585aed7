package hbase

import "slices"

// This file is the region's columnar page cutter: each row a read visits
// is cut into the page's CellBlock as it is visited (Region.cutRows), so
// no page is repacked after its rows are known.

// emptyValue is the block entry of a present cell whose value is empty:
// non-nil, so it reads apart from an absent cell's nil. The block's
// presence bitmap (CellBlock.WireSize) already pays for telling them
// apart.
var emptyValue = []byte{}

// blockCut is a columnar page being cut. Its row keys and its columns'
// values share one backing array, vals, in stripes of rowCap entries:
// stripe 0 holds the row keys, stripe j+1 column j's values, nil (absent)
// until a cell is cut there. vals has a stripe for each column cols has
// room for. A range op's first row past rowCap grows rowCap to the rows the
// op is projected to return (Region.cutRows); any later one doubles it, and
// a column past cap(cols) doubles that, each by one copy into a new array,
// so a page pads no absent cell and allocates few arrays.
type blockCut struct {
	on        bool
	hint      int // rows the first array holds
	vals      [][]byte
	rowCap, n int          // n: rows cut
	cols      []CellColumn // Values set by block
}

// columnar turns c on when every op of m reads one version of r's table,
// and sizes its first array for the rows m can return: at most its point
// rows when it has only point ops, and at most BatchLimit and 256, or 64
// without a BatchLimit.
func (c *blockCut) columnar(m *FusedRequest, r *Region) {
	rows := -m.Cursor.RowIdx
	for _, op := range m.Ops[m.Cursor.Op:] {
		if op.Scan != nil && r.versions(op.Scan.MaxVersions) > 1 {
			return
		}
		if rows += len(op.Rows); len(op.Rows) == 0 {
			rows = 1 << 30 // a range op: unbounded
		}
	}
	c.on, c.hint = true, max(min(rows, 64), 1)
	if m.BatchLimit > 0 {
		c.hint = max(min(rows, m.BatchLimit, 256), 1)
	}
}

// add cuts a visited row's projected cells into the block and returns how
// many it kept.
func (c *blockCut) add(row []Cell, ids []colID, b *binding) int {
	if c.vals == nil {
		c.grow(c.hint, b.kept(ids))
	} else if c.full() {
		c.grow(2*c.rowCap, cap(c.cols))
	}
	kept := 0
	c.vals[c.n] = row[0].Row
	for k, id := range ids {
		if !b.keeps(id) {
			continue
		}
		// Rows mostly hold the same columns: a row's k-th kept cell is
		// first looked for in the block's k-th column.
		cell, j := &row[k], kept
		if j >= len(c.cols) || c.cols[j].Family != cell.Family || c.cols[j].Qualifier != cell.Qualifier {
			j = c.column(cell)
		}
		v := cell.Value
		if v == nil {
			v = emptyValue
		}
		c.vals[(j+1)*c.rowCap+c.n] = v
		kept++
	}
	c.n++
	return kept
}

// full reports whether the block holds an array and every row of it is
// cut, so the next row grows it.
func (c *blockCut) full() bool { return c.vals != nil && c.n == c.rowCap }

// column returns the block column of cell's family and qualifier, adding
// it when the block has none.
func (c *blockCut) column(cell *Cell) int {
	j := slices.IndexFunc(c.cols, func(col CellColumn) bool { return col.Family == cell.Family && col.Qualifier == cell.Qualifier })
	if j < 0 {
		if j = len(c.cols); j == cap(c.cols) {
			c.grow(c.rowCap, max(2*j, 1))
		}
		c.cols = append(c.cols, CellColumn{Family: cell.Family, Qualifier: cell.Qualifier})
	}
	return j
}

// grow moves the block into an array of rows entries a stripe with room
// for cols columns.
func (c *blockCut) grow(rows, cols int) {
	vals := make([][]byte, rows*(cols+1))
	for j := 0; j <= len(c.cols); j++ {
		copy(vals[j*rows:(j+1)*rows], c.vals[j*c.rowCap:(j+1)*c.rowCap])
	}
	if cols > cap(c.cols) {
		c.cols = append(make([]CellColumn, 0, cols), c.cols...)
	}
	c.vals, c.rowCap = vals, rows
}

// block returns the page's CellBlock, nil when it cut no row.
func (c *blockCut) block() *CellBlock {
	if c.n == 0 {
		return nil
	}
	for j := range c.cols {
		c.cols[j].Values = c.vals[(j+1)*c.rowCap:][:c.n:c.n]
	}
	return &CellBlock{Rows: c.vals[:c.n:c.n], Cols: c.cols}
}
