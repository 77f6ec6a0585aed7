package hbase

// This file is the region side of "bind once, read by slot": a region's
// column dictionary, and a read's columns bound to it. The row visitor
// then tests projection membership and finds aggregate inputs by comparing
// small integer ids, never family/qualifier strings.

import (
	"slices"
	"sync"
)

// colID is a column's id in one region's dictionary.
type colID int32

// absent is the id of a column the region has never stored: it matches no
// cell, so a projection of it keeps nothing and an aggregate over it reads
// NULL.
const absent colID = -1

// colDict is a region's column dictionary: every (family, qualifier) the
// region has stored a cell in, numbered densely from 0 in order of first
// arrival. Every path a cell enters the region by — MemStore add (writes,
// WAL replay, replica apply and promotion replay), bulk load — records its
// column first, and split daughters, reopened regions and replicas start
// from a clone of their source's dictionary. So every cell the region
// holds has an id, and a column's id never changes.
//
// Only the holder of the region's write lock adds to it, and it may look
// columns up without mu; a column is added in place, in amortized O(1),
// under mu, so a table whose rows bring their own qualifiers grows it in
// linear time.
// Cursors read it after the region lock is released, so every other read
// holds mu shared. A reader sees the columns added since it opened its
// cursor too; they have ids no cell the cursor holds has.
type colDict struct {
	mu   sync.RWMutex
	ids  map[Column]colID
	cols []Column
}

func newColDict() *colDict {
	return &colDict{ids: make(map[Column]colID)}
}

// lookup returns the id of family:qualifier, or absent. The caller holds
// mu shared or the region's write lock.
func (d *colDict) lookup(family, qualifier string) colID {
	if id, ok := d.ids[Column{Family: family, Qualifier: qualifier}]; ok {
		return id
	}
	return absent
}

// record adds family:qualifier unless d already holds it. The caller holds
// the region's write lock.
func (d *colDict) record(family, qualifier string) {
	if d.lookup(family, qualifier) != absent {
		return
	}
	c := Column{Family: family, Qualifier: qualifier}
	d.mu.Lock()
	d.ids[c] = colID(len(d.cols))
	d.cols = append(d.cols, c)
	d.mu.Unlock()
}

// clone returns a copy of d for another region to grow on its own. The
// caller holds the region's lock.
func (d *colDict) clone() *colDict {
	nd := &colDict{ids: make(map[Column]colID, len(d.cols)), cols: slices.Clone(d.cols)}
	for id, c := range d.cols {
		nd.ids[c] = colID(id)
	}
	return nd
}

// size returns the number of columns in d. The caller holds mu shared or
// the region's lock.
func (d *colDict) size() int { return len(d.cols) }

// colSet is a set of column ids: ids below 64 in one word, the rest in
// words allocated only when a region has that many columns.
type colSet struct {
	lo uint64
	hi []uint64
}

// add adds id, which must not be absent.
func (s *colSet) add(id colID) {
	if id < 64 {
		s.lo |= 1 << id
		return
	}
	w := int(id/64) - 1
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= 1 << (id % 64)
}

func (s *colSet) has(id colID) bool {
	switch {
	case id < 0:
		return false
	case id < 64:
		return s.lo>>id&1 != 0
	}
	w := int(id/64) - 1
	return w < len(s.hi) && s.hi[w]>>(id%64)&1 != 0
}

// binding is a read's columns bound to one region's dictionary: the
// projection as a set of ids and, for a fold, each aggregate input's id
// (slots). A read rebinds it only when its cursor carries another
// dictionary, or more columns than it was bound against, so the rows of
// one op — every row of a bulk get — share one binding. Binding costs a
// map lookup per named column, and allocates nothing below 64 columns and
// 8 aggregates.
type binding struct {
	cols []Column // the projection as sent; empty keeps every column
	fold *aggFold // the aggregate sink, nil for a row read
	dict *colDict // the dictionary bound against; nil until the first read
	n    int      // the dictionary's size when bound
	keep colSet

	// The fold's slots: in slotBuf for up to 8 aggregates, else slotHeap.
	slotBuf  [8]colID
	slotHeap []colID
}

// slots returns the fold's slots: slots[k] is the id of fold.specs[k]'s
// column, absent when the region has never stored it.
func (b *binding) slots() []colID {
	if n := len(b.fold.specs); n <= len(b.slotBuf) {
		return b.slotBuf[:n]
	}
	if b.slotHeap == nil {
		b.slotHeap = make([]colID, len(b.fold.specs))
	}
	return b.slotHeap
}

// bind binds b to d, of which a cursor holds cells of the first n columns,
// unless it already is.
func (b *binding) bind(d *colDict, n int) {
	if b.dict == d && b.n >= n {
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	b.dict, b.n = d, d.size()
	b.keep = colSet{hi: b.keep.hi[:0]}
	for _, c := range b.cols {
		if c.Qualifier == "" {
			// A family-wide projection keeps every column of the family.
			for id := range d.cols {
				if d.cols[id].Family == c.Family {
					b.keep.add(colID(id))
				}
			}
			continue
		}
		if id := d.lookup(c.Family, c.Qualifier); id != absent {
			b.keep.add(id)
		}
	}
	if b.fold != nil {
		slots := b.slots()
		for k := range b.fold.specs {
			slots[k] = d.lookup(b.fold.specs[k].Family, b.fold.specs[k].Qualifier)
		}
	}
}

// keeps reports whether the projection keeps the cells of column id.
func (b *binding) keeps(id colID) bool { return len(b.cols) == 0 || b.keep.has(id) }

// projects reports whether the projection keeps any cell of a row whose
// cells have ids (all of them when it lists no column) — a row with
// nothing projected is not returned. The filter, as in HBase, sees the
// full row either way.
func (b *binding) projects(ids []colID) bool {
	if len(b.cols) == 0 {
		return len(ids) > 0
	}
	for _, id := range ids {
		if b.keep.has(id) {
			return true
		}
	}
	return false
}

// kept counts the cells of a row whose cells have ids that the projection
// keeps.
func (b *binding) kept(ids []colID) int {
	n := 0
	for _, id := range ids {
		if b.keeps(id) {
			n++
		}
	}
	return n
}

// result copies the projected cells of a visited row into a Result.
func (b *binding) result(row []Cell, ids []colID) Result {
	res := Result{Row: row[0].Row}
	if len(b.cols) == 0 {
		res.Cells = append(res.Cells, row...)
		return res
	}
	res.Cells = make([]Cell, 0, b.kept(ids))
	for i, id := range ids {
		if b.keep.has(id) {
			res.Cells = append(res.Cells, row[i])
		}
	}
	return res
}
