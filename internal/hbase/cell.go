// Package hbase implements the distributed, column-oriented key-value store
// SHC runs against: byte-array cells addressed by the four HBase coordinates
// (row key, column family, column qualifier, version), regions covering
// sorted row-key ranges, region servers hosting regions, a master doing
// assignment, and a client speaking Put/Get/Scan/BulkGet over the simulated
// RPC transport. Server-side filters, timestamp/version reads, MemStore
// flushes, store-file compaction, region splits, and WAL-based recovery are
// all modeled, because SHC's optimizations (partition pruning, predicate
// pushdown, locality) are only meaningful against that storage contract.
package hbase

import (
	"bytes"
	"fmt"
)

// CellType discriminates live cells from delete tombstones.
type CellType uint8

// Cell types.
const (
	TypePut CellType = iota + 1
	TypeDelete
)

// Cell is one versioned value at (row, family, qualifier, timestamp) —
// HBase's fundamental storage unit. Values are opaque byte arrays; typing
// lives entirely in the SHC catalog layer.
type Cell struct {
	Row       []byte
	Family    string
	Qualifier string
	Timestamp int64
	Type      CellType
	Value     []byte
}

// WireSize reports the bytes this cell occupies on the simulated wire.
func (c *Cell) WireSize() int {
	return len(c.Row) + len(c.Family) + len(c.Qualifier) + 8 + 1 + len(c.Value)
}

// String renders the cell for debugging.
func (c *Cell) String() string {
	t := "put"
	if c.Type == TypeDelete {
		t = "del"
	}
	return fmt.Sprintf("%q/%s:%s/%d/%s=%q", c.Row, c.Family, c.Qualifier, c.Timestamp, t, c.Value)
}

// CompareCells orders cells the way HBase store files do: by row, then
// family, then qualifier, then timestamp descending (newest first), with
// deletes sorting before puts at the same timestamp so tombstones are seen
// first during merges.
func CompareCells(a, b *Cell) int {
	if c := bytes.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if a.Family != b.Family {
		if a.Family < b.Family {
			return -1
		}
		return 1
	}
	if a.Qualifier != b.Qualifier {
		if a.Qualifier < b.Qualifier {
			return -1
		}
		return 1
	}
	switch {
	case a.Timestamp > b.Timestamp:
		return -1
	case a.Timestamp < b.Timestamp:
		return 1
	}
	// Tombstone first.
	switch {
	case a.Type == b.Type:
		return 0
	case a.Type == TypeDelete:
		return -1
	default:
		return 1
	}
}

// Result holds the cells returned for one row, ordered by (family,
// qualifier, timestamp desc).
type Result struct {
	Row   []byte
	Cells []Cell
}

// WireSize reports the bytes this result occupies on the simulated wire.
func (r *Result) WireSize() int {
	n := len(r.Row)
	for i := range r.Cells {
		n += r.Cells[i].WireSize()
	}
	return n
}

// Value returns the newest value of family:qualifier in the result and
// whether it is present.
func (r *Result) Value(family, qualifier string) ([]byte, bool) {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Family == family && c.Qualifier == qualifier {
			return c.Value, true
		}
	}
	return nil, false
}

// Empty reports whether the result carries no cells.
func (r *Result) Empty() bool { return len(r.Cells) == 0 }

// TimeRange bounds the versions a read considers: Min <= ts < Max.
// The zero value means "unbounded".
type TimeRange struct {
	Min, Max int64
}

// Unbounded reports whether the range admits every timestamp.
func (tr TimeRange) Unbounded() bool { return tr.Min == 0 && tr.Max == 0 }

// Contains reports whether ts falls inside the range.
func (tr TimeRange) Contains(ts int64) bool {
	if tr.Unbounded() {
		return true
	}
	max := tr.Max
	if max == 0 {
		max = int64(^uint64(0) >> 1)
	}
	return ts >= tr.Min && ts < max
}

// Column names one family:qualifier projection target.
type Column struct {
	Family    string
	Qualifier string
}

// String renders family:qualifier.
func (c Column) String() string { return c.Family + ":" + c.Qualifier }
