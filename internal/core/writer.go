package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/plan"
)

// EnsureTable creates the relation's HBase table if it does not exist,
// pre-split at splitKeys (which may be nil). Creating an existing table is
// not an error here so writers can be idempotent. It asks the master which
// tables exist, so the write paths call it only when a write has found the
// table missing (writeCreating).
func (r *HBaseRelation) EnsureTable(splitKeys [][]byte) error {
	tables, err := r.client.ListTables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		if t == r.cat.Table.Name {
			return nil
		}
	}
	return r.client.CreateTable(r.cat.TableDescriptor(r.opts.maxVersions()), splitKeys)
}

// encodeRows turns schema-ordered rows into HBase cells plus their encoded
// rowkeys — the shared front half of both write paths (Insert and BulkLoad).
func (r *HBaseRelation) encodeRows(rows []plan.Row) (cells []hbase.Cell, keys [][]byte, err error) {
	schema := r.cat.Schema()
	keyFields := r.cat.RowkeyFields()
	ts := r.opts.WriteTimestamp
	if ts == 0 {
		ts = 1
	}

	cells = make([]hbase.Cell, 0, len(rows)*(len(schema)-len(keyFields)))
	keys = make([][]byte, 0, len(rows))
	for _, row := range rows {
		if len(row) != len(schema) {
			return nil, nil, fmt.Errorf("core: row width %d does not match catalog schema %d", len(row), len(schema))
		}
		keyVals := make([]any, len(keyFields))
		for i := range keyFields {
			if row[i] == nil {
				return nil, nil, fmt.Errorf("core: rowkey dimension %q is NULL", keyFields[i])
			}
			keyVals[i] = row[i]
		}
		key, err := r.codec.encodeRowkey(keyVals)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, key)
		for i := len(keyFields); i < len(schema); i++ {
			if row[i] == nil {
				continue // NULLs are simply absent cells
			}
			spec := r.cat.Columns[schema[i].Name]
			enc, err := r.coder.Encode(row[i], schema[i].Type)
			if err != nil {
				return nil, nil, fmt.Errorf("core: encode %s: %w", schema[i].Name, err)
			}
			cells = append(cells, hbase.Cell{
				Row: key, Family: spec.CF, Qualifier: spec.Col,
				Timestamp: ts, Type: hbase.TypePut, Value: enc,
			})
		}
	}
	return cells, keys, nil
}

// Insert implements datasource.InsertableRelation: the DataFrame write path
// (paper Code 2). Rows follow the catalog schema order. When the table does
// not exist yet it is created pre-split into NewTableRegions regions, with
// split points sampled from the batch being written.
func (r *HBaseRelation) Insert(rows []plan.Row) error {
	cells, keys, err := r.encodeRows(rows)
	if err != nil {
		return err
	}
	return r.writeCreating(cells, keys, func() error { return r.client.Put(r.cat.Table.Name, cells) })
}

// BulkLoad implements datasource.BulkLoadableRelation: rows are encoded,
// sorted, and installed as store files directly in each region — no WAL
// append, no MemStore residency, no flush — the right path for loading a
// large initial dataset without pushing the cluster into write backpressure.
func (r *HBaseRelation) BulkLoad(rows []plan.Row) error {
	cells, keys, err := r.encodeRows(rows)
	if err != nil {
		return err
	}
	return r.writeCreating(cells, keys, func() error { return r.client.BulkLoad(r.cat.Table.Name, cells) })
}

// writeCreating runs write and, only when it finds the table missing
// (never created, or dropped by another client), creates the table pre-split
// at split points sampled from keys and writes again. A table that exists
// costs no master round trip. A batch with no cells writes nothing, so it
// creates the table up front: saving an empty frame still creates it.
func (r *HBaseRelation) writeCreating(cells []hbase.Cell, keys [][]byte, write func() error) error {
	if len(cells) > 0 {
		if err := write(); !errors.Is(err, hbase.ErrTableNotFound) {
			return err
		}
	}
	if err := r.EnsureTable(SampleSplitKeys(keys, r.opts.NewTableRegions)); err != nil {
		return err
	}
	return write()
}

// Delete writes tombstones for every data column of the given rowkey
// values (each a full set of key dimensions).
func (r *HBaseRelation) Delete(keyVals [][]any, ts int64) error {
	var cells []hbase.Cell
	schema := r.cat.Schema()
	for _, kv := range keyVals {
		key, err := r.codec.encodeRowkey(kv)
		if err != nil {
			return err
		}
		for i := len(r.cat.RowkeyFields()); i < len(schema); i++ {
			spec := r.cat.Columns[schema[i].Name]
			cells = append(cells, hbase.Cell{
				Row: key, Family: spec.CF, Qualifier: spec.Col,
				Timestamp: ts, Type: hbase.TypeDelete,
			})
		}
	}
	return r.client.Put(r.cat.Table.Name, cells)
}

// SampleSplitKeys picks regions-1 split points from the encoded keys by
// rank, producing balanced pre-split tables (the effect of
// HBaseTableCatalog.newTable -> "5" in the paper's Code 2).
func SampleSplitKeys(keys [][]byte, regions int) [][]byte {
	if regions <= 1 || len(keys) == 0 {
		return nil
	}
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	var out [][]byte
	for i := 1; i < regions; i++ {
		idx := i * len(sorted) / regions
		if idx >= len(sorted) {
			break
		}
		key := sorted[idx]
		if len(out) > 0 && bytes.Equal(out[len(out)-1], key) {
			continue // duplicate ranks in skewed data
		}
		out = append(out, append([]byte(nil), key...))
	}
	return out
}
