package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/shc-go/shc/internal/bytesutil"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// This file is the decode-to-vector path of the HBase relation: fused pages
// arrive column-major (CellBlock) when the server can pack them, and decode
// straight into typed vectors. Columns the consumer flags eager decode up
// front with per-type fast paths; everything else lands as raw bytes in
// lazy vectors and decodes only for the positions that survive filtering —
// late materialization over the paged scan RPC, with the same pager,
// cursor, and failover machinery as the row path.

// vecColSpec is the per-column decode plan for one partition scan.
type vecColSpec struct {
	name   string
	typ    plan.DataType
	keyDim int    // rowkey dimension; -1 for cell columns
	cf, q  string // HBase coordinates for cell columns
	eager  bool
}

// batchPool recycles column batches (and their vector storage) across
// partitions and queries — the fused pager otherwise allocates a fresh
// batch worth of vectors per partition per query.
var batchPool sync.Pool

// getBatch returns a pooled batch reconfigured for specs: vector storage is
// reused when the column's kind matches, rebuilt otherwise (eager vs lazy
// splits differ between queries).
func getBatch(schema plan.Schema, specs []vecColSpec, lazyDec []func([]byte) (any, error)) *plan.Batch {
	b, _ := batchPool.Get().(*plan.Batch)
	if b == nil || len(b.Cols) != len(schema) {
		b = &plan.Batch{Cols: make([]*plan.Vector, len(schema))}
	}
	b.Schema = schema
	for j := range specs {
		want := plan.KindLazy
		if specs[j].eager {
			want = plan.KindOf(schema[j].Type)
		}
		c := b.Cols[j]
		if c == nil || c.Kind != want || c.Typ != schema[j].Type {
			if specs[j].eager {
				c = plan.NewVector(schema[j].Type)
			} else {
				c = plan.NewLazyVector(schema[j].Type, nil)
			}
			b.Cols[j] = c
		}
		c.Decode = lazyDec[j]
	}
	b.Reset()
	return b
}

func putBatch(b *plan.Batch) {
	for _, c := range b.Cols {
		c.Decode = nil // don't retain per-query closures
	}
	batchPool.Put(b)
}

// ComputeVectors implements datasource.VectorScan: the same paged fused
// read as ComputeBatches — double-buffered prefetch, the LimitHint cap,
// cursor-exact failover — but pages are requested column-major and decoded
// into one reused column batch instead of row slices.
func (p *hbasePartition) ComputeVectors(ctx context.Context, opts datasource.BatchOptions, yield func(*plan.Batch) error) error {
	ctx = bridgeConsistency(ctx)
	dec := p.scan.decodePlan(opts.EagerColumns)
	specs := dec.specs
	batch := getBatch(dec.schema, specs, dec.lazyDec)
	defer putBatch(batch)

	r := p.scan.rel
	next := p.batchPages(ctx, opts, true)
	meter := metrics.Scoped(ctx, r.meter)
	var keyScratch []any
	for {
		resp, err := next()
		if err != nil || resp == nil {
			return err
		}
		meter.Inc(metrics.FusedPages)
		n := len(resp.Results)
		if resp.Block != nil {
			n = resp.Block.Len()
			meter.Inc(metrics.ColumnarPages)
		}
		if n == 0 {
			continue
		}
		batch.Reset()
		if resp.Block != nil {
			err = r.decodeBlock(batch, specs, resp.Block, n, &keyScratch)
		} else {
			err = r.decodeResultsToBatch(batch, specs, resp.Results, &keyScratch)
		}
		if err != nil {
			return err
		}
		batch.SetLen(n)
		if err := yield(batch); err != nil {
			if errors.Is(err, datasource.ErrStopBatches) {
				return nil
			}
			return err
		}
	}
}

// vecSpecs builds the per-column decode plan: HBase coordinates, rowkey
// dimensions, and the eager/lazy split. eagerCols nil marks every column
// eager.
func (r *HBaseRelation) vecSpecs(required []string, eagerCols []int) ([]vecColSpec, plan.Schema, []func([]byte) (any, error)) {
	eager := make([]bool, len(required))
	if eagerCols == nil {
		for i := range eager {
			eager[i] = true
		}
	} else {
		for _, i := range eagerCols {
			if i >= 0 && i < len(eager) {
				eager[i] = true
			}
		}
	}
	specs := make([]vecColSpec, len(required))
	schema := make(plan.Schema, len(required))
	lazyDec := make([]func([]byte) (any, error), len(required))
	for i, col := range required {
		t := r.cat.fieldType(col)
		schema[i] = plan.Field{Name: col, Type: t}
		specs[i] = vecColSpec{name: col, typ: t, keyDim: -1, eager: eager[i]}
		if dim, ok := r.cat.IsRowkeyField(col); ok {
			specs[i].keyDim = dim
			if !eager[i] {
				dim := dim
				lazyDec[i] = func(raw []byte) (any, error) {
					vals, err := r.codec.decodeRowkey(raw)
					if err != nil {
						return nil, err
					}
					return vals[dim], nil
				}
			}
			continue
		}
		// PrepareScan validated the projection, so Column cannot fail here.
		spec, _ := r.cat.Column(col)
		specs[i].cf, specs[i].q = spec.CF, spec.Col
		if !eager[i] {
			col, t := col, t
			lazyDec[i] = func(raw []byte) (any, error) {
				v, err := r.coder.Decode(raw, t)
				if err != nil {
					return nil, fmt.Errorf("core: decode %s: %w", col, err)
				}
				return v, nil
			}
		}
	}
	return specs, schema, lazyDec
}

// decodeBlock fills batch from a column-major page: n rows of every spec'd
// column, eager columns through the typed fast path, lazy columns as raw
// bytes (absent cells become nulls either way).
func (r *HBaseRelation) decodeBlock(batch *plan.Batch, specs []vecColSpec, block *hbase.CellBlock, n int, keyScratch *[]any) error {
	if err := r.decodeKeys(batch, specs, block.Rows[:n], keyScratch); err != nil {
		return err
	}
	for j := range specs {
		s := &specs[j]
		if s.keyDim >= 0 {
			continue
		}
		vec := batch.Cols[j]
		var vals [][]byte
		for c := range block.Cols {
			if block.Cols[c].Family == s.cf && block.Cols[c].Qualifier == s.q {
				vals = block.Cols[c].Values
				break
			}
		}
		if vals == nil {
			// No row in this page has the column.
			for i := 0; i < n; i++ {
				vec.AppendNull()
			}
			continue
		}
		if !s.eager {
			for i := 0; i < n; i++ {
				if vals[i] == nil {
					vec.AppendNull()
				} else {
					vec.AppendRaw(vals[i])
				}
			}
			continue
		}
		if err := r.appendDecoded(vec, vals[:n], s); err != nil {
			return err
		}
	}
	return nil
}

// decodeResultsToBatch fills batch from a row-major page — the fallback
// when the server could not pack the page (multi-version rows, empty
// values).
func (r *HBaseRelation) decodeResultsToBatch(batch *plan.Batch, specs []vecColSpec, results []hbase.Result, keyScratch *[]any) error {
	rows := make([][]byte, len(results))
	for i := range results {
		rows[i] = results[i].Row
	}
	if err := r.decodeKeys(batch, specs, rows, keyScratch); err != nil {
		return err
	}
	var vals [][]byte
	for j := range specs {
		s := &specs[j]
		if s.keyDim >= 0 {
			continue
		}
		vals = vals[:0]
		for i := range results {
			raw, ok := results[i].Value(s.cf, s.q)
			if !ok {
				raw = nil
			}
			vals = append(vals, raw)
		}
		vec := batch.Cols[j]
		if !s.eager {
			for _, raw := range vals {
				if raw == nil {
					vec.AppendNull()
				} else {
					vec.AppendRaw(raw)
				}
			}
			continue
		}
		if err := r.appendDecoded(vec, vals, s); err != nil {
			return err
		}
	}
	return nil
}

// decodeKeys fills the rowkey-backed columns: eager dims decode each key
// once per row, lazy dims store the raw key.
func (r *HBaseRelation) decodeKeys(batch *plan.Batch, specs []vecColSpec, rows [][]byte, keyScratch *[]any) error {
	var eagerKeys []int
	for j := range specs {
		if specs[j].keyDim < 0 {
			continue
		}
		if specs[j].eager {
			eagerKeys = append(eagerKeys, j)
		} else {
			vec := batch.Cols[j]
			for _, row := range rows {
				vec.AppendRaw(row)
			}
		}
	}
	if len(eagerKeys) == 0 {
		return nil
	}
	for _, row := range rows {
		vals, err := r.codec.decodeRowkeyInto(*keyScratch, row)
		if err != nil {
			return err
		}
		*keyScratch = vals
		for _, j := range eagerKeys {
			if err := batch.Cols[j].Append(vals[specs[j].keyDim]); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendDecoded decodes one column's raw values (nil = NULL) into an eager
// vector. The primitive coder decodes straight into the typed arrays; other
// coders box through FieldCoder.Decode.
func (r *HBaseRelation) appendDecoded(vec *plan.Vector, vals [][]byte, s *vecColSpec) error {
	if _, prim := r.coder.(PrimitiveCoder); prim {
		switch vec.Kind {
		case plan.KindInt64:
			for _, raw := range vals {
				if raw == nil {
					vec.AppendNull()
					continue
				}
				x, err := decodeIntAs(raw, s.typ)
				if err != nil {
					return fmt.Errorf("core: decode %s: %w", s.name, err)
				}
				vec.AppendInt64(x)
			}
			return nil
		case plan.KindFloat64:
			for _, raw := range vals {
				if raw == nil {
					vec.AppendNull()
					continue
				}
				var f float64
				var err error
				if s.typ == plan.TypeFloat32 {
					var f32 float32
					f32, err = bytesutil.DecodeFloat32(raw)
					f = float64(f32)
				} else {
					f, err = bytesutil.DecodeFloat64(raw)
				}
				if err != nil {
					return fmt.Errorf("core: decode %s: %w", s.name, err)
				}
				vec.AppendFloat64(f)
			}
			return nil
		case plan.KindString:
			for _, raw := range vals {
				if raw == nil {
					vec.AppendNull()
					continue
				}
				vec.AppendString(string(raw))
			}
			return nil
		}
	}
	for _, raw := range vals {
		if raw == nil {
			vec.AppendNull()
			continue
		}
		v, err := r.coder.Decode(raw, s.typ)
		if err != nil {
			return fmt.Errorf("core: decode %s: %w", s.name, err)
		}
		if err := vec.Append(v); err != nil {
			return err
		}
	}
	return nil
}

// decodeIntAs decodes a primitive-coded integer-family value to int64.
func decodeIntAs(raw []byte, t plan.DataType) (int64, error) {
	switch t {
	case plan.TypeInt8:
		v, err := bytesutil.DecodeInt8(raw)
		return int64(v), err
	case plan.TypeInt16:
		v, err := bytesutil.DecodeInt16(raw)
		return int64(v), err
	case plan.TypeInt32:
		v, err := bytesutil.DecodeInt32(raw)
		return int64(v), err
	}
	return bytesutil.DecodeInt64(raw)
}
