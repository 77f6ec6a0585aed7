package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/shc-go/shc/internal/bytesutil"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// This file is the read path of the HBase relation: fused pages arrive
// column-major (CellBlock) when the server can pack them, and decode
// straight into typed vectors. A kept read decodes every column; a
// streamed one decodes the columns the consumer flags eager up front with
// per-type fast paths, and everything else lands as raw bytes in lazy
// vectors that decode only for the positions that survive filtering —
// late materialization over the paged scan RPC. Both run on one pager,
// with its cursor and failover machinery.

// vecColSpec is the per-column decode plan for one partition scan.
type vecColSpec struct {
	name   string
	typ    plan.DataType
	keyDim int    // rowkey dimension; -1 for cell columns
	cf, q  string // HBase coordinates for cell columns
	eager  bool
}

// batchPool recycles a streamed read's column batch (and its vector
// storage) across partitions and queries — the fused pager otherwise
// allocates a fresh batch worth of vectors per partition per query.
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

// Batches implements datasource.Partition: the partition's paged fused
// read — the LimitHint cap, cursor-exact failover — each page decoded into
// a column batch. Under Keep every page is as large as the server sends
// it and decodes, every column typed, into a batch of its own. Otherwise
// pages hold fusedBatchRows rows, the next page's RPC is in flight while
// the caller reads the current one (double buffering), and each decodes
// into one pooled batch, the columns outside EagerColumns lazy.
func (p *hbasePartition) Batches(ctx context.Context, opts datasource.BatchOptions, yield func(*plan.Batch) error) error {
	ctx = bridgeConsistency(ctx)
	r := p.scan.rel
	tmpl := hbase.FusedRequest{Columnar: !r.opts.RowMajorPages}
	dec := p.scan.all
	var batch *plan.Batch
	var next func() (*hbase.ScanResponse, error)
	if opts.Keep {
		// A kept read's pager, which only Next reads, stays on the stack;
		// a streamed read's pager escapes into Prefetch's goroutine.
		pager := p.pager(tmpl, opts.LimitHint)
		next = func() (*hbase.ScanResponse, error) { return pager.Next(ctx) }
	} else {
		tmpl.BatchLimit = fusedBatchRows
		dec = p.scan.decodePlan(opts.EagerColumns)
		batch = getBatch(dec.schema, dec.specs, dec.lazyDec)
		defer putBatch(batch)
		next = p.pager(tmpl, opts.LimitHint).Prefetch(ctx, r.meter)
	}
	meter := metrics.Scoped(ctx, r.meter)
	var keyScratch [][]byte
	for {
		resp, err := next()
		if err != nil || resp == nil {
			return err
		}
		block := pageBlock(resp, dec.specs, meter)
		if block.Len() == 0 {
			continue
		}
		b := batch
		if b == nil {
			b = plan.NewBatch(dec.schema)
			b.Grow(block.Len())
		} else {
			b.Reset()
		}
		if err := r.decodeBlock(b, dec.specs, block, &keyScratch); err != nil {
			return err
		}
		b.SetLen(block.Len())
		if err := yield(b); err != nil {
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
				dim, t := dim, t
				lazyDec[i] = func(raw []byte) (any, error) {
					dims, err := r.codec.splitRowkey(nil, raw)
					if err != nil {
						return nil, err
					}
					return r.coder.Decode(dims[dim], t)
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
func (r *HBaseRelation) decodeBlock(batch *plan.Batch, specs []vecColSpec, block *hbase.CellBlock, keyScratch *[][]byte) error {
	if err := r.decodeKeys(batch, specs, block.Rows, keyScratch); err != nil {
		return err
	}
	for j := range specs {
		s := &specs[j]
		if s.keyDim >= 0 {
			continue
		}
		c := slices.IndexFunc(block.Cols, func(c hbase.CellColumn) bool { return c.Family == s.cf && c.Qualifier == s.q })
		for i := 0; i < block.Len(); i++ {
			var raw []byte // NULL where no row in this page has the column
			if c >= 0 {
				raw = block.Cols[c].Values[i]
			}
			if err := r.appendValue(batch.Cols[j], raw, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// noRows is the block of a page without rows; its readers only read it.
var noRows hbase.CellBlock

// pageBlock returns a fused page's rows column-major, counting the page in
// meter: its block, or else its Results transposed into the block of
// specs' columns, each row's entry its newest cell of the column. Only a
// read of several versions is answered row-major, and it decodes as the
// newest version.
func pageBlock(resp *hbase.ScanResponse, specs []vecColSpec, meter metrics.Meter) *hbase.CellBlock {
	meter.Inc(metrics.FusedPages)
	if resp.Block != nil {
		meter.Inc(metrics.ColumnarPages)
		return resp.Block
	}
	if len(resp.Results) == 0 {
		return &noRows
	}
	block := &hbase.CellBlock{Rows: make([][]byte, len(resp.Results))}
	for i := range resp.Results {
		block.Rows[i] = resp.Results[i].Row
	}
	for _, s := range specs {
		if s.keyDim >= 0 {
			continue
		}
		vals := make([][]byte, len(resp.Results))
		for i := range resp.Results {
			if raw, ok := resp.Results[i].Value(s.cf, s.q); ok && raw == nil {
				vals[i] = []byte{} // present, as in a cut block
			} else {
				vals[i] = raw
			}
		}
		block.Cols = append(block.Cols, hbase.CellColumn{Family: s.cf, Qualifier: s.q, Values: vals})
	}
	return block
}

// decodeKeys fills the rowkey-backed columns: eager dims split each key
// once per row and decode each dimension straight into its vector, lazy
// dims store the raw key.
func (r *HBaseRelation) decodeKeys(batch *plan.Batch, specs []vecColSpec, rows [][]byte, keyScratch *[][]byte) error {
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
		dims, err := r.codec.splitRowkey(*keyScratch, row)
		if err != nil {
			return err
		}
		*keyScratch = dims
		for _, j := range eagerKeys {
			if err := r.appendValue(batch.Cols[j], dims[specs[j].keyDim], &specs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendValue appends one raw value (nil = NULL) to vec: as raw bytes to a
// lazy vector, decoded to an eager one. The primitive coder decodes
// integers, floats and strings straight into the typed arrays; anything
// else boxes through FieldCoder.Decode.
func (r *HBaseRelation) appendValue(vec *plan.Vector, raw []byte, s *vecColSpec) error {
	_, prim := r.coder.(PrimitiveCoder)
	var err error
	switch {
	case raw == nil:
		vec.AppendNull()
	case !s.eager:
		vec.AppendRaw(raw)
	case prim && vec.Kind == plan.KindInt64:
		var x int64
		if x, err = decodeIntAs(raw, s.typ); err == nil {
			vec.AppendInt64(x)
		}
	case prim && vec.Kind == plan.KindFloat64 && s.typ == plan.TypeFloat32:
		var f float32
		if f, err = bytesutil.DecodeFloat32(raw); err == nil {
			vec.AppendFloat64(float64(f))
		}
	case prim && vec.Kind == plan.KindFloat64:
		var f float64
		if f, err = bytesutil.DecodeFloat64(raw); err == nil {
			vec.AppendFloat64(f)
		}
	case prim && vec.Kind == plan.KindString:
		vec.AppendString(string(raw))
	default:
		var v any
		if v, err = r.coder.Decode(raw, s.typ); err == nil {
			return vec.Append(v)
		}
	}
	if err != nil {
		return fmt.Errorf("core: decode %s: %w", s.name, err)
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
