package core

import (
	"context"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/plan"
)

// ComputeAggregates implements datasource.AggregateScan: the partition's
// fused op runs as a partial aggregate on its region server, so one set of
// partials per run crosses the network instead of every row. The same
// pager drives it — retry budget, regrouping after failover, epoch
// restamping, timeline replica redirect — and each run starts from the
// partials the previous run returned, so the fold stays one left fold in
// partition row order whichever servers end up serving it. A run that
// fails is re-sent whole from its starting partials.
func (p *hbasePartition) ComputeAggregates(ctx context.Context, aggs []datasource.Aggregate) ([]datasource.AggregatePartial, bool, error) {
	specs, ok := p.scan.rel.aggSpecs(p.scan.required, aggs)
	if !ok {
		return nil, false, nil
	}
	ctx = bridgeConsistency(ctx)
	state := make([]hbase.AggPartial, len(specs))
	pager := p.pager(hbase.FusedRequest{Aggs: specs, State: state}, 0)
	for {
		resp, err := pager.Next(ctx)
		if err != nil {
			return nil, true, err
		}
		if resp == nil {
			break
		}
		state = resp.Aggs
	}
	out := make([]datasource.AggregatePartial, len(specs))
	for i, s := range state {
		out[i] = datasource.AggregatePartial(s)
	}
	return out, true, nil
}

// aggSpecs maps the engine's aggregates onto region-side specs over the
// scan's projected columns, or reports false when the region cannot fold
// them exactly as the executor would: a coder other than PrimitiveType, a
// rowkey-dimension input, an input type without a numeric interpretation,
// or reads of more than one version per cell.
func (r *HBaseRelation) aggSpecs(required []string, aggs []datasource.Aggregate) ([]hbase.AggSpec, bool) {
	if _, prim := r.coder.(PrimitiveCoder); !prim || r.opts.maxVersions() != 1 {
		return nil, false
	}
	specs := make([]hbase.AggSpec, len(aggs))
	for i, a := range aggs {
		if a.Column < 0 {
			if a.Kind != plan.AggCount {
				return nil, false
			}
			specs[i] = hbase.AggSpec{Kind: hbase.AggCountRows}
			continue
		}
		if a.Column >= len(required) {
			return nil, false
		}
		col := required[a.Column]
		if _, key := r.cat.IsRowkeyField(col); key {
			return nil, false
		}
		vt, ok := valueType(r.cat.fieldType(col))
		if !ok {
			return nil, false
		}
		spec, err := r.cat.Column(col)
		if err != nil {
			return nil, false
		}
		s := hbase.AggSpec{Family: spec.CF, Qualifier: spec.Col, Type: vt}
		switch a.Kind {
		case plan.AggCount:
			s.Kind = hbase.AggCountColumn
		case plan.AggSum, plan.AggAvg:
			s.Kind = hbase.AggSum
		case plan.AggMin:
			s.Kind = hbase.AggMin
		case plan.AggMax:
			s.Kind = hbase.AggMax
		default:
			return nil, false
		}
		specs[i] = s
	}
	return specs, true
}

// valueType is the region-side interpretation of a PrimitiveType-coded
// numeric column.
func valueType(t plan.DataType) (hbase.ValueType, bool) {
	switch t {
	case plan.TypeInt8:
		return hbase.ValueInt8, true
	case plan.TypeInt16:
		return hbase.ValueInt16, true
	case plan.TypeInt32:
		return hbase.ValueInt32, true
	case plan.TypeInt64:
		return hbase.ValueInt64, true
	case plan.TypeFloat32:
		return hbase.ValueFloat32, true
	case plan.TypeFloat64:
		return hbase.ValueFloat64, true
	}
	return 0, false
}
