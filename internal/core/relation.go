package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/shc-go/shc/internal/bytesutil"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// bridgeConsistency translates the engine-level consistency choice (carried
// in the hbase-free datasource package) into the hbase client's context key,
// so a DataFrame built WithConsistency(Timeline) actually reaches the
// storage layer's replica failover. Strong (the zero value) bridges to
// nothing — the context is returned untouched.
func bridgeConsistency(ctx context.Context) context.Context {
	if datasource.ConsistencyFromContext(ctx) == datasource.ConsistencyTimeline {
		return hbase.WithConsistency(ctx, hbase.ConsistencyTimeline)
	}
	return ctx
}

// Options carries the per-relation settings of HBaseSparkConf (paper Code 5
// and §IV-C) plus the ablation switches the benchmarks sweep.
type Options struct {
	// Timestamp restricts reads to cells with exactly this timestamp.
	Timestamp int64
	// MinTimestamp/MaxTimestamp restrict reads to [Min, Max).
	MinTimestamp int64
	MaxTimestamp int64
	// MaxVersions is how many versions per cell a read may return
	// (default 1).
	MaxVersions int
	// WriteTimestamp stamps written cells (default 1).
	WriteTimestamp int64
	// NewTableRegions pre-splits a created table into this many regions
	// (HBaseTableCatalog.newTable; default 1).
	NewTableRegions int
	// DisablePartitionPruning scans every region regardless of rowkey
	// ranges (ablation).
	DisablePartitionPruning bool
	// DisableOperatorFusion builds one partition per region instead of one
	// per region server (ablation of §VI-A.4).
	DisableOperatorFusion bool
	// DisableFilterPushdown keeps every predicate in the engine (ablation
	// of §VI-A.3).
	DisableFilterPushdown bool
	// FirstDimensionPruning prunes on the first dimension of a composite
	// rowkey only, as the paper does (§VI-A.1; ablation). By default every
	// leading equality-bound dimension narrows the scan (the paper's future
	// work, §VIII), and a full-rowkey equality is a Get.
	FirstDimensionPruning bool
}

func (o Options) timeRange() hbase.TimeRange {
	if o.Timestamp != 0 {
		return hbase.TimeRange{Min: o.Timestamp, Max: o.Timestamp + 1}
	}
	return hbase.TimeRange{Min: o.MinTimestamp, Max: o.MaxTimestamp}
}

func (o Options) maxVersions() int {
	if o.MaxVersions <= 0 {
		return 1
	}
	return o.MaxVersions
}

// HBaseRelation is SHC's data-source relation: a catalog-mapped HBase table
// that supports pruned, filtered scans with locality, and inserts.
type HBaseRelation struct {
	cat    *Catalog
	coder  FieldCoder
	client *hbase.Client
	meter  *metrics.Registry
	opts   Options
	codec  rowkeyCodec
}

// NewHBaseRelation builds a relation over an HBase client. meter may be
// nil.
func NewHBaseRelation(client *hbase.Client, cat *Catalog, opts Options, meter *metrics.Registry) (*HBaseRelation, error) {
	coder, err := cat.Coder()
	if err != nil {
		return nil, err
	}
	return &HBaseRelation{
		cat:    cat,
		coder:  coder,
		client: client,
		meter:  meter,
		opts:   opts,
		codec:  rowkeyCodec{cat: cat, coder: coder},
	}, nil
}

// Name implements datasource.Relation.
func (r *HBaseRelation) Name() string { return r.cat.Table.Name }

// Schema implements datasource.Relation.
func (r *HBaseRelation) Schema() plan.Schema { return r.cat.Schema() }

// Catalog exposes the relation's catalog.
func (r *HBaseRelation) Catalog() *Catalog { return r.cat }

// translation is the outcome of mapping source filters onto HBase.
type translation struct {
	ranges  RangeSet     // restriction on encoded row keys (full when none)
	hfilter hbase.Filter // server-side filter (nil when none)
	handled bool         // all fully evaluated by HBase; engine need not re-apply
}

// maxKeyPoints caps the key ranges a predicate past the first rowkey
// dimension may expand to: a composite IN whose cross product is larger
// falls back to the prefix range of the dimensions before it.
const maxKeyPoints = 64

// translate maps one source filter onto HBase.
func (r *HBaseRelation) translate(f datasource.Filter) translation {
	tr, _ := r.pushdown([]datasource.Filter{f})
	return tr
}

// pushdown maps a conjunct list onto HBase: the intersected rowkey ranges,
// the ANDed server filters, and per conjunct whether HBase evaluates it
// exactly (the engine re-applies the rest). BuildScan and UnhandledFilters
// both call it, so the scan and the engine agree on what was applied.
func (r *HBaseRelation) pushdown(filters []datasource.Filter) (translation, []bool) {
	handled := make([]bool, len(filters))
	out := translation{ranges: fullSet()}
	if r.opts.DisableFilterPushdown {
		return out, handled
	}
	for i, f := range filters {
		if r.keyDim(f) >= 0 {
			continue // the key-range pass below
		}
		tr := r.translateColumn(f)
		out.ranges = out.ranges.Intersect(tr.ranges)
		out.hfilter = andFilters(out.hfilter, tr.hfilter)
		handled[i] = tr.handled
	}
	out.ranges = out.ranges.Intersect(r.keyRanges(filters, handled))
	out.handled = true
	for _, h := range handled {
		out.handled = out.handled && h
	}
	return out, handled
}

// translateColumn maps a filter the key-range pass does not take to rowkey
// ranges and server filters. The selective-pushdown policy of §VI-A.3 lives
// here: NOT IN never pushes, range predicates on non-order-preserving coders
// never push, and anything unpushable is left for the engine via
// handled=false.
func (r *HBaseRelation) translateColumn(f datasource.Filter) translation {
	full := translation{ranges: fullSet()}
	switch x := f.(type) {
	case datasource.EqualTo:
		return r.columnFilter(x.Column, hbase.CmpEqual, x.Value, true)
	case datasource.NotEqual:
		// != on a key dimension does not narrow ranges usefully, and
		// columnFilter leaves key dimensions to the engine.
		return r.columnFilter(x.Column, hbase.CmpNotEqual, x.Value, true)
	case datasource.GreaterThan:
		return r.columnFilter(x.Column, hbase.CmpGreater, x.Value, r.coder.OrderPreserving())
	case datasource.GreaterThanOrEqual:
		return r.columnFilter(x.Column, hbase.CmpGreaterOrEqual, x.Value, r.coder.OrderPreserving())
	case datasource.LessThan:
		return r.columnFilter(x.Column, hbase.CmpLess, x.Value, r.coder.OrderPreserving())
	case datasource.LessThanOrEqual:
		return r.columnFilter(x.Column, hbase.CmpLessOrEqual, x.Value, r.coder.OrderPreserving())
	case datasource.In:
		// Non-key IN becomes an OR of equality filters.
		spec, err := r.cat.Column(x.Column)
		if err != nil || spec.CF == RowkeyCF {
			return full
		}
		list := &hbase.FilterList{Op: hbase.MustPassOne}
		for _, v := range x.Values {
			enc, err := r.coder.Encode(v, r.cat.fieldType(x.Column))
			if err != nil {
				return full
			}
			list.Filters = append(list.Filters, &hbase.SingleColumnValueFilter{
				Family: spec.CF, Qualifier: spec.Col, Op: hbase.CmpEqual, Value: enc,
			})
		}
		return translation{ranges: fullSet(), hfilter: list, handled: true}
	case datasource.NotIn:
		// The paper's rule: scanning the whole table to evaluate NOT IN
		// inside HBase is not worth building the filter — Spark applies it
		// after the fetch (§VI-A.3).
		return full
	case datasource.StringStartsWith:
		if !r.coder.OrderPreserving() {
			return full
		}
		spec, err := r.cat.Column(x.Column)
		if err != nil || spec.CF == RowkeyCF || r.cat.fieldType(x.Column) != plan.TypeString {
			return full
		}
		enc, err := r.coder.Encode(x.Prefix, plan.TypeString)
		if err != nil {
			return full
		}
		list := &hbase.FilterList{Op: hbase.MustPassAll, Filters: []hbase.Filter{
			&hbase.SingleColumnValueFilter{Family: spec.CF, Qualifier: spec.Col, Op: hbase.CmpGreaterOrEqual, Value: enc},
		}}
		if succ := bytesutil.PrefixSuccessor(enc); succ != nil {
			list.Filters = append(list.Filters, &hbase.SingleColumnValueFilter{
				Family: spec.CF, Qualifier: spec.Col, Op: hbase.CmpLess, Value: succ,
			})
		}
		return translation{ranges: fullSet(), hfilter: list, handled: true}
	case datasource.AndFilter:
		tr, _ := r.pushdown([]datasource.Filter{x.Left, x.Right})
		return tr
	case datasource.OrFilter:
		l := r.translate(x.Left)
		rt := r.translate(x.Right)
		if !l.handled || !rt.handled {
			// A disjunction is only as good as its weakest arm; without
			// both arms the scan cannot be narrowed (the paper's "OR
			// semantic ... results in a full scan", §VI-A.1).
			return full
		}
		// Both arms handled. Ranges union; filters also OR — but a row in
		// either arm's range with no filter must pass, so mixing ranges
		// and filters across arms is only sound when the arms are
		// symmetric: both pure-range or both pure-filter.
		pureRangeL := l.hfilter == nil
		pureRangeR := rt.hfilter == nil
		switch {
		case pureRangeL && pureRangeR:
			return translation{ranges: l.ranges.Union(rt.ranges), handled: true}
		case !pureRangeL && !pureRangeR && l.ranges.IsFull() && rt.ranges.IsFull():
			return translation{
				ranges:  fullSet(),
				hfilter: &hbase.FilterList{Op: hbase.MustPassOne, Filters: []hbase.Filter{l.hfilter, rt.hfilter}},
				handled: true,
			}
		default:
			return full
		}
	}
	return full
}

// keyDim returns the rowkey dimension a comparison, IN or string-prefix
// filter constrains, or -1 when the key-range pass does not take it.
func (r *HBaseRelation) keyDim(f datasource.Filter) int {
	var col string
	switch x := f.(type) {
	case datasource.EqualTo:
		col = x.Column
	case datasource.In:
		col = x.Column
	case datasource.GreaterThan:
		col = x.Column
	case datasource.GreaterThanOrEqual:
		col = x.Column
	case datasource.LessThan:
		col = x.Column
	case datasource.LessThanOrEqual:
		col = x.Column
	case datasource.StringStartsWith:
		if r.cat.fieldType(x.Column) != plan.TypeString {
			return -1
		}
		col = x.Column
	default:
		return -1
	}
	dim, ok := r.cat.IsRowkeyField(col)
	if !ok || !r.coder.OrderPreserving() || (r.opts.FirstDimensionPruning && dim > 0) {
		return -1
	}
	return dim
}

// keyRanges is the key-range pass. Dimension by dimension, it extends the
// set of key prefixes with the values the first = or IN on that dimension
// binds, encoded by appendDim in the layout encodeRowkey writes. Every key
// predicate on a dimension the run reaches becomes exact ranges under the
// prefixes so far and is marked handled; the run stops at the first
// dimension no equality binds, and key predicates past it stay unhandled.
// When every dimension is bound, the ranges are single keys, which
// BuildScan sends as gets.
func (r *HBaseRelation) keyRanges(filters []datasource.Filter, handled []bool) RangeSet {
	// Each binding's ranges lie inside the previous binding's, so only the
	// latest is kept; every other predicate narrows extra.
	bound, extra := fullSet(), fullSet()
	var root [1][]byte
	prefixes := root[:]
	for dim := range r.cat.RowkeyFields() {
		var next [][]byte
		for i, f := range filters {
			if r.keyDim(f) != dim {
				continue
			}
			rs, keys, ok := r.keyPredicate(f, dim, prefixes)
			if !ok {
				continue
			}
			handled[i] = true
			if keys != nil && next == nil {
				next, bound = keys, rs
			} else {
				extra = extra.Intersect(rs)
			}
		}
		if next == nil {
			break
		}
		prefixes = next
	}
	return bound.Intersect(extra)
}

// keyPredicate encodes a predicate on dimension dim under each prefix of
// the dimensions before it. For = and IN, keys lists the extended prefixes
// and is non-nil even when no value can be stored (a NUL on a terminated
// dimension matches nothing). ok is false when a value does not encode or
// the ranges would pass maxKeyPoints.
func (r *HBaseRelation) keyPredicate(f datasource.Filter, dim int, prefixes [][]byte) (set RangeSet, keys [][]byte, ok bool) {
	var one [1]any
	vals := one[:]
	switch x := f.(type) {
	case datasource.EqualTo:
		one[0] = x.Value
	case datasource.In:
		vals = x.Values
	case datasource.GreaterThan:
		one[0] = x.Value
	case datasource.GreaterThanOrEqual:
		one[0] = x.Value
	case datasource.LessThan:
		one[0] = x.Value
	case datasource.LessThanOrEqual:
		one[0] = x.Value
	}
	if dim > 0 && len(prefixes)*len(vals) > maxKeyPoints {
		return set, nil, false
	}
	last := dim == len(r.cat.RowkeyFields())-1
	switch x := f.(type) {
	case datasource.EqualTo, datasource.In:
		keys = make([][]byte, 0, len(prefixes)*len(vals))
		for _, p := range prefixes {
			for _, v := range vals {
				key, err := r.codec.appendDim(p[:len(p):len(p)], dim, v)
				if errors.Is(err, errKeyNUL) {
					continue
				}
				if err != nil {
					return set, nil, false
				}
				keys = append(keys, key)
			}
		}
		if last {
			return pointSet(keys...), keys, true
		}
		return prefixSet(keys...), keys, true
	case datasource.StringStartsWith:
		// A raw prefix of the encoded value, so no terminator; a NUL in it
		// would reach past a terminated value into the next dimension.
		enc, err := r.coder.Encode(x.Prefix, plan.TypeString)
		if err != nil || (!last && bytes.IndexByte(enc, 0) >= 0) {
			return set, nil, false
		}
		starts := make([][]byte, len(prefixes))
		for i, p := range prefixes {
			starts[i] = bytesutil.Concat(p, enc)
		}
		return prefixSet(starts...), nil, true
	}
	var rs []RowRange
	for _, p := range prefixes {
		key, err := r.codec.appendDim(p[:len(p):len(p)], dim, vals[0])
		if err != nil {
			return set, nil, false
		}
		rr := RowRange{Start: p, Stop: bytesutil.PrefixSuccessor(p)}
		switch f.(type) {
		case datasource.GreaterThan:
			if rr.Start = valueEnd(key, last); rr.Start == nil {
				continue
			}
		case datasource.GreaterThanOrEqual:
			rr.Start = key
		case datasource.LessThan:
			rr.Stop = key
		case datasource.LessThanOrEqual:
			if end := valueEnd(key, last); end != nil {
				rr.Stop = end
			}
		}
		rs = append(rs, rr)
	}
	return normalize(rs), nil, true
}

// valueEnd is the first key past every key whose last encoded dimension
// is the one key ends with: the last dimension is the key's tail, an
// earlier one a prefix of it. nil means no key follows.
func valueEnd(key []byte, last bool) []byte {
	if last {
		return bytesutil.Successor(key)
	}
	return bytesutil.PrefixSuccessor(key)
}

// columnFilter builds a server-side single-column filter; handled=false
// when byte-order comparison would be unsound for the coder.
func (r *HBaseRelation) columnFilter(col string, op hbase.CompareOp, v any, sound bool) translation {
	full := translation{ranges: fullSet()}
	if !sound {
		return full
	}
	spec, err := r.cat.Column(col)
	if err != nil || spec.CF == RowkeyCF {
		return full
	}
	enc, err := r.coder.Encode(v, r.cat.fieldType(col))
	if err != nil {
		return full
	}
	return translation{
		ranges:  fullSet(),
		hfilter: &hbase.SingleColumnValueFilter{Family: spec.CF, Qualifier: spec.Col, Op: op, Value: enc},
		handled: true,
	}
}

func andFilters(a, b hbase.Filter) hbase.Filter {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &hbase.FilterList{Op: hbase.MustPassAll, Filters: []hbase.Filter{a, b}}
}

// EstimatedRowCount implements datasource.Statistics: cell count from the
// master's region metrics divided by the catalog's data-column count. The
// estimate ignores multi-versioned cells and NULL-absent columns, which is
// the usual precision of storage-level statistics.
func (r *HBaseRelation) EstimatedRowCount() (int64, bool) {
	stats, err := r.client.TableStats(r.cat.Table.Name)
	if err != nil {
		return 0, false
	}
	cols := int64(len(r.cat.Schema()) - len(r.cat.RowkeyFields()))
	if cols < 1 {
		cols = 1
	}
	return stats.Cells / cols, true
}

// UnhandledFilters implements datasource.PrunedFilteredScan.
func (r *HBaseRelation) UnhandledFilters(filters []datasource.Filter) []datasource.Filter {
	var out []datasource.Filter
	_, handled := r.pushdown(filters)
	for i, f := range filters {
		if !handled[i] {
			out = append(out, f)
		}
	}
	return out
}

// BuildScan implements datasource.PrunedFilteredScan: it derives rowkey
// ranges and server filters from the pushed predicates, prunes regions,
// fuses per-server work, and returns locality-tagged partitions.
func (r *HBaseRelation) BuildScan(requiredColumns []string, filters []datasource.Filter) ([]datasource.Partition, error) {
	// Validate the projection and split it into key dims vs cells.
	var scanCols []hbase.Column
	for _, col := range requiredColumns {
		spec, err := r.cat.Column(col)
		if err != nil {
			return nil, err
		}
		if spec.CF != RowkeyCF {
			scanCols = append(scanCols, hbase.Column{Family: spec.CF, Qualifier: spec.Col})
		}
	}

	tr, handled := r.pushdown(filters)
	ranges, filter := tr.ranges, tr.hfilter
	for _, h := range handled {
		if h {
			r.meter.Inc(metrics.FiltersPushed)
		} else {
			r.meter.Inc(metrics.FiltersUnhandled)
		}
	}

	regions, err := r.client.Regions(r.cat.Table.Name)
	if err != nil {
		return nil, err
	}
	scanTemplate := func(lo, hi []byte) *hbase.Scan {
		return &hbase.Scan{
			StartRow: lo, StopRow: hi,
			Columns:     scanCols,
			Filter:      filter,
			MaxVersions: r.opts.maxVersions(),
			TimeRange:   r.opts.timeRange(),
		}
	}

	// Partition pruning: keep only regions intersecting some range.
	type regionWork struct {
		info hbase.RegionInfo
		ops  []hbase.ScanOp
	}
	var work []regionWork
	pruned := 0
	for _, ri := range regions {
		ri := ri
		var ops []hbase.ScanOp
		for _, rng := range ranges.Ranges() {
			lo, hi, ok := hbase.SplitRowRange(&ri, rng.Start, rng.Stop)
			if !ok {
				continue
			}
			// Consecutive single keys in one region become one bulk get.
			switch {
			case !isPoint(rng):
				ops = append(ops, hbase.ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Scan: scanTemplate(lo, hi)})
			case len(ops) > 0 && len(ops[len(ops)-1].Rows) > 0:
				ops[len(ops)-1].Rows = append(ops[len(ops)-1].Rows, rng.Start)
			default:
				ops = append(ops, hbase.ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Rows: [][]byte{rng.Start}, Scan: scanTemplate(nil, nil)})
			}
		}
		if len(ops) == 0 {
			if !r.opts.DisablePartitionPruning {
				pruned++
				continue
			}
			// Pruning disabled: the region still receives a (vacuous) scan
			// task — the wasted round trip the optimization removes.
			empty := ri.StartKey
			if empty == nil {
				empty = []byte{}
			}
			ops = append(ops, hbase.ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Scan: scanTemplate(empty, empty)})
		}
		work = append(work, regionWork{info: ri, ops: ops})
	}
	r.meter.Add(metrics.RegionsPruned, int64(pruned))

	// Operator fusion: one partition (one task, one RPC) per region
	// server, packing every Scan/Get for regions it hosts (§VI-A.4).
	var parts []datasource.Partition
	if r.opts.DisableOperatorFusion {
		for i, w := range work {
			parts = append(parts, &hbasePartition{
				rel: r, index: i, host: w.info.Host, ops: w.ops, required: requiredColumns,
			})
		}
		return parts, nil
	}
	byHost := make(map[string][]hbase.ScanOp)
	for _, w := range work {
		byHost[w.info.Host] = append(byHost[w.info.Host], w.ops...)
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for i, h := range hosts {
		parts = append(parts, &hbasePartition{
			rel: r, index: i, host: h, ops: byHost[h], required: requiredColumns,
		})
	}
	return parts, nil
}

func isPoint(r RowRange) bool {
	return r.Start != nil && r.Stop != nil &&
		len(r.Stop) == len(r.Start)+1 && r.Stop[len(r.Stop)-1] == 0 &&
		bytes.Equal(r.Stop[:len(r.Start)], r.Start)
}

// hbasePartition is one locality-tagged unit of scan work: every Scan and
// BulkGet bound for one region server, executed in a single fused RPC.
type hbasePartition struct {
	rel      *HBaseRelation
	index    int
	host     string
	ops      []hbase.ScanOp
	required []string
}

// Index implements datasource.Partition.
func (p *hbasePartition) Index() int { return p.index }

// PreferredHost implements datasource.Partition — the region server's host,
// which the scheduler matches to an executor (§VI-A.2).
func (p *hbasePartition) PreferredHost() string { return p.host }

// Compute implements datasource.Partition: fetch and decode this
// partition's rows in a fused RPC, failing over to reassigned region
// servers if the host dies mid-query.
func (p *hbasePartition) Compute(ctx context.Context) ([]plan.Row, error) {
	ctx = bridgeConsistency(ctx)
	pager := p.pager(hbase.FusedRequest{}, 0)
	var rows []plan.Row
	var keyScratch []any
	for {
		resp, err := pager.Next(ctx)
		if err != nil {
			return nil, err
		}
		if resp == nil {
			return rows, nil
		}
		rows, keyScratch, err = p.rel.decodeResults(resp.Results, p.required, rows, keyScratch)
		if err != nil {
			return nil, err
		}
	}
}

// pager starts the partition's read: its ops on its planned host, pages
// shaped by tmpl, at most limit rows (0 = all).
func (p *hbasePartition) pager(tmpl hbase.FusedRequest, limit int) *hbase.Pager {
	tmpl.Ops = p.ops
	return p.rel.client.NewPager(p.rel.cat.Table.Name, p.host, tmpl, limit)
}

// defaultFusedBatch is the per-page row budget when the caller does not pick
// one.
const defaultFusedBatch = 256

// batchPages pages the partition's read for a batch scan: pages of
// opts.BatchSize rows (default defaultFusedBatch), at most opts.LimitHint
// rows in all — the fused-LIMIT short circuit — and the next page's RPC in
// flight while the caller decodes the current one (double buffering).
func (p *hbasePartition) batchPages(ctx context.Context, opts datasource.BatchOptions, columnar bool) func() (*hbase.ScanResponse, error) {
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = defaultFusedBatch
	}
	pager := p.pager(hbase.FusedRequest{BatchLimit: batchSize, Columnar: columnar}, opts.LimitHint)
	return pager.Prefetch(ctx, p.rel.meter)
}

// ComputeBatches implements datasource.BatchScan: the partition's fused RPC
// is paged with a continuation cursor, each page decoded and yielded as one
// batch while the next page is already in flight.
func (p *hbasePartition) ComputeBatches(ctx context.Context, opts datasource.BatchOptions, yield func([]plan.Row) error) error {
	ctx = bridgeConsistency(ctx)
	next := p.batchPages(ctx, opts, false)
	meter := metrics.Scoped(ctx, p.rel.meter)
	var batch []plan.Row
	var keyScratch []any
	for {
		resp, err := next()
		if err != nil || resp == nil {
			return err
		}
		meter.Inc(metrics.FusedPages)
		if len(resp.Results) == 0 {
			continue
		}
		batch, keyScratch, err = p.rel.decodeResults(resp.Results, p.required, batch[:0], keyScratch)
		if err != nil {
			return err
		}
		if err := yield(batch); err != nil {
			if errors.Is(err, datasource.ErrStopBatches) {
				return nil
			}
			return err
		}
	}
}

// decodeResults decodes a page of HBase results into rows appended to dst,
// amortizing allocations: one values slab backs every row in the batch, and
// keyScratch is reused across rows for composite-rowkey decoding. It returns
// the grown dst and scratch. Rows stay valid after dst is reused — they
// alias the slab, not dst.
func (r *HBaseRelation) decodeResults(results []hbase.Result, required []string, dst []plan.Row, keyScratch []any) ([]plan.Row, []any, error) {
	w := len(required)
	slab := make([]any, len(results)*w)
	for i := range results {
		row := plan.Row(slab[i*w : (i+1)*w : (i+1)*w])
		var err error
		keyScratch, err = r.decodeResultInto(row, keyScratch, &results[i], required)
		if err != nil {
			return nil, keyScratch, err
		}
		dst = append(dst, row)
	}
	return dst, keyScratch, nil
}

// decodeResultInto decodes res into row (which must have len(required)),
// reusing keyScratch for rowkey dimension values; it returns the (possibly
// grown) scratch. Values are copied out of the scratch, so callers may hand
// the same scratch to the next row.
func (r *HBaseRelation) decodeResultInto(row plan.Row, keyScratch []any, res *hbase.Result, required []string) ([]any, error) {
	keyDecoded := false
	for i, col := range required {
		if dim, ok := r.cat.IsRowkeyField(col); ok {
			if !keyDecoded {
				vals, err := r.codec.decodeRowkeyInto(keyScratch, res.Row)
				if err != nil {
					return keyScratch, err
				}
				keyScratch = vals
				keyDecoded = true
			}
			row[i] = keyScratch[dim]
			continue
		}
		spec, err := r.cat.Column(col)
		if err != nil {
			return keyScratch, err
		}
		raw, ok := res.Value(spec.CF, spec.Col)
		if !ok {
			row[i] = nil // SQL NULL for absent cells
			continue
		}
		v, err := r.coder.Decode(raw, r.cat.fieldType(col))
		if err != nil {
			return keyScratch, fmt.Errorf("core: decode %s: %w", col, err)
		}
		row[i] = v
	}
	return keyScratch, nil
}
