package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

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
// exactly (the engine re-applies the rest). A scan's bind calls it once and
// reports the unhandled conjuncts from the same pass, so the scan and the
// engine agree on what was applied.
func (r *HBaseRelation) pushdown(filters []datasource.Filter) (translation, []bool) {
	return r.prepareConjuncts(filters, nil).pushdown(filters)
}

// conjuncts is a conjunct list prepared for pushdown: the rowkey dimension
// each conjunct constrains (-1 when the key-range pass does not take it),
// and the column translation of each other conjunct whose value is fixed.
type conjuncts struct {
	rel   *HBaseRelation
	dims  []int
	fixed []*translation // nil where the value is slotted, or a key conjunct
}

// prepareConjuncts does the value-independent half of pushdown: filters
// marked slotted (slotted nil marks none) are translated by each pushdown.
func (r *HBaseRelation) prepareConjuncts(filters []datasource.Filter, slotted []bool) conjuncts {
	c := conjuncts{rel: r}
	if r.opts.DisableFilterPushdown {
		return c
	}
	c.dims = make([]int, len(filters))
	c.fixed = make([]*translation, len(filters))
	for i, f := range filters {
		if c.dims[i] = r.keyDim(f); c.dims[i] < 0 && (slotted == nil || !slotted[i]) {
			tr := r.translateColumn(f)
			c.fixed[i] = &tr
		}
	}
	return c
}

// pushdown is HBaseRelation.pushdown for filters, which match the prepared
// list in everything but slotted values.
func (c conjuncts) pushdown(filters []datasource.Filter) (translation, []bool) {
	r := c.rel
	handled := make([]bool, len(filters))
	out := translation{ranges: fullSet()}
	if r.opts.DisableFilterPushdown {
		return out, handled
	}
	for i, f := range filters {
		if c.dims[i] >= 0 {
			continue // the key-range pass below
		}
		var tr translation
		if c.fixed[i] != nil {
			tr = *c.fixed[i]
		} else {
			tr = r.translateColumn(f)
		}
		out.ranges = out.ranges.Intersect(tr.ranges)
		out.hfilter = andFilters(out.hfilter, tr.hfilter)
		handled[i] = tr.handled
	}
	out.ranges = out.ranges.Intersect(r.keyRanges(filters, c.dims, handled))
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
// When every dimension is bound, the ranges are single keys, which the
// scan sends as gets. dims[i] is keyDim(filters[i]).
func (r *HBaseRelation) keyRanges(filters []datasource.Filter, dims []int, handled []bool) RangeSet {
	// Each binding's keys extend the previous binding's, so only the
	// latest becomes ranges; every other predicate narrows extra.
	extra := fullSet()
	var root [1][]byte
	prefixes, bound := root[:], -1
	for dim := range r.cat.RowkeyFields() {
		var next [][]byte
		for i, f := range filters {
			if dims[i] != dim {
				continue
			}
			rs, keys, ok := r.keyPredicate(f, dim, prefixes)
			if !ok {
				continue
			}
			handled[i] = true
			switch {
			case keys != nil && next == nil:
				next = keys
			case keys != nil:
				extra = extra.Intersect(r.keySet(keys, dim))
			default:
				extra = extra.Intersect(rs)
			}
		}
		if next == nil {
			break
		}
		prefixes, bound = next, dim
	}
	if bound < 0 {
		return extra
	}
	return r.keySet(prefixes, bound).Intersect(extra)
}

// keySet is the ranges of the keys that begin with keys, encoded up to
// dimension dim: keys themselves when dim is the last.
func (r *HBaseRelation) keySet(keys [][]byte, dim int) RangeSet {
	if dim == len(r.cat.RowkeyFields())-1 {
		return pointSet(keys...)
	}
	return prefixSet(keys...)
}

// keyPredicate encodes a predicate on dimension dim under each prefix of
// the dimensions before it. For = and IN, keys lists the extended prefixes
// (keySet makes them ranges) and is non-nil even when no value can be
// stored (a NUL on a terminated dimension matches nothing); any other
// predicate comes back as ranges. ok is false when a value does not encode
// or the ranges would pass maxKeyPoints.
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
		return set, keys, true
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

// BuildScan implements datasource.PrunedFilteredScan: it derives rowkey
// ranges and server filters from the pushed predicates, prunes regions,
// fuses per-server work, and returns locality-tagged partitions with the
// positions of the filters HBase does not evaluate exactly. It is
// PrepareScan with no slotted filter, then BindScan.
func (r *HBaseRelation) BuildScan(requiredColumns []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	ps, err := r.PrepareScan(requiredColumns, filters, nil)
	if err != nil {
		return nil, nil, err
	}
	return ps.BindScan(filters)
}

// hbaseScan is a scan of the relation prepared up to its slotted filter
// values: the projection resolved to HBase columns, the pushdown of every
// fixed filter, and the decode plans. It holds no region boundaries.
type hbaseScan struct {
	rel      *HBaseRelation
	required []string
	cols     []hbase.Column // the projection's cell columns
	conj     conjuncts
	// all decodes every column eagerly: the row path's plan, and the
	// vector path's when the consumer names no eager subset.
	all *decodePlan
	// subset is the plan last built for an eager subset; a pipeline names
	// the same subset on every execution.
	subset atomic.Pointer[decodePlan]
}

// decodePlan is the per-column decode plan of a scan for one eager set.
type decodePlan struct {
	eager   []int
	specs   []vecColSpec
	schema  plan.Schema
	lazyDec []func([]byte) (any, error)
}

// PrepareScan implements datasource.ScanPreparer: it resolves the
// projection, pushes down the filters not marked slotted, and builds the
// scan's decode plan.
func (r *HBaseRelation) PrepareScan(requiredColumns []string, filters []datasource.Filter, slotted []bool) (datasource.PreparedScan, error) {
	// Validate the projection and split it into key dims vs cells.
	var cols []hbase.Column
	for _, col := range requiredColumns {
		spec, err := r.cat.Column(col)
		if err != nil {
			return nil, err
		}
		if spec.CF != RowkeyCF {
			cols = append(cols, hbase.Column{Family: spec.CF, Qualifier: spec.Col})
		}
	}
	s := &hbaseScan{
		rel:      r,
		required: requiredColumns,
		cols:     cols,
		conj:     r.prepareConjuncts(filters, slotted),
	}
	s.all = s.buildDecodePlan(nil)
	return s, nil
}

// decodePlan returns the scan's decode plan for eagerCols (nil: every
// column eager).
func (s *hbaseScan) decodePlan(eagerCols []int) *decodePlan {
	if eagerCols == nil {
		return s.all
	}
	if d := s.subset.Load(); d != nil && slices.Equal(d.eager, eagerCols) {
		return d
	}
	d := s.buildDecodePlan(slices.Clone(eagerCols))
	s.subset.Store(d)
	return d
}

func (s *hbaseScan) buildDecodePlan(eagerCols []int) *decodePlan {
	d := &decodePlan{eager: eagerCols}
	d.specs, d.schema, d.lazyDec = s.rel.vecSpecs(s.required, eagerCols)
	return d
}

// BindScan implements datasource.PreparedScan: it pushes down the slotted
// filters' values and plans the scan's partitions against the client's
// current region map, so a split or move needs no invalidation.
func (s *hbaseScan) BindScan(filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	r := s.rel
	tr, handled := s.conj.pushdown(filters)
	var unhandled []int
	for i, h := range handled {
		if !h {
			unhandled = append(unhandled, i)
		}
	}
	if n := len(handled) - len(unhandled); n > 0 {
		r.meter.Add(metrics.FiltersPushed, int64(n))
	}
	if len(unhandled) > 0 {
		r.meter.Add(metrics.FiltersUnhandled, int64(len(unhandled)))
	}
	rm, err := r.client.RegionMap(context.Background(), r.cat.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	work, pruned := s.workFor(rm.Regions(), tr)
	r.meter.Add(metrics.RegionsPruned, int64(pruned))

	// Operator fusion: one partition (one task, one RPC) per region
	// server, packing every Scan/Get for regions it hosts (§VI-A.4).
	if r.opts.DisableOperatorFusion {
		parts := make([]datasource.Partition, len(work))
		for i, w := range work {
			parts[i] = &hbasePartition{scan: s, index: i, host: w.info.Host, ops: w.ops}
		}
		return parts, unhandled, nil
	}
	slices.SortStableFunc(work, func(a, b regionWork) int { return strings.Compare(a.info.Host, b.info.Host) })
	var parts []datasource.Partition
	for i := 0; i < len(work); {
		host, ops := work[i].info.Host, work[i].ops
		for i++; i < len(work) && work[i].info.Host == host; i++ {
			ops = append(ops, work[i].ops...)
		}
		parts = append(parts, &hbasePartition{scan: s, index: len(parts), host: host, ops: ops})
	}
	return parts, unhandled, nil
}

// regionWork is one region's share of a scan.
type regionWork struct {
	info *hbase.RegionInfo
	ops  []hbase.ScanOp
}

// workFor plans tr against regions, which are in key order: each range
// locates its first region by binary search and takes every region it
// overlaps, so the regions come out in key order with their ops in range
// order, and pruned counts the regions left out. With pruning disabled,
// every region is kept, the ones no range reaches with a vacuous scan.
func (s *hbaseScan) workFor(regions []hbase.RegionInfo, tr translation) (work []regionWork, pruned int) {
	opts := s.rel.opts
	tmpl := func(lo, hi []byte) *hbase.Scan {
		return &hbase.Scan{
			StartRow: lo, StopRow: hi,
			Columns:     s.cols,
			Filter:      tr.hfilter,
			MaxVersions: opts.maxVersions(),
			TimeRange:   opts.timeRange(),
		}
	}
	for _, rng := range tr.ranges.Ranges() {
		first := 0
		if rng.Start != nil {
			first = max(sort.Search(len(regions), func(i int) bool {
				return bytes.Compare(regions[i].StartKey, rng.Start) > 0
			})-1, 0)
		}
		for j := first; j < len(regions); j++ {
			ri := &regions[j]
			lo, hi, ok := hbase.SplitRowRange(ri, rng.Start, rng.Stop)
			if !ok {
				if j > first {
					break // regions past the range's end
				}
				continue
			}
			if len(work) == 0 || work[len(work)-1].info != ri {
				work = append(work, regionWork{info: ri})
			}
			w := &work[len(work)-1]
			// Consecutive single keys in one region become one bulk get.
			switch {
			case !isPoint(rng):
				w.ops = append(w.ops, hbase.ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Scan: tmpl(lo, hi)})
			case len(w.ops) > 0 && len(w.ops[len(w.ops)-1].Rows) > 0:
				w.ops[len(w.ops)-1].Rows = append(w.ops[len(w.ops)-1].Rows, rng.Start)
			default:
				w.ops = append(w.ops, hbase.ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Rows: [][]byte{rng.Start}, Scan: tmpl(nil, nil)})
			}
		}
	}
	if !opts.DisablePartitionPruning {
		return work, len(regions) - len(work)
	}
	// Pruning disabled: every region still receives a (vacuous) scan task
	// — the wasted round trip the optimization removes.
	all := make([]regionWork, len(regions))
	for j := range regions {
		ri := &regions[j]
		if len(work) > 0 && work[0].info == ri {
			all[j], work = work[0], work[1:]
			continue
		}
		empty := ri.StartKey
		if empty == nil {
			empty = []byte{}
		}
		all[j] = regionWork{info: ri, ops: []hbase.ScanOp{{RegionID: ri.ID, Epoch: ri.Epoch, Scan: tmpl(empty, empty)}}}
	}
	return all, 0
}

func isPoint(r RowRange) bool {
	return r.Start != nil && r.Stop != nil &&
		len(r.Stop) == len(r.Start)+1 && r.Stop[len(r.Stop)-1] == 0 &&
		bytes.Equal(r.Stop[:len(r.Start)], r.Start)
}

// hbasePartition is one locality-tagged unit of scan work: every Scan and
// BulkGet bound for one region server, executed in a single fused RPC.
type hbasePartition struct {
	scan  *hbaseScan
	index int
	host  string
	ops   []hbase.ScanOp
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
	r, specs := p.scan.rel, p.scan.all.specs
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
		rows, keyScratch, err = r.decodeResults(resp.Results, specs, rows, keyScratch)
		if err != nil {
			return nil, err
		}
	}
}

// pager starts the partition's read: its ops on its planned host, pages
// shaped by tmpl, at most limit rows (0 = all).
func (p *hbasePartition) pager(tmpl hbase.FusedRequest, limit int) *hbase.Pager {
	tmpl.Ops = p.ops
	r := p.scan.rel
	return r.client.NewPager(r.cat.Table.Name, p.host, tmpl, limit)
}

// fusedBatchRows is the per-page row budget of a batch scan.
const fusedBatchRows = 256

// batchPages pages the partition's read for a batch scan: pages of
// fusedBatchRows rows, at most opts.LimitHint rows in all — the fused-LIMIT
// short circuit — and the next page's RPC in flight while the caller decodes
// the current one (double buffering).
func (p *hbasePartition) batchPages(ctx context.Context, opts datasource.BatchOptions, columnar bool) func() (*hbase.ScanResponse, error) {
	pager := p.pager(hbase.FusedRequest{BatchLimit: fusedBatchRows, Columnar: columnar}, opts.LimitHint)
	return pager.Prefetch(ctx, p.scan.rel.meter)
}

// ComputeBatches implements datasource.BatchScan: the partition's fused RPC
// is paged with a continuation cursor, each page decoded and yielded as one
// batch while the next page is already in flight.
func (p *hbasePartition) ComputeBatches(ctx context.Context, opts datasource.BatchOptions, yield func([]plan.Row) error) error {
	ctx = bridgeConsistency(ctx)
	next := p.batchPages(ctx, opts, false)
	r, specs := p.scan.rel, p.scan.all.specs
	meter := metrics.Scoped(ctx, r.meter)
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
		batch, keyScratch, err = r.decodeResults(resp.Results, specs, batch[:0], keyScratch)
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

// decodeResults decodes a page of HBase results into rows of the specs'
// columns appended to dst, amortizing allocations: one values slab backs
// every row in the batch, and keyScratch is reused across rows for
// composite-rowkey decoding. It returns the grown dst and scratch. Rows
// stay valid after dst is reused — they alias the slab, not dst.
func (r *HBaseRelation) decodeResults(results []hbase.Result, specs []vecColSpec, dst []plan.Row, keyScratch []any) ([]plan.Row, []any, error) {
	w := len(specs)
	slab := make([]any, len(results)*w)
	for i := range results {
		row := plan.Row(slab[i*w : (i+1)*w : (i+1)*w])
		var err error
		keyScratch, err = r.decodeResultInto(row, keyScratch, &results[i], specs)
		if err != nil {
			return nil, keyScratch, err
		}
		dst = append(dst, row)
	}
	return dst, keyScratch, nil
}

// decodeResultInto decodes res into row (which must have len(specs)),
// reusing keyScratch for rowkey dimension values; it returns the (possibly
// grown) scratch. Values are copied out of the scratch, so callers may hand
// the same scratch to the next row.
func (r *HBaseRelation) decodeResultInto(row plan.Row, keyScratch []any, res *hbase.Result, specs []vecColSpec) ([]any, error) {
	keyDecoded := false
	for i := range specs {
		s := &specs[i]
		if s.keyDim >= 0 {
			if !keyDecoded {
				vals, err := r.codec.decodeRowkeyInto(keyScratch, res.Row)
				if err != nil {
					return keyScratch, err
				}
				keyScratch = vals
				keyDecoded = true
			}
			row[i] = keyScratch[s.keyDim]
			continue
		}
		raw, ok := res.Value(s.cf, s.q)
		if !ok {
			row[i] = nil // SQL NULL for absent cells
			continue
		}
		v, err := r.coder.Decode(raw, s.typ)
		if err != nil {
			return keyScratch, fmt.Errorf("core: decode %s: %w", s.name, err)
		}
		row[i] = v
	}
	return keyScratch, nil
}
