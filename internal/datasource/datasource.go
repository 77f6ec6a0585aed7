// Package datasource is the plug-in seam between the query engine and
// external storage — the analogue of Spark's Data Sources API (SPARK-3247,
// paper §III-C). The engine hands a relation the columns it needs and the
// source-level filters it derived; the relation answers with partitions
// carrying preferred hosts for locality scheduling, and reports which
// predicates it left for the engine to re-apply. SHC's
// HBase relation and the generic baseline both implement exactly these
// interfaces — the engine contains no HBase-specific code, mirroring the
// paper's "least modification in Spark SQL itself".
package datasource

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/shc-go/shc/internal/plan"
)

// Filter is a source-level predicate description, mirroring
// org.apache.spark.sql.sources.Filter. Values are already coerced to the
// column's catalog type.
type Filter interface {
	// References lists the columns the filter touches.
	References() []string
	// String renders the filter.
	String() string
}

// EqualTo keeps rows where Column = Value.
type EqualTo struct {
	Column string
	Value  any
}

// References implements Filter.
func (f EqualTo) References() []string { return []string{f.Column} }

// String implements Filter.
func (f EqualTo) String() string { return fmt.Sprintf("%s = %v", f.Column, f.Value) }

// NotEqual keeps rows where Column != Value (NULLs drop, SQL-style).
type NotEqual struct {
	Column string
	Value  any
}

// References implements Filter.
func (f NotEqual) References() []string { return []string{f.Column} }

// String implements Filter.
func (f NotEqual) String() string { return fmt.Sprintf("%s != %v", f.Column, f.Value) }

// GreaterThan keeps rows where Column > Value.
type GreaterThan struct {
	Column string
	Value  any
}

// References implements Filter.
func (f GreaterThan) References() []string { return []string{f.Column} }

// String implements Filter.
func (f GreaterThan) String() string { return fmt.Sprintf("%s > %v", f.Column, f.Value) }

// GreaterThanOrEqual keeps rows where Column >= Value.
type GreaterThanOrEqual struct {
	Column string
	Value  any
}

// References implements Filter.
func (f GreaterThanOrEqual) References() []string { return []string{f.Column} }

// String implements Filter.
func (f GreaterThanOrEqual) String() string { return fmt.Sprintf("%s >= %v", f.Column, f.Value) }

// LessThan keeps rows where Column < Value.
type LessThan struct {
	Column string
	Value  any
}

// References implements Filter.
func (f LessThan) References() []string { return []string{f.Column} }

// String implements Filter.
func (f LessThan) String() string { return fmt.Sprintf("%s < %v", f.Column, f.Value) }

// LessThanOrEqual keeps rows where Column <= Value.
type LessThanOrEqual struct {
	Column string
	Value  any
}

// References implements Filter.
func (f LessThanOrEqual) References() []string { return []string{f.Column} }

// String implements Filter.
func (f LessThanOrEqual) String() string { return fmt.Sprintf("%s <= %v", f.Column, f.Value) }

// In keeps rows where Column is one of Values.
type In struct {
	Column string
	Values []any
}

// References implements Filter.
func (f In) References() []string { return []string{f.Column} }

// String implements Filter.
func (f In) String() string {
	parts := make([]string, len(f.Values))
	for i, v := range f.Values {
		parts[i] = fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("%s IN (%s)", f.Column, strings.Join(parts, ", "))
}

// NotIn keeps rows where Column is none of Values — the predicate the
// paper's rule-based pushdown deliberately leaves to the engine (§VI-A.3).
type NotIn struct {
	Column string
	Values []any
}

// References implements Filter.
func (f NotIn) References() []string { return []string{f.Column} }

// String implements Filter.
func (f NotIn) String() string {
	parts := make([]string, len(f.Values))
	for i, v := range f.Values {
		parts[i] = fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("%s NOT IN (%s)", f.Column, strings.Join(parts, ", "))
}

// StringStartsWith keeps rows where the string Column begins with Prefix.
type StringStartsWith struct {
	Column string
	Prefix string
}

// References implements Filter.
func (f StringStartsWith) References() []string { return []string{f.Column} }

// String implements Filter.
func (f StringStartsWith) String() string { return fmt.Sprintf("%s LIKE %q%%", f.Column, f.Prefix) }

// AndFilter keeps rows passing both children.
type AndFilter struct {
	Left, Right Filter
}

// References implements Filter.
func (f AndFilter) References() []string {
	return append(f.Left.References(), f.Right.References()...)
}

// String implements Filter.
func (f AndFilter) String() string { return fmt.Sprintf("(%s AND %s)", f.Left, f.Right) }

// OrFilter keeps rows passing either child.
type OrFilter struct {
	Left, Right Filter
}

// References implements Filter.
func (f OrFilter) References() []string {
	return append(f.Left.References(), f.Right.References()...)
}

// String implements Filter.
func (f OrFilter) String() string { return fmt.Sprintf("(%s OR %s)", f.Left, f.Right) }

// Partition is one independently computable slice of a relation's data.
// The scheduler places the compute where PreferredHost points when an
// executor lives there — SHC's data-locality optimization (paper §VI-A.2).
type Partition interface {
	// Index is the partition's ordinal within the scan.
	Index() int
	// PreferredHost names the host holding the data, or "" when any host
	// will do.
	PreferredHost() string
	// Compute materializes the partition's rows in the scan's projected
	// column order. ctx bounds the read: sources abandon RPCs, retries, and
	// backoff sleeps as soon as it is done, so a cancelled query releases
	// its executor slots promptly.
	Compute(ctx context.Context) ([]plan.Row, error)
}

// ErrStopBatches is the sentinel a ComputeBatches yield callback returns to
// end the stream early without error — how a fused LIMIT tells the source to
// stop fetching once enough rows arrived.
var ErrStopBatches = errors.New("datasource: stop batch stream")

// BatchOptions tunes a streaming partition read.
type BatchOptions struct {
	// LimitHint caps the rows the consumer will take from this partition
	// (0 = unlimited). Callers may only set it when every remaining
	// predicate is already evaluated inside the source, so that the first
	// LimitHint rows are exactly the rows the query keeps.
	LimitHint int
	// EagerColumns lists the positions (in the scan's projected column
	// order) that the consumer reads for every row — typically the filter
	// and aggregate inputs. A vectorized source decodes these into typed
	// vectors up front and may leave the rest lazy, decoding only the
	// positions that survive filtering (late materialization). nil means
	// "decode everything eagerly".
	EagerColumns []int
}

// BatchScan is an optional Partition capability: compute the partition's
// rows as a stream of bounded batches instead of one materialized slice.
// yield is called with consecutive batches in row order; if it returns
// ErrStopBatches the stream ends and ComputeBatches returns nil, and any
// other error aborts the stream and is returned as-is. The batch slice is
// only valid for the duration of the yield call (sources may reuse its
// backing array); the rows it holds stay valid, so consumers keep rows by
// copying them out of the slice, never by retaining the slice itself.
type BatchScan interface {
	ComputeBatches(ctx context.Context, opts BatchOptions, yield func([]plan.Row) error) error
}

// StreamPartition streams p's rows through yield, using the BatchScan fast
// path when the partition implements it and falling back to a single
// materialized batch otherwise — the compatibility shim that lets the
// pipelined executor run over any Partition.
func StreamPartition(ctx context.Context, p Partition, opts BatchOptions, yield func([]plan.Row) error) error {
	if bs, ok := p.(BatchScan); ok {
		return bs.ComputeBatches(ctx, opts, yield)
	}
	rows, err := p.Compute(ctx)
	if err != nil {
		return err
	}
	if opts.LimitHint > 0 && len(rows) > opts.LimitHint {
		rows = rows[:opts.LimitHint]
	}
	if len(rows) == 0 {
		return nil
	}
	if err := yield(rows); err != nil && !errors.Is(err, ErrStopBatches) {
		return err
	}
	return nil
}

// VectorScan is an optional Partition capability: compute the partition as
// a stream of column batches — typed vectors with null bitmaps — instead of
// row slices. The batch holds the scan's projected columns in order, and
// the same ErrStopBatches/LimitHint contract as BatchScan applies. The
// batch (vectors included) is only valid for the duration of the yield
// call: sources reuse and re-fill it, so consumers materialize whatever
// they keep before returning.
type VectorScan interface {
	ComputeVectors(ctx context.Context, opts BatchOptions, yield func(*plan.Batch) error) error
}

// Aggregate is one aggregate a source may fold for the engine.
type Aggregate struct {
	// Kind is plan.AggCount, AggSum, AggAvg, AggMin or AggMax.
	Kind plan.AggKind
	// Column is the input's position in the scan's projected columns; -1
	// for COUNT(*).
	Column int
}

// AggregatePartial is one aggregate's partial state over a partition.
// Count counts rows (COUNT(*)), non-NULL values (COUNT, SUM, AVG); Sum is
// the float64 sum of SUM/AVG inputs added in partition row order. Has
// reports that MIN/MAX saw a value: Float is that extreme as float64, the
// comparison key, and Int the exact integer behind it for integer columns.
type AggregatePartial struct {
	Count int64
	Sum   float64
	Has   bool
	Float float64
	Int   int64
}

// AggregateScan is an optional Partition capability: fold the partition's
// rows — every predicate already evaluated at the source — into partial
// aggregates where the data lives, so only the partials travel. Partials
// come back in aggs order. ok=false means the source declines these
// aggregates without having read anything; the caller then scans rows.
type AggregateScan interface {
	ComputeAggregates(ctx context.Context, aggs []Aggregate) (partials []AggregatePartial, ok bool, err error)
}

// Relation is a table provided by an external source.
type Relation interface {
	// Name identifies the relation for plans and error messages.
	Name() string
	// Schema describes the relational view of the source.
	Schema() plan.Schema
}

// PrunedFilteredScan is a relation that accepts column pruning and filter
// pushdown, Spark's PrunedFilteredScan contract.
type PrunedFilteredScan interface {
	Relation
	// BuildScan returns the partitions of a scan restricted to the
	// required columns, with the given filters pushed as far into the
	// source as the relation can manage, and the positions in filters,
	// ascending, of those the relation does NOT fully evaluate. The engine
	// re-applies exactly those and skips re-filtering the rest — Spark's
	// unhandledFilters contract, which the paper calls out as an effective
	// optimization (§VI-A.3), answered by the pass that planned the scan.
	BuildScan(requiredColumns []string, filters []Filter) (parts []Partition, unhandled []int, err error)
}

// ScanPreparer is an optional PrunedFilteredScan capability: BuildScan
// split into a step that depends only on the scan's shape and a step that
// takes the filter values. A prepared query plans the first step once and
// runs only the second per execution.
type ScanPreparer interface {
	PrunedFilteredScan
	// PrepareScan does the part of BuildScan(requiredColumns, filters)
	// that holds for any values of the filters marked slotted: every other
	// filter's value, and each filter's kind and column, stay as given.
	// slotted nil marks none. It fails where BuildScan would fail for
	// every value.
	PrepareScan(requiredColumns []string, filters []Filter, slotted []bool) (PreparedScan, error)
}

// PreparedScan is a scan planned up to its slotted filter values. It is
// immutable and safe for concurrent Binds.
type PreparedScan interface {
	// BindScan returns what BuildScan(requiredColumns, filters) would,
	// for filters that differ from the preparing ones only in the values
	// of slotted filters, planned against the source's current state.
	BindScan(filters []Filter) (parts []Partition, unhandled []int, err error)
}

// PrepareScan prepares a scan of rel: through its own PrepareScan when rel
// is a ScanPreparer, else as a PreparedScan whose every bind is a full
// BuildScan.
func PrepareScan(rel PrunedFilteredScan, requiredColumns []string, filters []Filter, slotted []bool) (PreparedScan, error) {
	if sp, ok := rel.(ScanPreparer); ok {
		return sp.PrepareScan(requiredColumns, filters, slotted)
	}
	return buildEachBind{rel: rel, required: requiredColumns}, nil
}

// buildEachBind is the PreparedScan of a source that cannot split
// BuildScan.
type buildEachBind struct {
	rel      PrunedFilteredScan
	required []string
}

// BindScan implements PreparedScan.
func (b buildEachBind) BindScan(filters []Filter) ([]Partition, []int, error) {
	return b.rel.BuildScan(b.required, filters)
}

// Statistics is an optional relation capability: sources that can estimate
// their cardinality enable the engine's cost-based decisions (join-side
// selection), the "cost-based optimization mechanisms" the paper credits
// Catalyst with (§I).
type Statistics interface {
	// EstimatedRowCount returns an approximate row count and whether an
	// estimate is available.
	EstimatedRowCount() (int64, bool)
}

// InsertableRelation is a relation that accepts writes — the DataFrame
// write path (paper Code 2).
type InsertableRelation interface {
	Relation
	// Insert appends the rows, whose layout matches Schema.
	Insert(rows []plan.Row) error
}

// BulkLoadableRelation is an optional write capability: relations whose
// store offers a bulk-load path (HBase's completebulkload) accept rows as
// pre-sorted store files that bypass the normal write pipeline — no WAL, no
// MemStore, no flush — for high-volume initial loads.
type BulkLoadableRelation interface {
	InsertableRelation
	// BulkLoad writes the rows through the store's bulk-load path.
	BulkLoad(rows []plan.Row) error
}

// EvalFilter applies a source filter description to a row (used by sources
// without native filtering, and by tests as the reference semantics).
func EvalFilter(f Filter, schema plan.Schema, row plan.Row) (bool, error) {
	switch x := f.(type) {
	case EqualTo:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c == 0 })
	case NotEqual:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c != 0 })
	case GreaterThan:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c > 0 })
	case GreaterThanOrEqual:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c >= 0 })
	case LessThan:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c < 0 })
	case LessThanOrEqual:
		return cmpFilter(schema, row, x.Column, x.Value, func(c int) bool { return c <= 0 })
	case In:
		for _, v := range x.Values {
			ok, err := cmpFilter(schema, row, x.Column, v, func(c int) bool { return c == 0 })
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case NotIn:
		ok, err := EvalFilter(In{Column: x.Column, Values: x.Values}, schema, row)
		if err != nil {
			return false, err
		}
		i := schema.IndexOf(x.Column)
		if i < 0 || row[i] == nil {
			return false, nil
		}
		return !ok, nil
	case StringStartsWith:
		i := schema.IndexOf(x.Column)
		if i < 0 {
			return false, fmt.Errorf("datasource: column %q not in schema", x.Column)
		}
		s, ok := row[i].(string)
		return ok && strings.HasPrefix(s, x.Prefix), nil
	case AndFilter:
		l, err := EvalFilter(x.Left, schema, row)
		if err != nil || !l {
			return false, err
		}
		return EvalFilter(x.Right, schema, row)
	case OrFilter:
		l, err := EvalFilter(x.Left, schema, row)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return EvalFilter(x.Right, schema, row)
	}
	return false, fmt.Errorf("datasource: unknown filter %T", f)
}

func cmpFilter(schema plan.Schema, row plan.Row, col string, val any, ok func(int) bool) (bool, error) {
	i := schema.IndexOf(col)
	if i < 0 {
		return false, fmt.Errorf("datasource: column %q not in schema", col)
	}
	if row[i] == nil || val == nil {
		return false, nil
	}
	c, err := plan.Compare(row[i], val)
	if err != nil {
		return false, err
	}
	return ok(c), nil
}
