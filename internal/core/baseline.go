package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// StringCoder models the generic conversion path stock Spark SQL uses when
// it treats HBase as just another Hadoop data source: every value crosses
// the boundary as its string rendering. It round-trips correctly but is
// slower to encode, bigger on the wire, and numeric encodings do not sort,
// so nothing built on it can do range pruning.
type StringCoder struct{}

// Name implements FieldCoder.
func (StringCoder) Name() string { return "String" }

// OrderPreserving implements FieldCoder: "10" < "9" byte-wise.
func (StringCoder) OrderPreserving() bool { return false }

// Encode implements FieldCoder.
func (StringCoder) Encode(v any, t plan.DataType) ([]byte, error) {
	cv, err := plan.CoerceLiteral(v, t)
	if err != nil {
		return nil, err
	}
	switch x := cv.(type) {
	case string:
		return []byte(x), nil
	case []byte:
		return []byte(fmt.Sprintf("%x", x)), nil
	case float32:
		return []byte(strconv.FormatFloat(float64(x), 'g', -1, 32)), nil
	case float64:
		return []byte(strconv.FormatFloat(x, 'g', -1, 64)), nil
	case bool:
		return []byte(strconv.FormatBool(x)), nil
	default:
		i, ok := plan.ToInt(cv)
		if !ok {
			return nil, fmt.Errorf("core: string coder cannot encode %T", cv)
		}
		return []byte(strconv.FormatInt(i, 10)), nil
	}
}

// Decode implements FieldCoder.
func (StringCoder) Decode(b []byte, t plan.DataType) (any, error) {
	s := string(b)
	switch t {
	case plan.TypeString:
		return s, nil
	case plan.TypeBool:
		return strconv.ParseBool(s)
	case plan.TypeBinary:
		var out []byte
		_, err := fmt.Sscanf(s, "%x", &out)
		return out, err
	case plan.TypeFloat32:
		f, err := strconv.ParseFloat(s, 32)
		return float32(f), err
	case plan.TypeFloat64:
		return strconv.ParseFloat(s, 64)
	default:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, err
		}
		return plan.CoerceLiteral(i, t)
	}
}

// BaselineRelation models how stock Spark SQL reads and writes HBase
// without SHC (paper §II, §VII-A): the store is a generic Hadoop source, so
// every scan reads every region in full — no partition pruning, no column
// pruning, no predicate pushdown, no locality — and the engine filters the
// decoded rows afterwards. Writes convert values through the generic string
// path.
type BaselineRelation struct {
	cat    *Catalog
	coder  FieldCoder
	client *hbase.Client
	meter  *metrics.Registry
	opts   Options
}

// NewBaselineRelation builds the baseline over an HBase client.
func NewBaselineRelation(client *hbase.Client, cat *Catalog, opts Options, meter *metrics.Registry) *BaselineRelation {
	return &BaselineRelation{cat: cat, coder: StringCoder{}, client: client, meter: meter, opts: opts}
}

// Name implements datasource.Relation.
func (b *BaselineRelation) Name() string { return b.cat.Table.Name }

// Schema implements datasource.Relation.
func (b *BaselineRelation) Schema() plan.Schema { return b.cat.Schema() }

// BuildScan implements datasource.PrunedFilteredScan. Filters are ignored
// (the generic source cannot push them), so every one is left unhandled
// and the engine re-applies it, and every column of every region is
// fetched; the projection is applied only after decoding, which is exactly
// the redundant processing the paper attributes to the HadoopRDD path.
func (b *BaselineRelation) BuildScan(requiredColumns []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	for _, col := range requiredColumns {
		if _, err := b.cat.Column(col); err != nil {
			return nil, nil, err
		}
	}
	b.meter.Add(metrics.FiltersUnhandled, int64(len(filters)))
	unhandled := make([]int, len(filters))
	for i := range unhandled {
		unhandled[i] = i
	}
	regions, err := b.client.Regions(b.cat.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	parts := make([]datasource.Partition, len(regions))
	for i, ri := range regions {
		parts[i] = &baselinePartition{rel: b, index: i, region: ri, required: requiredColumns}
	}
	return parts, unhandled, nil
}

type baselinePartition struct {
	rel      *BaselineRelation
	index    int
	region   hbase.RegionInfo
	required []string
}

// Index implements datasource.Partition.
func (p *baselinePartition) Index() int { return p.index }

// PreferredHost implements datasource.Partition: the generic path does not
// surface region locations, so tasks land anywhere.
func (p *baselinePartition) PreferredHost() string { return "" }

// Batches implements datasource.Partition: full region scan, all columns,
// then decode everything and project; the first opts.LimitHint rows (all
// when 0) are yielded as one BoxedBatch.
func (p *baselinePartition) Batches(ctx context.Context, opts datasource.BatchOptions, yield func(*plan.Batch) error) error {
	ctx = bridgeConsistency(ctx)
	scan := &hbase.Scan{
		MaxVersions: p.rel.opts.maxVersions(),
		TimeRange:   p.rel.opts.timeRange(),
	}
	results, err := p.rel.client.ScanRegionContext(ctx, p.region, scan)
	if err != nil {
		return err
	}
	schema := p.rel.cat.Schema()
	out := make(plan.Schema, len(p.required))
	for j, col := range p.required {
		out[j] = schema[schema.IndexOf(col)]
	}
	rows := make([]plan.Row, 0, len(results))
	for i := range results {
		// Decode the FULL row first (the HadoopRDD has no schema to prune
		// with), then project.
		full, err := p.rel.decodeFull(&results[i], schema)
		if err != nil {
			return err
		}
		row := make(plan.Row, len(p.required))
		for j, col := range p.required {
			row[j] = full[schema.IndexOf(col)]
		}
		rows = append(rows, row)
	}
	if opts.LimitHint > 0 && len(rows) > opts.LimitHint {
		rows = rows[:opts.LimitHint]
	}
	if len(rows) == 0 {
		return nil
	}
	if err := yield(plan.BoxedBatch(out, rows)); err != nil && !errors.Is(err, datasource.ErrStopBatches) {
		return err
	}
	return nil
}

func (b *BaselineRelation) decodeFull(res *hbase.Result, schema plan.Schema) (plan.Row, error) {
	keyVals, err := b.decodeRowkey(res.Row)
	if err != nil {
		return nil, err
	}
	row := make(plan.Row, len(schema))
	for i, f := range schema {
		if dim, ok := b.cat.IsRowkeyField(f.Name); ok {
			row[i] = keyVals[dim]
			continue
		}
		spec := b.cat.Columns[f.Name]
		raw, ok := res.Value(spec.CF, spec.Col)
		if !ok {
			continue
		}
		v, err := b.coder.Decode(raw, f.Type)
		if err != nil {
			return nil, fmt.Errorf("core: baseline decode %s: %w", f.Name, err)
		}
		row[i] = v
	}
	return row, nil
}

// Insert implements datasource.InsertableRelation: the baseline write path,
// creating the table unsplit and converting every value through strings.
func (b *BaselineRelation) Insert(rows []plan.Row) error {
	schema := b.cat.Schema()
	keyFields := b.cat.RowkeyFields()
	ts := b.opts.WriteTimestamp
	if ts == 0 {
		ts = 1
	}
	tables, err := b.client.ListTables()
	if err != nil {
		return err
	}
	exists := false
	for _, t := range tables {
		if t == b.cat.Table.Name {
			exists = true
		}
	}
	if !exists {
		// The generic path has no pre-split hook.
		if err := b.client.CreateTable(b.cat.TableDescriptor(b.opts.maxVersions()), nil); err != nil {
			return err
		}
	}
	var cells []hbase.Cell
	for _, row := range rows {
		if len(row) != len(schema) {
			return fmt.Errorf("core: row width %d does not match catalog schema %d", len(row), len(schema))
		}
		key, err := b.encodeRowkey(row[:len(keyFields)])
		if err != nil {
			return err
		}
		for i := len(keyFields); i < len(schema); i++ {
			if row[i] == nil {
				continue
			}
			spec := b.cat.Columns[schema[i].Name]
			enc, err := b.coder.Encode(row[i], schema[i].Type)
			if err != nil {
				return err
			}
			cells = append(cells, hbase.Cell{
				Row: key, Family: spec.CF, Qualifier: spec.Col,
				Timestamp: ts, Type: hbase.TypePut, Value: enc,
			})
		}
	}
	return b.client.Put(b.cat.Table.Name, cells)
}

// encodeRowkey joins string-rendered dimensions with a NUL separator.
func (b *BaselineRelation) encodeRowkey(vals []any) ([]byte, error) {
	fields := b.cat.RowkeyFields()
	parts := make([]string, len(fields))
	for i, f := range fields {
		if vals[i] == nil {
			return nil, fmt.Errorf("core: rowkey dimension %q is NULL", f)
		}
		enc, err := b.coder.Encode(vals[i], b.cat.fieldType(f))
		if err != nil {
			return nil, err
		}
		if strings.ContainsRune(string(enc), 0) {
			return nil, fmt.Errorf("core: rowkey dimension %q contains NUL", f)
		}
		parts[i] = string(enc)
	}
	return []byte(strings.Join(parts, "\x00")), nil
}

func (b *BaselineRelation) decodeRowkey(key []byte) ([]any, error) {
	fields := b.cat.RowkeyFields()
	parts := strings.SplitN(string(key), "\x00", len(fields))
	if len(parts) != len(fields) {
		return nil, fmt.Errorf("core: rowkey %x has %d dimensions, want %d", key, len(parts), len(fields))
	}
	out := make([]any, len(fields))
	for i, f := range fields {
		v, err := b.coder.Decode([]byte(parts[i]), b.cat.fieldType(f))
		if err != nil {
			return nil, fmt.Errorf("core: baseline rowkey %q: %w", f, err)
		}
		out[i] = v
	}
	return out, nil
}
