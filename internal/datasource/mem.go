package datasource

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/shc-go/shc/internal/plan"
)

// MemRelation is the reference in-memory data source: it supports pruned,
// filtered scans (handling every filter itself) and inserts. The examples
// use it as the stand-in for Hive tables living next to HBase clusters, and
// tests use it as the known-good source semantics.
type MemRelation struct {
	name       string
	schema     plan.Schema
	partitions int

	mu   sync.RWMutex
	rows []plan.Row
}

// NewMemRelation creates an empty in-memory table split into partitions
// chunks for scans (minimum 1).
func NewMemRelation(name string, schema plan.Schema, partitions int) *MemRelation {
	if partitions <= 0 {
		partitions = 1
	}
	return &MemRelation{name: name, schema: schema, partitions: partitions}
}

// Name implements Relation.
func (m *MemRelation) Name() string { return m.name }

// Schema implements Relation.
func (m *MemRelation) Schema() plan.Schema { return m.schema }

// Insert implements InsertableRelation.
func (m *MemRelation) Insert(rows []plan.Row) error {
	for _, r := range rows {
		if len(r) != len(m.schema) {
			return fmt.Errorf("datasource: row width %d != schema width %d", len(r), len(m.schema))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows = append(m.rows, rows...)
	return nil
}

// Count reports the stored row count.
func (m *MemRelation) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.rows)
}

// EstimatedRowCount implements Statistics exactly.
func (m *MemRelation) EstimatedRowCount() (int64, bool) { return int64(m.Count()), true }

// BuildScan implements PrunedFilteredScan; the in-memory source evaluates
// every filter itself, so none is left unhandled.
func (m *MemRelation) BuildScan(requiredColumns []string, filters []Filter) ([]Partition, []int, error) {
	idx := make([]int, len(requiredColumns))
	for i, c := range requiredColumns {
		j := m.schema.IndexOf(c)
		if j < 0 {
			return nil, nil, fmt.Errorf("datasource: %s has no column %q", m.name, c)
		}
		idx[i] = j
	}
	m.mu.RLock()
	rows := m.rows
	m.mu.RUnlock()

	n := m.partitions
	if n > len(rows) && len(rows) > 0 {
		n = len(rows)
	}
	if len(rows) == 0 {
		n = 1
	}
	parts := make([]Partition, n)
	chunk := (len(rows) + n - 1) / n
	for p := 0; p < n; p++ {
		lo := p * chunk
		hi := lo + chunk
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		parts[p] = &memPartition{
			rel: m, index: p, rows: rows[lo:hi], colIdx: idx, filters: filters,
		}
	}
	return parts, nil, nil
}

type memPartition struct {
	rel     *MemRelation
	index   int
	rows    []plan.Row
	colIdx  []int
	filters []Filter
}

// Index implements Partition.
func (p *memPartition) Index() int { return p.index }

// PreferredHost implements Partition; in-memory data has no locality.
func (p *memPartition) PreferredHost() string { return "" }

// Compute implements Partition.
func (p *memPartition) Compute(ctx context.Context) ([]plan.Row, error) {
	var out []plan.Row
	err := p.ComputeBatches(ctx, BatchOptions{}, func(batch []plan.Row) error {
		out = append(out, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// memBatchRows bounds the rows per batch a memory partition yields.
const memBatchRows = 256

// ComputeBatches implements BatchScan: filter and project row-at-a-time,
// yielding bounded batches, so the engine's pipeline never holds more than
// one batch of this partition at once.
func (p *memPartition) ComputeBatches(ctx context.Context, opts BatchOptions, yield func([]plan.Row) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	emitted := 0
	batch := make([]plan.Row, 0, memBatchRows)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := yield(batch)
		batch = batch[:0]
		return err
	}
	for _, r := range p.rows {
		keep := true
		for _, f := range p.filters {
			ok, err := EvalFilter(f, p.rel.schema, r)
			if err != nil {
				return err
			}
			if !ok {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		nr := make(plan.Row, len(p.colIdx))
		for i, j := range p.colIdx {
			nr[i] = r[j]
		}
		batch = append(batch, nr)
		emitted++
		if opts.LimitHint > 0 && emitted >= opts.LimitHint {
			break
		}
		if len(batch) >= memBatchRows {
			if err := flush(); err != nil {
				if errors.Is(err, ErrStopBatches) {
					return nil
				}
				return err
			}
		}
	}
	if err := flush(); err != nil && !errors.Is(err, ErrStopBatches) {
		return err
	}
	return nil
}

// ComputeVectors implements VectorScan by transposing the filtered,
// projected row stream into one reused column batch — the in-memory source
// pays no decode cost, so eager vs lazy does not apply here.
func (p *memPartition) ComputeVectors(ctx context.Context, opts BatchOptions, yield func(*plan.Batch) error) error {
	schema := make(plan.Schema, len(p.colIdx))
	for i, j := range p.colIdx {
		schema[i] = p.rel.schema[j]
	}
	batch := plan.NewBatch(schema)
	return p.ComputeBatches(ctx, opts, func(rows []plan.Row) error {
		batch.Reset()
		for _, r := range rows {
			if err := batch.AppendRow(r); err != nil {
				return err
			}
		}
		return yield(batch)
	})
}
