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

// memBatchRows bounds the rows per batch a streamed memory partition
// yields.
const memBatchRows = 256

// Batches implements Partition: filter and project row-at-a-time. Under
// Keep the surviving rows are yielded as one BoxedBatch; otherwise they
// are transposed into one reused typed batch of at most memBatchRows
// rows, so the engine's pipeline never holds more than one batch of this
// partition at once. The in-memory source pays no decode cost, so eager vs
// lazy does not apply here.
func (p *memPartition) Batches(ctx context.Context, opts BatchOptions, yield func(*plan.Batch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	schema := make(plan.Schema, len(p.colIdx))
	for i, j := range p.colIdx {
		schema[i] = p.rel.schema[j]
	}
	var kept []plan.Row
	batch := plan.NewBatch(schema)
	scratch := make(plan.Row, len(p.colIdx))
	emitted := 0
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
		nr := scratch
		if opts.Keep {
			nr = make(plan.Row, len(p.colIdx))
		}
		for i, j := range p.colIdx {
			nr[i] = r[j]
		}
		if opts.Keep {
			kept = append(kept, nr)
		} else if err := batch.AppendRow(nr); err != nil {
			return err
		}
		emitted++
		if opts.LimitHint > 0 && emitted >= opts.LimitHint {
			break
		}
		if !opts.Keep && batch.Len() >= memBatchRows {
			err := yield(batch)
			batch.Reset()
			if err != nil {
				return endStream(err)
			}
		}
	}
	switch {
	case len(kept) > 0:
		return endStream(yield(plan.BoxedBatch(schema, kept)))
	case batch.Len() > 0:
		return endStream(yield(batch))
	}
	return nil
}

// endStream is what a source's Batches returns once yield returned err:
// nil when err asks the stream to stop, err otherwise.
func endStream(err error) error {
	if errors.Is(err, ErrStopBatches) {
		return nil
	}
	return err
}
