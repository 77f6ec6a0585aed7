package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// PipelineExec is a fused scan→filter→project→limit chain executed as one
// streaming operator per partition — the batch-pipeline alternative to the
// Volcano-style materialize-at-every-operator execution the rest of the
// physical layer uses. Each partition's rows arrive as bounded batches
// (datasource.BatchScan) and flow through the residual filter, projection,
// and limit without the scan output ever being materialized whole; batch
// memory is released as soon as the batch is processed, so peak memory
// tracks the output plus one in-flight batch instead of the full scan.
//
// Pipeline breakers (sort, join, aggregate, union) never fuse: they need
// their whole input, so they sit above the pipeline and consume its output
// as before.
type PipelineExec struct {
	// Scan is the fused chain's source.
	Scan *ScanExec
	// Chain is the original (pre-fusion) operator subtree, exposed via
	// Children so EXPLAIN shows the fused stages — including the scan with
	// its pushed filters — indented under the pipeline.
	Chain PhysicalPlan
	// Cond is the residual predicate applied to each scanned row, nil when
	// every predicate was pushed into (and handled by) the source.
	Cond plan.Expr
	// Exprs is the fused projection, nil for passthrough.
	Exprs []plan.NamedExpr
	// OutSchema describes the pipeline's output.
	OutSchema plan.Schema
	// Limit caps the total output rows; 0 means unlimited.
	Limit int
	// BatchSize bounds the rows per streamed batch; 0 lets the source pick.
	BatchSize int
	// Vectorize enables the columnar path: partitions exposing
	// datasource.VectorScan stream typed column batches that the residual
	// filter and projection — compiled once per query into closures over
	// vectors — consume with selection vectors. Partitions without the
	// capability keep the row path.
	Vectorize bool

	// Compiled vector program, built lazily on first vectorized partition
	// and shared (immutably) by all partition tasks.
	vecOnce   sync.Once
	vecFilter *plan.CompiledFilter
	vecProj   *plan.CompiledProjection
	vecEager  []int
	vecBad    bool
}

// Schema implements PhysicalPlan.
func (p *PipelineExec) Schema() plan.Schema { return p.OutSchema }

// Children implements PhysicalPlan.
func (p *PipelineExec) Children() []PhysicalPlan { return []PhysicalPlan{p.Chain} }

// Explain implements PhysicalPlan.
func (p *PipelineExec) Explain() string {
	var b strings.Builder
	b.WriteString("PipelineExec")
	if p.Cond != nil {
		b.WriteString(" filter=" + p.Cond.String())
	}
	if p.Exprs != nil {
		names := make([]string, len(p.Exprs))
		for i, ne := range p.Exprs {
			names[i] = ne.Name
		}
		b.WriteString(" project=[" + strings.Join(names, ",") + "]")
	}
	if p.Limit > 0 {
		fmt.Fprintf(&b, " limit=%d", p.Limit)
	}
	return b.String()
}

// limitTracker coordinates the global LIMIT short circuit across partition
// tasks. Capping every partition at N and truncating the index-ordered
// concatenation to N is exactly the materialized semantics; on top of that,
// once the complete prefix of partitions already holds N rows, every later
// partition's output is unreachable after the truncate, so its task can be
// skipped (or its stream stopped) without changing the answer.
type limitTracker struct {
	limit int
	sat   atomic.Bool

	mu         sync.Mutex
	kept       []int
	done       []bool
	prefixLen  int // leading partitions all complete
	prefixKept int // rows kept within that prefix
}

func newLimitTracker(parts, limit int) *limitTracker {
	return &limitTracker{limit: limit, kept: make([]int, parts), done: make([]bool, parts)}
}

// satisfied reports that the complete partition prefix already covers the
// limit, making every not-yet-finished partition irrelevant.
func (t *limitTracker) satisfied() bool { return t.sat.Load() }

// complete records partition i finishing with kept rows.
func (t *limitTracker) complete(i, kept int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done[i] = true
	t.kept[i] = kept
	for t.prefixLen < len(t.done) && t.done[t.prefixLen] {
		t.prefixKept += t.kept[t.prefixLen]
		t.prefixLen++
	}
	if t.prefixKept >= t.limit {
		t.sat.Store(true)
	}
}

// Execute implements PhysicalPlan: one streaming task per partition with
// locality, per-partition limit caps, and a global short circuit that skips
// partitions made irrelevant by already-complete ones.
func (p *PipelineExec) Execute(ctx *Context) ([]plan.Row, error) {
	parts := p.Scan.Partitions
	var tracker *limitTracker
	if p.Limit > 0 {
		tracker = newLimitTracker(len(parts), p.Limit)
	}
	results := make([][]plan.Row, len(parts))
	tasks := make([]Task, len(parts))
	for i, part := range parts {
		i, part := i, part
		tasks[i] = Task{
			PreferredHost: part.PreferredHost(),
			Run: func(tctx context.Context) error {
				if tracker != nil && tracker.satisfied() {
					// Earlier partitions already hold the first Limit rows;
					// this partition's output cannot survive the truncate.
					tracker.complete(i, 0)
					return nil
				}
				out, kept, err := p.runPartition(tctx, ctx, part, tracker)
				if err != nil {
					return err
				}
				results[i] = out
				if tracker != nil {
					tracker.complete(i, kept)
				}
				return nil
			},
		}
	}
	out, err := runAll(ctx, tasks, results)
	if err != nil {
		return nil, err
	}
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out, nil
}

// runPartition streams one partition through the fused operators, on the
// columnar path when both the partition and the compiled program support it.
func (p *PipelineExec) runPartition(tctx context.Context, ctx *Context, part datasource.Partition, tracker *limitTracker) ([]plan.Row, int, error) {
	if p.Vectorize {
		if vs, ok := part.(datasource.VectorScan); ok {
			if _, _, _, ok := p.vecProgram(); ok {
				return p.runPartitionVector(tctx, ctx, vs, tracker)
			}
		}
	}
	return p.runPartitionRows(tctx, ctx, part, tracker)
}

// runPartitionRows is the row-at-a-time interpreter path.
func (p *PipelineExec) runPartitionRows(tctx context.Context, ctx *Context, part datasource.Partition, tracker *limitTracker) ([]plan.Row, int, error) {
	opts := datasource.BatchOptions{BatchSize: p.BatchSize}
	// The limit only pushes into the source when the source evaluates every
	// remaining predicate itself; a residual filter means the first N
	// scanned rows are not necessarily the first N kept rows.
	if p.Limit > 0 && p.Cond == nil {
		opts.LimitHint = p.Limit
	}
	var out []plan.Row
	kept := 0
	m := metrics.Scoped(tctx, ctx.Meter)
	err := datasource.StreamPartition(tctx, part, opts, func(batch []plan.Row) error {
		m.Inc(metrics.BatchesStreamed)
		var batchBytes int64
		for _, r := range batch {
			batchBytes += int64(plan.RowSize(r))
		}
		// Every decoded row is charged (same meaning as the materialized
		// path); the held/peak pair additionally tracks that batch memory is
		// released once the batch is processed.
		m.Add(metrics.MemoryCharged, batchBytes)
		m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, batchBytes)

		stop := false
		var keptBytes int64
		for bi, r := range batch {
			if p.Limit > 0 && kept >= p.Limit {
				// Rows past the per-partition cap are dropped unprocessed.
				m.Add(metrics.RowsShortCircuited, int64(len(batch)-bi))
				stop = true
				break
			}
			if p.Cond != nil {
				ok, err := plan.EvalPredicate(p.Cond, r)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			nr := r
			if p.Exprs != nil {
				nr = make(plan.Row, len(p.Exprs))
				for j, ne := range p.Exprs {
					v, err := ne.Expr.Eval(r)
					if err != nil {
						return err
					}
					nr[j] = v
				}
			}
			out = append(out, nr)
			keptBytes += int64(plan.RowSize(nr))
			kept++
		}
		// The batch is consumed: release its bytes, keep only the output's.
		m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, keptBytes)
		m.Add(metrics.MemoryHeld, -batchBytes)
		if stop || (p.Limit > 0 && kept >= p.Limit) {
			return datasource.ErrStopBatches
		}
		if tracker != nil && tracker.satisfied() {
			return datasource.ErrStopBatches
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, kept, nil
}

// FusePipelines rewrites every Limit→Project→Filter→Scan chain (each layer
// optional, at least one above the scan) into a PipelineExec with the
// columnar path enabled. Operators outside such chains — the pipeline
// breakers — are rebuilt with fused children.
func FusePipelines(p PhysicalPlan) PhysicalPlan { return FusePipelinesWith(p, true) }

// FusePipelinesWith is FusePipelines with the columnar path switchable:
// vectorize=false compiles the same fused pipelines but keeps them on the
// row-at-a-time interpreter (the row side of the vector-vs-row benchmark).
func FusePipelinesWith(p PhysicalPlan, vectorize bool) PhysicalPlan {
	if fused, ok := fuseChain(p, vectorize); ok {
		return fused
	}
	switch n := p.(type) {
	case *FilterExec:
		n.Child = FusePipelinesWith(n.Child, vectorize)
	case *ProjectExec:
		n.Child = FusePipelinesWith(n.Child, vectorize)
	case *LimitExec:
		n.Child = FusePipelinesWith(n.Child, vectorize)
	case *SortExec:
		n.Child = FusePipelinesWith(n.Child, vectorize)
	case *HashAggExec:
		if vectorize {
			if fused, ok := fuseAgg(n); ok {
				return fused
			}
		}
		n.Child = FusePipelinesWith(n.Child, vectorize)
	case *HashJoinExec:
		n.Left = FusePipelinesWith(n.Left, vectorize)
		n.Right = FusePipelinesWith(n.Right, vectorize)
	case *SortMergeJoinExec:
		n.Left = FusePipelinesWith(n.Left, vectorize)
		n.Right = FusePipelinesWith(n.Right, vectorize)
	case *UnionExec:
		for i, in := range n.Inputs {
			n.Inputs[i] = FusePipelinesWith(in, vectorize)
		}
	}
	return p
}

// fuseChain matches Limit? Project? Filter* Scan from the top of p. A bare
// scan is left alone — fusing it would add streaming overhead with nothing
// to fuse against.
func fuseChain(p PhysicalPlan, vectorize bool) (PhysicalPlan, bool) {
	node := p
	limit := 0
	if l, ok := node.(*LimitExec); ok && l.N > 0 {
		// The pipeline uses 0 as "no limit", so a degenerate LIMIT 0 stays
		// an unfused LimitExec and truncates as before.
		limit = l.N
		node = l.Child
	}
	var exprs []plan.NamedExpr
	var outSchema plan.Schema
	if pr, ok := node.(*ProjectExec); ok {
		exprs = pr.Exprs
		outSchema = pr.OutSchema
		node = pr.Child
	}
	var conds []plan.Expr
	for {
		f, ok := node.(*FilterExec)
		if !ok {
			break
		}
		conds = append(conds, f.Cond)
		node = f.Child
	}
	scan, ok := node.(*ScanExec)
	if !ok {
		return nil, false
	}
	if limit == 0 && exprs == nil && len(conds) == 0 {
		return nil, false
	}
	if outSchema == nil {
		outSchema = scan.OutSchema
	}
	return &PipelineExec{
		Scan:      scan,
		Chain:     p,
		Cond:      plan.CombineConjuncts(conds),
		Exprs:     exprs,
		OutSchema: outSchema,
		Limit:     limit,
		Vectorize: vectorize,
	}, true
}
