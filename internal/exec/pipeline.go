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
// (datasource.Partition.Batches without Keep) and flow through the
// residual filter, projection, and limit without the scan output ever
// being materialized whole; batch memory is released as soon as the batch
// is processed, so peak memory tracks the output plus one in-flight batch
// instead of the full scan.
//
// With Aggs set the pipeline ends in a global aggregate instead of rows:
// each partition folds the rows that survive the filter into partial
// aggregate states — at the source when it can, else over column batches
// with typed loops, else row-at-a-time — and the partials merge in
// partition order into the single output row. Only aggregates whose
// partial merge is order-insensitive in the row path's float64 space fuse
// (count/sum/avg/min/max over a column or *).
//
// Other pipeline breakers (sort, join, grouped or exotic aggregates, union)
// never fuse: they need their whole input, so they sit above the pipeline
// and consume its output as before.
type PipelineExec struct {
	// Scan is the fused chain's source.
	Scan *ScanExec
	// Chain is the original (pre-fusion) operator subtree — for an
	// aggregate pipeline, the HashAggExec subtree — exposed via Children so
	// EXPLAIN shows the fused stages, including the scan with its pushed
	// filters, indented under the pipeline.
	Chain PhysicalPlan
	// Cond is the residual predicate applied to each scanned row, nil when
	// every predicate was pushed into (and handled by) the source.
	Cond plan.Expr
	// Exprs is the fused projection, nil for passthrough. An aggregate
	// pipeline never projects: its projection is resolved into aggArgs.
	Exprs []plan.NamedExpr
	// OutSchema describes the pipeline's output.
	OutSchema plan.Schema
	// Limit caps the total output rows; 0 means unlimited. Always 0 for an
	// aggregate pipeline (a LIMIT below a global aggregate cannot be split
	// across partitions).
	Limit int
	// Vectorize enables the columnar path: typed column batches go
	// through the residual filter and projection compiled once per query
	// into closures over vectors, which consume them with selection
	// vectors. Boxed batches (a source that decodes rows whole) keep the
	// row path.
	Vectorize bool
	// Aggs, when set, make the output one global aggregate row (output
	// order) instead of the filtered rows.
	Aggs []plan.AggExpr

	// aggArgs holds each aggregate's input column resolved to the scan's
	// projected space; nil for COUNT(*).
	aggArgs []*plan.ColumnRef

	// vec is the compiled vector program (see program).
	vec *vecProgram
}

// Schema implements PhysicalPlan.
func (p *PipelineExec) Schema() plan.Schema { return p.OutSchema }

// Children implements PhysicalPlan.
func (p *PipelineExec) Children() []PhysicalPlan { return []PhysicalPlan{p.Chain} }

// Explain implements PhysicalPlan. An aggregate pipeline keeps the name
// AggPipelineExec, so plan text and the query shapes keyed on its first
// word tell the two outputs apart.
func (p *PipelineExec) Explain() string {
	var b strings.Builder
	if p.Aggs != nil {
		names := make([]string, len(p.Aggs))
		for i, g := range p.Aggs {
			names[i] = g.Name
		}
		b.WriteString("AggPipelineExec aggs=[" + strings.Join(names, ",") + "]")
	} else {
		b.WriteString("PipelineExec")
	}
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
	if p.pushable() {
		b.WriteString(" pushed=region")
	}
	return b.String()
}

// pushable reports whether the aggregates are offered to the source: no
// residual predicate is left for the engine, and every partition can fold
// aggregates where the data lives. A source may still decline an
// aggregate it cannot fold exactly; that partition then streams rows.
func (p *PipelineExec) pushable() bool {
	if p.Aggs == nil || p.Cond != nil || len(p.Scan.Partitions) == 0 {
		return false
	}
	for _, part := range p.Scan.Partitions {
		if _, ok := part.(datasource.AggregateScan); !ok {
			return false
		}
	}
	return true
}

// limitTracker coordinates the global LIMIT short circuit across partition
// tasks. Capping every partition at N and truncating the index-ordered
// concatenation to N is exactly the materialized semantics; on top of that,
// once the complete prefix of partitions already holds N rows, every later
// partition's output is unreachable after the truncate, so its task can be
// skipped (or its stream stopped) without changing the answer. A nil
// tracker (no limit) is never satisfied.
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
func (t *limitTracker) satisfied() bool { return t != nil && t.sat.Load() }

// complete records partition i finishing with kept rows.
func (t *limitTracker) complete(i, kept int) {
	if t == nil {
		return
	}
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
// locality. Rows output caps each partition at the limit, skips partitions
// made irrelevant by already-complete ones, and concatenates in partition
// order; aggregate output merges the partitions' partial states in
// partition order (deterministic) and finalizes the single output row.
func (p *PipelineExec) Execute(ctx *Context) ([]plan.Row, error) {
	parts := p.Scan.Partitions
	var tracker *limitTracker
	if p.Limit > 0 {
		tracker = newLimitTracker(len(parts), p.Limit)
	}
	rows := make([][]plan.Row, len(parts))
	states := make([][]aggState, len(parts))
	tasks := make([]Task, len(parts))
	for i, part := range parts {
		tasks[i] = Task{
			PreferredHost: part.PreferredHost(),
			Run: func(tctx context.Context) error {
				if tracker.satisfied() {
					// Earlier partitions already hold the first Limit rows;
					// this partition's output cannot survive the truncate.
					tracker.complete(i, 0)
					return nil
				}
				var err error
				if rows[i], states[i], err = p.runPartition(tctx, ctx, part, tracker); err != nil {
					return err
				}
				tracker.complete(i, len(rows[i]))
				return nil
			},
		}
	}
	out, err := runAll(ctx, tasks, rows)
	if err != nil {
		return nil, err
	}
	if p.Aggs != nil {
		total := make([]aggState, len(p.Aggs))
		for _, st := range states {
			for k, agg := range p.Aggs {
				if err := total[k].merge(agg.Kind, &st[k]); err != nil {
					return nil, err
				}
			}
		}
		row := make(plan.Row, len(p.Aggs))
		for k, agg := range p.Aggs {
			row[k] = total[k].final(agg.Kind)
		}
		return []plan.Row{row}, nil
	}
	if p.Limit > 0 && len(out) > p.Limit {
		out = out[:p.Limit]
	}
	return out, nil
}

// runPartition streams one partition through the fused stages: folded at
// the source when aggregating with no residual predicate, else batch by
// batch — through the compiled vector program when vectorized and the
// batch is typed, else row-at-a-time. It returns the partition's output
// rows, or its partial aggregate states.
func (p *PipelineExec) runPartition(tctx context.Context, ctx *Context, part datasource.Partition, tracker *limitTracker) ([]plan.Row, []aggState, error) {
	if as, ok := part.(datasource.AggregateScan); ok && p.Aggs != nil && p.Cond == nil {
		if st, pushed, err := p.runPushed(tctx, as); pushed || err != nil {
			return nil, st, err
		}
	}
	var opts datasource.BatchOptions
	// The limit only pushes into the source when the source evaluates every
	// remaining predicate itself; a residual filter means the first N
	// scanned rows are not necessarily the first N kept rows.
	if p.Limit > 0 && p.Cond == nil {
		opts.LimitHint = p.Limit
	}
	run := &partitionRun{p: p, m: metrics.Scoped(tctx, ctx.Meter)}
	if p.Aggs != nil {
		run.states = make([]aggState, len(p.Aggs))
	}
	if p.Vectorize {
		run.prog = p.program()
		run.sc = plan.NewEvalScratch(p.Scan.OutSchema)
		opts.EagerColumns = run.prog.eager
	}
	err := part.Batches(tctx, opts, func(b *plan.Batch) error {
		run.m.Inc(metrics.BatchesStreamed)
		vector := run.prog != nil && !b.Boxed()
		var held int64
		if run.states == nil {
			// Rows output holds the batch until its survivors are kept:
			// charge it like the materialized path, and release it once
			// the batch is processed, keeping only the output's bytes. The
			// vector route reads lazy columns' sizes raw: boxing them to
			// size rows would decode values the filter drops.
			if held = b.MemSize(); !vector {
				held = b.RowBytes()
			}
			run.m.Add(metrics.MemoryCharged, held)
			run.m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, held)
		}
		kept := len(run.out)
		var err error
		if vector {
			err = run.vector(b)
		} else {
			err = run.rows(b)
		}
		if err != nil {
			return err
		}
		if run.states == nil {
			var keptBytes int64
			for _, r := range run.out[kept:] {
				keptBytes += int64(plan.RowSize(r))
			}
			run.m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, keptBytes)
			run.m.Add(metrics.MemoryHeld, -held)
		}
		if (p.Limit > 0 && len(run.out) >= p.Limit) || tracker.satisfied() {
			return datasource.ErrStopBatches
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return run.out, run.states, nil
}

// partitionRun is one partition's pass through a pipeline: its output
// rows under the limit, or its aggregate states.
type partitionRun struct {
	p      *PipelineExec
	m      metrics.Meter
	out    []plan.Row
	states []aggState // nil for rows output
	prog   *vecProgram
	sc     *plan.EvalScratch
	sel    []int
	boxed  []plan.Row // the row route's reused row headers
}

// runPushed has the source fold the partition's rows into partial
// aggregates where the data lives (no residual predicate remains). The
// partials become the same states the vector fold would have produced:
// extremes box as their column's type (plan.CoerceLiteral), so answers
// are byte-identical. ok=false means the source declined.
func (p *PipelineExec) runPushed(tctx context.Context, as datasource.AggregateScan) ([]aggState, bool, error) {
	aggs := make([]datasource.Aggregate, len(p.Aggs))
	for k, agg := range p.Aggs {
		aggs[k] = datasource.Aggregate{Kind: agg.Kind, Column: -1}
		if p.aggArgs[k] != nil {
			aggs[k].Column = p.aggArgs[k].Index()
		}
	}
	partials, ok, err := as.ComputeAggregates(tctx, aggs)
	if !ok || err != nil {
		return nil, ok, err
	}
	states := make([]aggState, len(p.Aggs))
	for k, pa := range partials {
		states[k] = aggState{count: pa.Count, sum: pa.Sum}
		if !pa.Has {
			continue
		}
		best, t := any(pa.Float), p.aggArgs[k].Type()
		if plan.KindOf(t) == plan.KindInt64 {
			best = pa.Int
		}
		states[k].best, _ = plan.CoerceLiteral(best, t)
	}
	return states, true, nil
}

// vector runs a typed batch through the compiled filter. The positions
// that survive become output rows under the limit — projected, or
// materialized whole — or fold into the aggregates with typed loops, no
// row ever materializing.
func (r *partitionRun) vector(b *plan.Batch) error {
	p, prog := r.p, r.prog
	r.m.Inc(metrics.VectorBatches)
	sel := plan.FullSel(b.Len(), r.sel)
	r.sel = sel
	if prog.filter != nil {
		var err error
		if sel, err = prog.filter.Run(b, sel, r.sc); err != nil {
			return err
		}
	}
	if r.states != nil {
		r.m.Add(metrics.VectorRows, int64(len(sel)))
		for k, agg := range p.Aggs {
			c := p.aggArgs[k]
			if c == nil {
				r.states[k].count += int64(len(sel)) // COUNT(*)
				continue
			}
			if err := r.states[k].updateSel(agg.Kind, b.Cols[c.Index()], sel); err != nil {
				return err
			}
		}
		return nil
	}
	if p.Limit > 0 && len(r.out)+len(sel) > p.Limit {
		r.m.Add(metrics.RowsShortCircuited, int64(len(r.out)+len(sel)-p.Limit))
		sel = sel[:p.Limit-len(r.out)]
	}
	r.m.Add(metrics.VectorRows, int64(len(sel)))
	for _, i := range sel {
		var nr plan.Row
		var err error
		if prog.proj != nil {
			nr = make(plan.Row, prog.proj.Width())
			err = prog.proj.ProjectRow(b, i, r.sc, nr)
		} else {
			nr, err = b.MaterializeRow(i)
		}
		if err != nil {
			return err
		}
		r.out = append(r.out, nr)
	}
	return nil
}

// rows is the row-at-a-time route, taken by boxed batches and by
// unvectorized pipelines: each of the batch's rows that survives the
// filter becomes an output row under the limit, or updates the boxed
// aggregate states.
func (r *partitionRun) rows(b *plan.Batch) error {
	p := r.p
	batch, err := b.AppendRows(r.boxed[:0])
	if err != nil {
		return err
	}
	if !b.Boxed() {
		// A boxed batch's rows are the source's own: never reuse them.
		r.boxed = batch
	}
	for bi, row := range batch {
		if p.Limit > 0 && len(r.out) >= p.Limit {
			// Rows past the per-partition cap are dropped unprocessed.
			r.m.Add(metrics.RowsShortCircuited, int64(len(batch)-bi))
			break
		}
		if p.Cond != nil {
			ok, err := plan.EvalPredicate(p.Cond, row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if r.states != nil {
			for k, agg := range p.Aggs {
				var v any = int64(1) // COUNT(*) counts rows
				if p.aggArgs[k] != nil {
					v = row[p.aggArgs[k].Index()]
				}
				if err := r.states[k].update(agg.Kind, v); err != nil {
					return err
				}
			}
			continue
		}
		nr := row
		if p.Exprs != nil {
			nr = make(plan.Row, len(p.Exprs))
			for j, ne := range p.Exprs {
				v, err := ne.Expr.Eval(row)
				if err != nil {
					return err
				}
				nr[j] = v
			}
		}
		r.out = append(r.out, nr)
	}
	return nil
}

// FusePipelinesWith rewrites every Limit→Project→Filter→Scan chain (each
// layer optional, at least one above the scan) into a PipelineExec, and —
// when vectorize is set — every global count/sum/avg/min/max over such a
// chain or a bare scan into an aggregate PipelineExec. vectorize=false
// keeps the fused pipelines on the row-at-a-time interpreter (the row side
// of the vector-vs-row benchmark). Operators outside such chains — the
// pipeline breakers — are copied with fused inputs; p is left as it is.
func FusePipelinesWith(p PhysicalPlan, vectorize bool) PhysicalPlan {
	if fused, ok := fuseChain(p, vectorize); ok {
		return fused
	}
	if agg, ok := p.(*HashAggExec); ok && vectorize {
		if fused, ok := fuseAgg(agg); ok {
			return fused
		}
	}
	return mapInputs(p, func(c PhysicalPlan) PhysicalPlan { return FusePipelinesWith(c, vectorize) })
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
		vec:       &vecProgram{},
	}, true
}

// fuseAgg turns a global HashAggExec over a fusable chain (or a bare scan)
// into an aggregate PipelineExec; ok=false leaves the plan alone. Grouping,
// stddev, count-distinct and non-column arguments keep the hash aggregate.
func fuseAgg(n *HashAggExec) (PhysicalPlan, bool) {
	if len(n.GroupBy) != 0 || len(n.Aggs) == 0 {
		return nil, false
	}
	for _, agg := range n.Aggs {
		switch agg.Kind {
		case plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax:
		default:
			return nil, false
		}
		if agg.Arg == nil {
			if agg.Kind != plan.AggCount {
				return nil, false
			}
		} else if _, ok := agg.Arg.(*plan.ColumnRef); !ok {
			return nil, false
		}
	}
	var pipe *PipelineExec
	if fused, ok := fuseChain(n.Child, true); ok {
		pipe = fused.(*PipelineExec)
	} else if scan, ok := n.Child.(*ScanExec); ok {
		pipe = &PipelineExec{Scan: scan, Vectorize: true, vec: &vecProgram{}}
	} else {
		return nil, false
	}
	if pipe.Limit > 0 {
		// LIMIT below a global aggregate picks the first N rows overall;
		// distributing N per partition would overcount.
		return nil, false
	}
	// Resolve each argument through the (optional) fused projection down to
	// a scan-space column; the projection itself never runs.
	args := make([]*plan.ColumnRef, len(n.Aggs))
	for i, agg := range n.Aggs {
		if agg.Arg == nil {
			continue
		}
		c := agg.Arg.(*plan.ColumnRef)
		if pipe.Exprs != nil {
			j := c.Index()
			if j < 0 || j >= len(pipe.Exprs) {
				return nil, false
			}
			pc, ok := pipe.Exprs[j].Expr.(*plan.ColumnRef)
			if !ok {
				return nil, false
			}
			c = pc
		}
		if c.Index() < 0 {
			return nil, false
		}
		args[i] = c
	}
	pipe.Chain, pipe.Exprs, pipe.OutSchema = n, nil, n.OutSchema
	pipe.Aggs, pipe.aggArgs = n.Aggs, args
	return pipe, true
}
