package exec

import (
	"context"
	"fmt"
	"strings"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// This file is the columnar half of the fused pipeline: partitions exposing
// datasource.VectorScan stream typed column batches, the residual predicate
// and projection run as compiled closures over vectors guided by a
// selection vector, and rows materialize only at pipeline output (or never,
// for fused aggregation). Partitions without the capability — and operators
// without a vectorized form — keep the row path, so the two execute
// side by side in one plan.

// vecProgram compiles the pipeline's residual filter and projection once;
// the compiled closures are stateless and shared by every partition task.
// ok=false means the pipeline must stay on the row path.
func (p *PipelineExec) vecProgram() (filter *plan.CompiledFilter, proj *plan.CompiledProjection, eager []int, ok bool) {
	p.vecOnce.Do(func() {
		schema := p.Scan.OutSchema
		if p.Cond != nil {
			f, err := plan.CompileFilter(p.Cond, schema)
			if err != nil {
				p.vecBad = true
				return
			}
			p.vecFilter = f
			// Only the filter's inputs need eager decode; everything else
			// stays lazy until it survives the filter.
			p.vecEager = eagerColumns(schema, p.Cond, nil)
		}
		if p.Exprs != nil {
			p.vecProj = plan.CompileProjection(p.Exprs, schema)
		}
	})
	return p.vecFilter, p.vecProj, p.vecEager, !p.vecBad
}

// eagerColumns resolves the scan positions of every column the filter (and
// any extra refs) touches per row. nil means "decode everything eagerly" —
// used when there is no filter, so every row survives and laziness buys
// nothing.
func eagerColumns(schema plan.Schema, cond plan.Expr, extra []*plan.ColumnRef) []int {
	if cond == nil && extra == nil {
		return nil
	}
	seen := make(map[int]bool)
	out := []int{}
	add := func(i int) {
		if i >= 0 && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	if cond != nil {
		for _, name := range plan.Columns(cond) {
			add(schema.IndexOf(name))
		}
	}
	for _, c := range extra {
		if c != nil {
			add(c.Index())
		}
	}
	return out
}

// runPartitionVector streams one partition through the compiled vector
// program: selection-vector filtering, limit truncation, and per-row
// materialization of just the surviving positions.
func (p *PipelineExec) runPartitionVector(tctx context.Context, ctx *Context, vs datasource.VectorScan, tracker *limitTracker) ([]plan.Row, int, error) {
	filter, proj, eager, _ := p.vecProgram()
	opts := datasource.BatchOptions{BatchSize: p.BatchSize, EagerColumns: eager}
	if p.Limit > 0 && p.Cond == nil {
		opts.LimitHint = p.Limit
	}
	sc := plan.NewEvalScratch(p.Scan.OutSchema)
	var selBuf []int
	var out []plan.Row
	kept := 0
	m := metrics.Scoped(tctx, ctx.Meter)
	err := vs.ComputeVectors(tctx, opts, func(b *plan.Batch) error {
		m.Inc(metrics.BatchesStreamed)
		m.Inc(metrics.VectorBatches)
		batchBytes := b.MemSize()
		m.Add(metrics.MemoryCharged, batchBytes)
		m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, batchBytes)

		sel := plan.FullSel(b.Len(), selBuf)
		selBuf = sel
		if filter != nil {
			var err error
			sel, err = filter.Run(b, sel, sc)
			if err != nil {
				return err
			}
		}
		stop := false
		if p.Limit > 0 && kept+len(sel) >= p.Limit {
			m.Add(metrics.RowsShortCircuited, int64(kept+len(sel)-p.Limit))
			sel = sel[:p.Limit-kept]
			stop = true
		}
		var keptBytes int64
		for _, i := range sel {
			var nr plan.Row
			var err error
			if proj != nil {
				nr = make(plan.Row, proj.Width())
				err = proj.ProjectRow(b, i, sc, nr)
			} else {
				nr, err = b.MaterializeRow(i)
			}
			if err != nil {
				return err
			}
			out = append(out, nr)
			keptBytes += int64(plan.RowSize(nr))
		}
		kept += len(sel)
		m.Add(metrics.VectorRows, int64(len(sel)))
		m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, keptBytes)
		m.Add(metrics.MemoryHeld, -batchBytes)
		if stop {
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

// AggPipelineExec fuses a GROUP-BY-less aggregation into the vectorized
// pipeline: each partition folds its column batches into partial aggregate
// states with tight typed loops — no row ever materializes — and the
// partials merge into the single output row. Only aggregates whose partial
// merge is order-insensitive in the row path's float64 space fuse
// (count/sum/avg/min/max over a column or *); grouping, stddev, and
// count-distinct keep the HashAggExec path.
type AggPipelineExec struct {
	// Pipe is the fused scan→filter input; its Limit is always 0 (a LIMIT
	// below a global aggregate cannot be split across partitions).
	Pipe *PipelineExec
	// Aggs are the aggregate specs, output order.
	Aggs []plan.AggExpr
	// args holds each aggregate's input column resolved to the scan's
	// projected space; nil for COUNT(*).
	args []*plan.ColumnRef
	// OutSchema describes the single output row.
	OutSchema plan.Schema
	// Chain is the original HashAggExec subtree for EXPLAIN.
	Chain PhysicalPlan
}

// Schema implements PhysicalPlan.
func (a *AggPipelineExec) Schema() plan.Schema { return a.OutSchema }

// Children implements PhysicalPlan.
func (a *AggPipelineExec) Children() []PhysicalPlan { return []PhysicalPlan{a.Chain} }

// Explain implements PhysicalPlan.
func (a *AggPipelineExec) Explain() string {
	names := make([]string, len(a.Aggs))
	for i, g := range a.Aggs {
		names[i] = g.Name
	}
	s := "AggPipelineExec aggs=[" + strings.Join(names, ",") + "]"
	if a.Pipe.Cond != nil {
		s += " filter=" + a.Pipe.Cond.String()
	}
	if a.pushable() {
		s += " pushed=region"
	}
	return s
}

// pushable reports whether the aggregates are offered to the source: no
// residual predicate is left for the engine, and every partition can fold
// aggregates where the data lives. A source may still decline an
// aggregate it cannot fold exactly; that partition then streams rows.
func (a *AggPipelineExec) pushable() bool {
	if a.Pipe.Cond != nil || len(a.Pipe.Scan.Partitions) == 0 {
		return false
	}
	for _, p := range a.Pipe.Scan.Partitions {
		if _, ok := p.(datasource.AggregateScan); !ok {
			return false
		}
	}
	return true
}

// fuseAgg turns a global HashAggExec over a fusable chain into an
// AggPipelineExec; ok=false leaves the plan alone.
func fuseAgg(n *HashAggExec) (PhysicalPlan, bool) {
	if len(n.GroupBy) != 0 {
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
		pipe = &PipelineExec{Scan: scan, Chain: scan, OutSchema: scan.OutSchema, Vectorize: true}
	} else {
		return nil, false
	}
	if pipe.Limit > 0 {
		// LIMIT below a global aggregate picks the first N rows overall;
		// distributing N per partition would overcount.
		return nil, false
	}
	// Resolve each argument through the (optional) fused projection down to
	// a scan-space column.
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
	return &AggPipelineExec{Pipe: pipe, Aggs: n.Aggs, args: args, OutSchema: n.OutSchema, Chain: n}, true
}

// Execute implements PhysicalPlan: one task per partition folds batches
// into partial states; partials merge in partition order (deterministic) and
// finalize into the single output row.
func (a *AggPipelineExec) Execute(ctx *Context) ([]plan.Row, error) {
	filter, _, _, vecOK := a.Pipe.vecProgram()
	eager := eagerColumns(a.Pipe.Scan.OutSchema, a.Pipe.Cond, a.args)
	if a.Pipe.Cond == nil {
		// No filter: every row survives, so the aggregate touches its input
		// columns on every row anyway — decode everything eagerly.
		eager = nil
	}
	parts := a.Pipe.Scan.Partitions
	states := make([][]aggState, len(parts))
	tasks := make([]Task, len(parts))
	for i, part := range parts {
		i, part := i, part
		tasks[i] = Task{
			PreferredHost: part.PreferredHost(),
			Run: func(tctx context.Context) error {
				st, err := a.runPartition(tctx, ctx, part, filter, eager, vecOK)
				if err != nil {
					return err
				}
				states[i] = st
				return nil
			},
		}
	}
	if err := ctx.Scheduler.RunContext(ctx.ctx(), tasks); err != nil {
		return nil, err
	}
	total := make([]aggState, len(a.Aggs))
	for _, st := range states {
		if st == nil {
			continue
		}
		for k := range a.Aggs {
			if err := total[k].merge(a.Aggs[k].Kind, &st[k]); err != nil {
				return nil, err
			}
		}
	}
	row := make(plan.Row, len(a.Aggs))
	for k, agg := range a.Aggs {
		row[k] = total[k].final(agg.Kind)
	}
	return []plan.Row{row}, nil
}

// runPartitionVector folds one partition's column batches into partial
// aggregate states without materializing rows.
func (a *AggPipelineExec) runPartitionVector(tctx context.Context, ctx *Context, vs datasource.VectorScan, filter *plan.CompiledFilter, eager []int) ([]aggState, error) {
	aggs := make([]vecAgg, len(a.Aggs))
	for k, agg := range a.Aggs {
		aggs[k] = vecAgg{kind: agg.Kind, col: -1}
		if a.args[k] != nil {
			aggs[k].col = a.args[k].Index()
			aggs[k].typ = a.args[k].Type()
		}
	}
	sc := plan.NewEvalScratch(a.Pipe.Scan.OutSchema)
	var selBuf []int
	m := metrics.Scoped(tctx, ctx.Meter)
	opts := datasource.BatchOptions{BatchSize: a.Pipe.BatchSize, EagerColumns: eager}
	err := vs.ComputeVectors(tctx, opts, func(b *plan.Batch) error {
		m.Inc(metrics.BatchesStreamed)
		m.Inc(metrics.VectorBatches)
		sel := plan.FullSel(b.Len(), selBuf)
		selBuf = sel
		if filter != nil {
			var err error
			sel, err = filter.Run(b, sel, sc)
			if err != nil {
				return err
			}
		}
		m.Add(metrics.VectorRows, int64(len(sel)))
		for k := range aggs {
			if err := aggs[k].consume(b, sel); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	states := make([]aggState, len(a.Aggs))
	for k := range aggs {
		states[k] = aggs[k].fold()
	}
	return states, nil
}

// runPartition folds one partition: at the source when it can, else over
// column batches, else row-at-a-time.
func (a *AggPipelineExec) runPartition(tctx context.Context, ctx *Context, part datasource.Partition, filter *plan.CompiledFilter, eager []int, vecOK bool) ([]aggState, error) {
	if as, ok := part.(datasource.AggregateScan); ok && a.Pipe.Cond == nil {
		if st, pushed, err := a.runPartitionPushed(tctx, as); pushed || err != nil {
			return st, err
		}
	}
	if vs, ok := part.(datasource.VectorScan); ok && a.Pipe.Vectorize && vecOK {
		return a.runPartitionVector(tctx, ctx, vs, filter, eager)
	}
	return a.runPartitionRows(tctx, ctx, part)
}

// runPartitionPushed has the source fold the partition's rows into partial
// aggregates where the data lives (no residual predicate remains). The
// partials become the same states the vector fold would have produced:
// extremes box through boxBest, so answers are byte-identical. ok=false
// means the source declined.
func (a *AggPipelineExec) runPartitionPushed(tctx context.Context, as datasource.AggregateScan) ([]aggState, bool, error) {
	aggs := make([]datasource.Aggregate, len(a.Aggs))
	for k, agg := range a.Aggs {
		aggs[k] = datasource.Aggregate{Kind: agg.Kind, Column: -1}
		if a.args[k] != nil {
			aggs[k].Column = a.args[k].Index()
		}
	}
	partials, ok, err := as.ComputeAggregates(tctx, aggs)
	if !ok || err != nil {
		return nil, ok, err
	}
	states := make([]aggState, len(a.Aggs))
	for k, p := range partials {
		states[k] = aggState{count: p.Count, sum: p.Sum}
		if !p.Has {
			continue
		}
		best := boxBest(a.args[k].Type(), p.Int, p.Float, "")
		if a.Aggs[k].Kind == plan.AggMin {
			states[k].min = best
		} else {
			states[k].max = best
		}
	}
	return states, true, nil
}

// runPartitionRows is the row fallback for partitions without VectorScan:
// stream, filter, and update boxed aggregate states row-at-a-time.
func (a *AggPipelineExec) runPartitionRows(tctx context.Context, ctx *Context, part datasource.Partition) ([]aggState, error) {
	states := make([]aggState, len(a.Aggs))
	m := metrics.Scoped(tctx, ctx.Meter)
	err := datasource.StreamPartition(tctx, part, datasource.BatchOptions{BatchSize: a.Pipe.BatchSize}, func(batch []plan.Row) error {
		m.Inc(metrics.BatchesStreamed)
		for _, r := range batch {
			if a.Pipe.Cond != nil {
				ok, err := plan.EvalPredicate(a.Pipe.Cond, r)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			for k, agg := range a.Aggs {
				var v any = int64(1) // COUNT(*) counts rows
				if a.args[k] != nil {
					v = r[a.args[k].Index()]
				}
				if err := states[k].update(agg.Kind, v); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return states, nil
}

// vecAgg accumulates one aggregate over column batches with typed loops.
// Numeric extremes are tracked in float64 (the row path's comparison space)
// alongside the exact typed value, so the boxed result is byte-identical to
// what aggState.update would have kept.
type vecAgg struct {
	kind plan.AggKind
	col  int // scan-space column, -1 for COUNT(*)
	typ  plan.DataType

	count int64
	sum   float64

	has   bool    // a typed best is tracked
	bestF float64 // numeric comparison key
	bestI int64   // exact integer best
	bestS string

	hasV  bool // a boxed best is tracked (non-fast-path vectors)
	bestV any
}

func (s *vecAgg) consume(b *plan.Batch, sel []int) error {
	if s.col < 0 {
		s.count += int64(len(sel))
		return nil
	}
	v := b.Cols[s.col]
	switch s.kind {
	case plan.AggCount:
		for _, i := range sel {
			if !v.Null(i) {
				s.count++
			}
		}
	case plan.AggSum, plan.AggAvg:
		switch v.Kind {
		case plan.KindInt64:
			data := v.Int64s
			for _, i := range sel {
				if !v.Null(i) {
					s.count++
					s.sum += float64(data[i])
				}
			}
		case plan.KindFloat64:
			data := v.Float64s
			for _, i := range sel {
				if !v.Null(i) {
					s.count++
					s.sum += data[i]
				}
			}
		default:
			for _, i := range sel {
				val, err := v.Value(i)
				if err != nil {
					return err
				}
				if val == nil {
					continue
				}
				f, ok := plan.ToFloat(val)
				if !ok {
					return fmt.Errorf("exec: %s over non-numeric %T", s.kind, val)
				}
				s.count++
				s.sum += f
			}
		}
	case plan.AggMin:
		switch v.Kind {
		case plan.KindInt64:
			data := v.Int64s
			for _, i := range sel {
				if !v.Null(i) && (!s.has || float64(data[i]) < s.bestF) {
					s.has, s.bestF, s.bestI = true, float64(data[i]), data[i]
				}
			}
		case plan.KindFloat64:
			data := v.Float64s
			for _, i := range sel {
				if !v.Null(i) && (!s.has || data[i] < s.bestF) {
					s.has, s.bestF = true, data[i]
				}
			}
		case plan.KindString:
			data := v.Strings
			for _, i := range sel {
				if !v.Null(i) && (!s.has || data[i] < s.bestS) {
					s.has, s.bestS = true, data[i]
				}
			}
		default:
			return s.consumeBoxed(v, sel, -1)
		}
	case plan.AggMax:
		switch v.Kind {
		case plan.KindInt64:
			data := v.Int64s
			for _, i := range sel {
				if !v.Null(i) && (!s.has || float64(data[i]) > s.bestF) {
					s.has, s.bestF, s.bestI = true, float64(data[i]), data[i]
				}
			}
		case plan.KindFloat64:
			data := v.Float64s
			for _, i := range sel {
				if !v.Null(i) && (!s.has || data[i] > s.bestF) {
					s.has, s.bestF = true, data[i]
				}
			}
		case plan.KindString:
			data := v.Strings
			for _, i := range sel {
				if !v.Null(i) && (!s.has || data[i] > s.bestS) {
					s.has, s.bestS = true, data[i]
				}
			}
		default:
			return s.consumeBoxed(v, sel, 1)
		}
	}
	return nil
}

// consumeBoxed tracks min/max through boxed Compare for vector kinds
// without a typed extreme loop (bool, binary, lazy, boxed).
func (s *vecAgg) consumeBoxed(v *plan.Vector, sel []int, want int) error {
	for _, i := range sel {
		val, err := v.Value(i)
		if err != nil {
			return err
		}
		if val == nil {
			continue
		}
		if !s.hasV {
			s.hasV, s.bestV = true, val
			continue
		}
		c, err := plan.Compare(val, s.bestV)
		if err != nil {
			return err
		}
		if (want < 0 && c < 0) || (want > 0 && c > 0) {
			s.bestV = val
		}
	}
	return nil
}

// fold converts the typed accumulator into the row path's partial state.
func (s *vecAgg) fold() aggState {
	st := aggState{count: s.count, sum: s.sum}
	if s.kind != plan.AggMin && s.kind != plan.AggMax {
		return st
	}
	var best any
	switch {
	case s.hasV:
		best = s.bestV
	case s.has:
		best = boxBest(s.typ, s.bestI, s.bestF, s.bestS)
	}
	if s.kind == plan.AggMin {
		st.min = best
	} else {
		st.max = best
	}
	return st
}

// boxBest restores the exact Go representation of a typed extreme.
func boxBest(t plan.DataType, i int64, f float64, str string) any {
	switch plan.KindOf(t) {
	case plan.KindInt64:
		switch t {
		case plan.TypeInt8:
			return int8(i)
		case plan.TypeInt16:
			return int16(i)
		case plan.TypeInt32:
			return int32(i)
		}
		return i
	case plan.KindFloat64:
		if t == plan.TypeFloat32 {
			return float32(f)
		}
		return f
	case plan.KindString:
		return str
	}
	return nil
}
