package exec

import (
	"sync"

	"github.com/shc-go/shc/internal/plan"
)

// This file is the columnar half of the fused pipeline: over a partition's
// typed column batches, the residual predicate and projection run as
// compiled closures over vectors guided by a selection vector, and rows
// materialize only at pipeline output (or never, for an aggregate
// pipeline, whose survivors fold into aggregate states read unboxed,
// aggState.updateAt). Boxed batches — and operators without a vectorized
// form — keep the row path, so the two execute side by side in one plan.

// vecProgram is a pipeline's compiled vector program: the residual filter,
// the projection, and the scan positions the filter and aggregates read
// eagerly. It is built once, when a vectorized pipeline first runs a
// partition, and the
// compiled closures are stateless, so every partition task — and every
// execution of a prepared plan — shares it.
type vecProgram struct {
	once   sync.Once
	filter *plan.CompiledFilter
	proj   *plan.CompiledProjection
	eager  []int
}

// program returns the pipeline's vector program, compiling it on first use.
func (p *PipelineExec) program() *vecProgram {
	p.vec.once.Do(func() {
		schema := p.Scan.OutSchema
		if p.Cond != nil {
			p.vec.filter = plan.CompileFilter(p.Cond)
			// Only the filter's and the aggregates' inputs need eager
			// decode; everything else stays lazy until it survives the
			// filter. With no filter every row survives and laziness buys
			// nothing, so eager stays nil: decode everything.
			p.vec.eager = eagerColumns(schema, p.Cond, p.aggArgs)
		}
		if p.Exprs != nil {
			p.vec.proj = plan.CompileProjection(p.Exprs)
		}
	})
	return p.vec
}

// eagerColumns resolves the scan positions of every column cond and the
// extra refs touch per row.
func eagerColumns(schema plan.Schema, cond plan.Expr, extra []*plan.ColumnRef) []int {
	seen := make(map[int]bool)
	out := []int{}
	add := func(i int) {
		if i >= 0 && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, name := range plan.Columns(cond) {
		add(schema.IndexOf(name))
	}
	for _, c := range extra {
		if c != nil {
			add(c.Index())
		}
	}
	return out
}
