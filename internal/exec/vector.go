package exec

import (
	"fmt"
	"sync"

	"github.com/shc-go/shc/internal/plan"
)

// This file is the columnar half of the fused pipeline: partitions exposing
// datasource.VectorScan stream typed column batches, the residual predicate
// and projection run as compiled closures over vectors guided by a
// selection vector, and rows materialize only at pipeline output (or never,
// for an aggregate pipeline, whose survivors fold into vecAggs). Partitions
// without the capability — and operators without a vectorized form — keep
// the row path, so the two execute side by side in one plan.

// vecProgram is a pipeline's compiled vector program: the residual filter,
// the projection, and the scan positions the filter and aggregates read
// eagerly. It is built once, on the first vectorized partition, and the
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

// vecAggs builds one typed accumulator per aggregate; nil for rows output.
func (p *PipelineExec) vecAggs() []vecAgg {
	if p.Aggs == nil {
		return nil
	}
	aggs := make([]vecAgg, len(p.Aggs))
	for k, agg := range p.Aggs {
		aggs[k] = vecAgg{kind: agg.Kind, col: -1}
		if c := p.aggArgs[k]; c != nil {
			aggs[k].col, aggs[k].typ = c.Index(), c.Type()
		}
	}
	return aggs
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
