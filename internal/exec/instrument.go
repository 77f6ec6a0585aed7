package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/trace"
)

// OpStats are the per-operator actuals captured by an instrumented run.
type OpStats struct {
	// Rows and Bytes measure the operator's output.
	Rows, Bytes int64
	// Wall is the operator's inclusive wall time (children included),
	// matching how EXPLAIN ANALYZE reports actual time elsewhere.
	Wall time.Duration
	// Executed distinguishes "produced zero rows" from "never ran".
	Executed bool
}

// instrumented decorates one physical operator: Execute is timed, output
// rows and bytes are counted, and an "op:<name>" span is opened so tasks
// and RPCs issued by the operator nest under it in the query trace.
type instrumented struct {
	inner PhysicalPlan

	mu    sync.Mutex
	stats OpStats
	span  *trace.Span
}

// Instrument wraps every operator in p with an actuals-recording decorator
// and returns the wrapped root. Child pointers are rewritten in place, so
// Children() walks the decorated tree. A PipelineExec's Chain subtree is
// display-only (the fused chain executes as one streaming operator) and is
// deliberately left unwrapped — wrapping it would re-execute the scan.
func Instrument(p PhysicalPlan) PhysicalPlan {
	switch n := p.(type) {
	case *FilterExec:
		n.Child = Instrument(n.Child)
	case *ProjectExec:
		n.Child = Instrument(n.Child)
	case *LimitExec:
		n.Child = Instrument(n.Child)
	case *SortExec:
		n.Child = Instrument(n.Child)
	case *HashAggExec:
		n.Child = Instrument(n.Child)
	case *HashJoinExec:
		n.Left = Instrument(n.Left)
		n.Right = Instrument(n.Right)
	case *SortMergeJoinExec:
		n.Left = Instrument(n.Left)
		n.Right = Instrument(n.Right)
	case *UnionExec:
		for i, in := range n.Inputs {
			n.Inputs[i] = Instrument(in)
		}
	}
	return &instrumented{inner: p}
}

// Schema implements PhysicalPlan.
func (n *instrumented) Schema() plan.Schema { return n.inner.Schema() }

// Children implements PhysicalPlan.
func (n *instrumented) Children() []PhysicalPlan { return n.inner.Children() }

// Explain implements PhysicalPlan.
func (n *instrumented) Explain() string { return n.inner.Explain() }

// Execute implements PhysicalPlan, recording actuals around the inner
// operator. The op span's context is threaded to children through a copied
// Context so their spans (and the tasks they launch) nest under this one.
func (n *instrumented) Execute(ctx *Context) ([]plan.Row, error) {
	sctx, sp := trace.StartSpan(ctx.ctx(), "op:"+opName(n.inner))
	child := *ctx
	child.Ctx = sctx
	start := time.Now()
	rows, err := n.inner.Execute(&child)
	wall := time.Since(start)
	var bytes int64
	for _, r := range rows {
		bytes += int64(plan.RowSize(r))
	}
	sp.SetAttr("rows", int64(len(rows)))
	sp.SetAttr("bytes", bytes)
	sp.SetError(err)
	sp.End()
	n.mu.Lock()
	n.stats.Executed = true
	n.stats.Rows += int64(len(rows))
	n.stats.Bytes += bytes
	n.stats.Wall += wall
	n.span = sp
	n.mu.Unlock()
	return rows, err
}

// Stats returns the actuals captured by the last Execute.
func (n *instrumented) Stats() OpStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// OpStatsOf extracts the recorded actuals when p is an instrumented node.
func OpStatsOf(p PhysicalPlan) (OpStats, bool) {
	n, ok := p.(*instrumented)
	if !ok {
		return OpStats{}, false
	}
	return n.Stats(), true
}

// ExplainAnalyzed renders the instrumented tree annotated with the actuals
// from the last Execute: output rows and bytes, inclusive wall time, and
// task retries observed under each operator's span.
func ExplainAnalyzed(p PhysicalPlan) string {
	var b strings.Builder
	explainAnalyzed(&b, p, 0)
	return b.String()
}

func explainAnalyzed(b *strings.Builder, p PhysicalPlan, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n, ok := p.(*instrumented); ok {
		b.WriteString(n.inner.Explain())
		n.mu.Lock()
		st, sp := n.stats, n.span
		n.mu.Unlock()
		if st.Executed {
			fmt.Fprintf(b, "  (actual rows=%d bytes=%d time=%s", st.Rows, st.Bytes, st.Wall.Round(time.Microsecond))
			if r := countRetriedTasks(sp); r > 0 {
				fmt.Fprintf(b, " retries=%d", r)
			}
			b.WriteByte(')')
		} else {
			b.WriteString("  (never executed)")
		}
	} else {
		b.WriteString(p.Explain())
	}
	b.WriteByte('\n')
	for _, c := range p.Children() {
		explainAnalyzed(b, c, depth+1)
	}
}

// countRetriedTasks counts task attempts under sp that ended in a retry.
func countRetriedTasks(sp *trace.Span) int64 {
	if sp == nil {
		return 0
	}
	var n int64
	if sp.Name() == "task" && sp.Tag("outcome") == "retried" {
		n++
	}
	for _, c := range sp.Children() {
		n += countRetriedTasks(c)
	}
	return n
}

// opName maps an operator to its span name suffix.
func opName(p PhysicalPlan) string {
	switch n := p.(type) {
	case *ScanExec:
		return "scan"
	case *PipelineExec:
		if n.Aggs != nil {
			return "agg_pipeline"
		}
		return "pipeline"
	case *FilterExec:
		return "filter"
	case *ProjectExec:
		return "project"
	case *HashJoinExec:
		return "hash_join"
	case *SortMergeJoinExec:
		return "merge_join"
	case *SortExec:
		return "sort"
	case *UnionExec:
		return "union"
	case *LimitExec:
		return "limit"
	case *HashAggExec:
		return "aggregate"
	}
	return "op"
}
