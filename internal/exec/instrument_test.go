package exec

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// TestRetriedTaskSpanIntegrity: a task failing once with a transport error
// leaves two task spans under the trace — the failed attempt tagged
// outcome=retried, and a clean second attempt with a higher attempt number.
func TestRetriedTaskSpanIntegrity(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 1, m)

	var runs int32
	tasks := []Task{{Run: func(context.Context) error {
		if atomic.AddInt32(&runs, 1) == 1 {
			return fmt.Errorf("scan: %w", rpc.ErrHostDown)
		}
		return nil
	}}}

	tr := trace.New("retried-run")
	if err := s.RunContext(trace.NewContext(context.Background(), tr), tasks); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr.Finish()

	spans := tr.Find("task")
	if len(spans) != 2 {
		t.Fatalf("found %d task spans, want 2 (one per attempt):\n%s", len(spans), tr.Render())
	}
	var retried, clean *trace.Span
	for _, sp := range spans {
		if sp.Tag("outcome") == "retried" {
			retried = sp
		} else {
			clean = sp
		}
	}
	if retried == nil || clean == nil {
		t.Fatalf("want one retried and one clean attempt:\n%s", tr.Render())
	}
	if retried.Status() != trace.StatusError {
		t.Errorf("retried attempt status = %q, want %q", retried.Status(), trace.StatusError)
	}
	if clean.Status() != "" {
		t.Errorf("second attempt status = %q, want clean", clean.Status())
	}
	if retried.Attr("attempt") >= clean.Attr("attempt") {
		t.Errorf("attempt numbers: retried=%d clean=%d, want retried < clean",
			retried.Attr("attempt"), clean.Attr("attempt"))
	}
	if got := countRetriedTasks(tr.Root()); got != 1 {
		t.Errorf("countRetriedTasks = %d, want 1", got)
	}
}

// TestInstrumentRecordsActualsAndNestsSpans: an instrumented filter-over-
// scan plan records per-operator rows/bytes/wall time, renders them in
// ExplainAnalyzed, and nests op spans (and their tasks) by operator.
func TestInstrumentRecordsActualsAndNestsSpans(t *testing.T) {
	rel := usersMem(t, 100)
	lp := plan.Optimize(&plan.FilterNode{
		Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(5)},
		Child: &plan.ScanNode{Relation: rel},
	})
	phys, err := Compile(lp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	root := Instrument(phys)

	ctx, _ := testCtx()
	tr := trace.New("analyze")
	ctx.Ctx = trace.NewContext(context.Background(), tr)
	rows, err := root.Execute(ctx)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	tr.Finish()

	st, ok := OpStatsOf(root)
	if !ok {
		t.Fatal("root is not instrumented")
	}
	if !st.Executed || st.Rows != int64(len(rows)) {
		t.Errorf("root stats = %+v, want executed with rows=%d", st, len(rows))
	}
	if st.Bytes <= 0 {
		t.Errorf("root bytes = %d, want > 0", st.Bytes)
	}

	out := ExplainAnalyzed(root)
	if !strings.Contains(out, fmt.Sprintf("(actual rows=%d", len(rows))) {
		t.Errorf("ExplainAnalyzed missing root actuals:\n%s", out)
	}
	if strings.Contains(out, "never executed") {
		t.Errorf("ExplainAnalyzed reports unexecuted operators:\n%s", out)
	}

	// The scan's op span must sit below the root operator's span, and the
	// scan's partition tasks below the scan span.
	scanSpans := tr.Find("op:scan")
	if len(scanSpans) != 1 {
		t.Fatalf("found %d op:scan spans, want 1:\n%s", len(scanSpans), tr.Render())
	}
	var tasksUnderScan int
	for _, c := range scanSpans[0].Children() {
		if c.Name() == "task" {
			tasksUnderScan++
		}
	}
	if tasksUnderScan == 0 {
		t.Errorf("no task spans nested under op:scan:\n%s", tr.Render())
	}
}

// TestInstrumentedPipelineChainNotWrapped: fusing then instrumenting must
// leave the display-only Chain subtree unwrapped — executing the pipeline
// never touches it, so it must render without phantom actuals.
func TestInstrumentedPipelineChainNotWrapped(t *testing.T) {
	rel := usersMem(t, 40)
	lp := plan.Optimize(&plan.LimitNode{
		N: 7,
		Child: &plan.FilterNode{
			Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(100)},
			Child: &plan.ScanNode{Relation: rel},
		},
	})
	phys, err := Compile(lp)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	root := Instrument(phys)

	ctx, _ := testCtx()
	rows, err := root.Execute(ctx)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	out := ExplainAnalyzed(root)
	if !strings.Contains(out, "PipelineExec") {
		t.Fatalf("plan did not fuse:\n%s", out)
	}
	// Exactly one annotated line: the pipeline itself; the Chain subtree
	// renders plain.
	if got := strings.Count(out, "(actual "); got != 1 {
		t.Errorf("annotated lines = %d, want 1 (pipeline only):\n%s", got, out)
	}
}
