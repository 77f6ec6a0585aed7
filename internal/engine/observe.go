package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/trace"
)

// queryRun captures what one action's execution produced for the
// observability surfaces: the trace (nil when tracing is off), the
// per-query metrics scope (nil when none), the executed physical plan,
// and the wall time.
type queryRun struct {
	tr    *trace.Trace
	scope *metrics.Registry
	opt   plan.LogicalPlan
	phys  exec.PhysicalPlan
	dur   time.Duration
	// fp/shape identify the statement for the fingerprint stats table and
	// the slow-query log (computed from the optimized plan).
	fp    string
	shape string
}

// run is the single execution path behind every action: optimize, compile,
// and execute under ctx, whose deadline (if any) bounds the query, with each
// phase spanned when a trace is present. With analyze=true (ExplainAnalyze) a
// fresh trace and a fresh per-query metrics scope are installed and every
// operator is wrapped to record actuals. Otherwise the trace and scope are
// whatever the caller put in ctx — both optional, both zero-cost when
// absent. A query slower than SlowQueryThreshold leaves one structured
// line on the slow-query log.
func (df *DataFrame) run(ctx context.Context, analyze bool) ([]plan.Row, *queryRun, error) {
	sess := df.sess
	if df.consistency == datasource.ConsistencyTimeline {
		ctx = datasource.WithConsistency(ctx, datasource.ConsistencyTimeline)
	}
	qr := &queryRun{}
	if analyze {
		qr.tr = trace.New("query")
		ctx = trace.NewContext(ctx, qr.tr)
		qr.scope = metrics.NewRegistry()
		ctx = metrics.WithScope(ctx, qr.scope)
	} else {
		qr.tr = trace.FromContext(ctx)
		qr.scope = metrics.ScopeFrom(ctx)
		if qr.tr == nil && sess.cfg.SlowQueryThreshold > 0 {
			// The slow-query record wants the slowest spans, so the log
			// being on implies tracing every query it may report.
			qr.tr = trace.New("query")
			ctx = trace.NewContext(ctx, qr.tr)
		}
	}

	start := time.Now()
	if df.parseDur > 0 {
		qr.tr.Root().AddTimed("parse", df.parseDur)
	}
	// A frame served from a template has its plan optimized already; only
	// EXPLAIN ANALYZE's report needs it bound to the query's values.
	_, osp := trace.StartSpan(ctx, "optimize")
	switch {
	case df.tmpl == nil:
		qr.opt = plan.Optimize(df.lp)
	case analyze:
		qr.opt = plan.Bind(df.tmpl.opt, df.vals)
	}
	osp.End()
	var labels pprof.LabelSet
	if df.tmpl != nil {
		qr.fp, qr.shape, labels = df.tmpl.fp, df.tmpl.shape, df.tmpl.labels
	} else {
		qr.fp, qr.shape = plan.Fingerprint(qr.opt)
		labels = fingerprintLabels(qr.fp)
	}

	_, csp := trace.StartSpan(ctx, "compile")
	var phys exec.PhysicalPlan
	var err error
	if df.tmpl != nil {
		phys, err = df.tmpl.compile(df.vals, sess.compileConfig())
	} else {
		phys, err = exec.CompileWith(qr.opt, sess.compileConfig())
	}
	csp.SetError(err)
	csp.End()
	if err != nil {
		return nil, qr, err
	}
	if analyze {
		phys = exec.Instrument(phys)
	}
	qr.phys = phys

	ectx, esp := trace.StartSpan(ctx, "execute")
	// The fingerprint label rides the context into every task goroutine, so
	// a CPU profile taken mid-flight attributes samples to the statement
	// shape that burned them (composing with the scheduler's host label and
	// the region server's region label).
	var rows []plan.Row
	pprof.Do(ectx, labels, func(ectx context.Context) {
		rows, err = phys.Execute(sess.execContext(ectx))
	})
	esp.SetError(err)
	esp.End()
	qr.dur = time.Since(start)

	meter := metrics.Scoped(ctx, sess.meter)
	meter.Observe(metrics.HistQueryLatency, qr.dur)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		meter.Inc(metrics.QueriesCancelled)
	}
	sample := ops.QuerySample{
		Fingerprint: qr.fp,
		Shape:       qr.shape,
		Duration:    qr.dur,
		Rows:        int64(len(rows)),
		Retries:     qr.retries(),
		Err:         err != nil,
	}
	if qr.scope != nil {
		sample.Bytes = qr.scope.Get(metrics.RPCBytesReceived)
		sample.Shed = qr.scope.Get(metrics.ServerShed)
	}
	sess.stats.Record(sample)
	sess.logSlowQuery(qr, err)
	return rows, qr, err
}

// fingerprintLabels is the pprof label set a statement's execution runs
// under.
func fingerprintLabels(fp string) pprof.LabelSet { return pprof.Labels("query_fingerprint", fp) }

// ExplainAnalyze executes the plan and reports what actually happened:
// the physical tree annotated with per-operator actual rows, bytes, and
// wall time; a per-region breakdown of server-side scan work; the span
// waterfall; and the query-scoped metrics. The query runs for real — rows
// are materialized and every side effect of execution occurs.
func (df *DataFrame) ExplainAnalyze(ctx context.Context) (string, error) {
	_, qr, err := df.run(ctx, true)
	if err != nil {
		return "", err
	}
	qr.tr.Finish()

	var b strings.Builder
	b.WriteString("== Optimized Logical Plan ==\n")
	b.WriteString(plan.Format(qr.opt))
	b.WriteString("== Physical Plan (actual) ==\n")
	b.WriteString(exec.ExplainAnalyzed(qr.phys))
	if regions := regionBreakdown(qr.tr); regions != "" {
		b.WriteString("== Per-Region Breakdown ==\n")
		b.WriteString(regions)
	}
	b.WriteString("== Query Trace ==\n")
	b.WriteString(qr.tr.Render())
	b.WriteString("== Query Metrics ==\n")
	writeCounters(&b, qr.scope)
	b.WriteString(qr.scope.SummaryString())
	return b.String(), nil
}

// AnalyzeContext is ExplainAnalyze returning the raw artifacts (rows,
// trace, per-query metrics scope, instrumented plan) instead of a report,
// for callers that assert on or post-process them.
func (df *DataFrame) AnalyzeContext(ctx context.Context) ([]plan.Row, *trace.Trace, *metrics.Registry, exec.PhysicalPlan, error) {
	rows, qr, err := df.run(ctx, true)
	qr.tr.Finish()
	return rows, qr.tr, qr.scope, qr.phys, err
}

// regionBreakdown aggregates the server-side scan/get spans by region:
// one line per region with its host, rows produced, span count, and total
// server-side wall time. Empty when the trace holds no region spans.
func regionBreakdown(tr *trace.Trace) string {
	if tr == nil {
		return ""
	}
	type regionAgg struct {
		host      string
		rows      int64
		staleRows int64
		spans     int
		wall      time.Duration
	}
	agg := make(map[string]*regionAgg)
	tr.Walk(func(_ int, s *trace.Span) {
		if s.Name() != "region.scan" && s.Name() != "region.get" {
			return
		}
		id := s.Tag("region")
		a := agg[id]
		if a == nil {
			a = &regionAgg{host: s.Tag("host")}
			agg[id] = a
		}
		a.rows += s.Attr("rows")
		if s.Tag("replica") != "" {
			// The span ran on a secondary copy, so its rows are timeline
			// (possibly-stale) reads.
			a.staleRows += s.Attr("rows")
		}
		a.spans++
		a.wall += s.Duration()
	})
	if len(agg) == 0 {
		return ""
	}
	ids := make([]string, 0, len(agg))
	for id := range agg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		a := agg[id]
		fmt.Fprintf(&b, "%s  host=%s rows=%d spans=%d time=%s",
			id, a.host, a.rows, a.spans, a.wall.Round(time.Microsecond))
		if a.staleRows > 0 {
			fmt.Fprintf(&b, " stale_rows=%d", a.staleRows)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// writeCounters renders the scope's non-zero counters sorted by name.
func writeCounters(b *strings.Builder, scope *metrics.Registry) {
	snap := scope.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(b, "%s = %d\n", name, snap[name])
	}
}

// logSlowQuery emits one structured line when the query exceeded the
// session's slow-query threshold: plan shape, wall time, retry counts,
// the top-3 slowest spans, and the error if any.
func (s *Session) logSlowQuery(qr *queryRun, err error) {
	threshold := s.cfg.SlowQueryThreshold
	if threshold <= 0 || qr.dur < threshold {
		return
	}
	w := s.cfg.SlowQueryLog
	if w == nil {
		w = os.Stderr
	}
	var b strings.Builder
	fmt.Fprintf(&b, "slow-query fingerprint=%s dur=%s threshold=%s shape=%s",
		qr.fp, qr.dur.Round(time.Microsecond), threshold, shapeOf(qr.phys))
	if retries := qr.retries(); retries > 0 {
		fmt.Fprintf(&b, " retries=%d", retries)
	}
	if spans := qr.tr.Slowest(3); len(spans) > 0 {
		parts := make([]string, len(spans))
		for i, st := range spans {
			parts[i] = fmt.Sprintf("%s=%s", st.Name, st.Duration.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, " slowest=[%s]", strings.Join(parts, " "))
	}
	if err != nil {
		fmt.Fprintf(&b, " err=%q", err)
	}
	b.WriteByte('\n')
	io.WriteString(w, b.String())
	s.stats.RecordSlow(qr.fp, qr.shape, strings.TrimSuffix(b.String(), "\n"))
}

// retries counts retried work under this query: scoped counters when a
// scope exists, otherwise retry-tagged task spans in the trace.
func (qr *queryRun) retries() int64 {
	if qr.scope != nil {
		return qr.scope.Get(metrics.TasksRetried) + qr.scope.Get(metrics.ClientRetries)
	}
	var n int64
	if qr.tr != nil {
		qr.tr.Walk(func(_ int, s *trace.Span) {
			if s.Name() == "task" && s.Tag("outcome") == "retried" {
				n++
			}
		})
	}
	return n
}

// shapeOf renders a compact one-line plan shape, e.g.
// "HashAggExec(PipelineExec(FilterExec(ScanExec)))".
func shapeOf(p exec.PhysicalPlan) string {
	if p == nil {
		return "?"
	}
	name := p.Explain()
	if i := strings.IndexByte(name, ' '); i > 0 {
		name = name[:i]
	}
	kids := p.Children()
	if len(kids) == 0 {
		return name
	}
	parts := make([]string, len(kids))
	for i, c := range kids {
		parts[i] = shapeOf(c)
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}
