package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/bench"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/trace"
)

// Time layers of the budget. Each instant of a traced op's wall time
// belongs to exactly one of them (or to unattributedLayer).
const (
	layerSQL       = "sql.build_us"
	layerOptimize  = "plan.optimize_us"
	layerCompile   = "exec.compile_us"
	layerHashJoin  = "exec.hash_join_self_ms"
	layerAggregate = "exec.aggregate_self_ms"
	layerSort      = "exec.sort_self_ms"
	layerProject   = "exec.project_self_ms"
	layerFilter    = "exec.filter_self_ms"
	layerPipeline  = "exec.pipeline_self_ms"
	layerTask      = "exec.task_self_ms"
	layerRPC       = "rpc.self_ms"
	layerScan      = "hbase.region_scan_self_ms"
	layerGet       = "hbase.region_get_self_ms"
	layerNone      = "unattributed_ms"
)

// spanLayer maps a span of the engine's trace to its layer. Spans the
// budget has no line for (execute itself, limit, union, merge join) stay
// unattributed.
func spanLayer(name string) string {
	switch {
	case name == "op:hash_join":
		return layerHashJoin
	case name == "op:aggregate":
		return layerAggregate
	case name == "op:sort":
		return layerSort
	case name == "op:project":
		return layerProject
	case name == "op:filter":
		return layerFilter
	case name == "op:pipeline", name == "op:agg_pipeline", name == "op:scan":
		return layerPipeline
	case name == "task":
		return layerTask
	case strings.HasPrefix(name, "rpc:"):
		return layerRPC
	case name == "region.scan":
		return layerScan
	case name == "region.get":
		return layerGet
	}
	return layerNone
}

// span is one trace span flattened to offsets from the trace origin.
type span struct {
	name       string
	start, end time.Duration
	parent     int
}

// flatten lists tr's spans depth-first with their start offsets. The trace
// API exposes a span's duration and children but its start only through
// Render's "@offset" field, which Render prints in the same depth-first
// order Walk visits.
func flatten(tr *trace.Trace) ([]span, error) {
	lines := strings.Split(strings.TrimRight(tr.Render(), "\n"), "\n")
	var spans []span
	var stack []int // index of the open ancestor at each depth
	var err error
	tr.Walk(func(depth int, sp *trace.Span) {
		i := len(spans)
		if err != nil {
			return
		}
		if i >= len(lines) {
			err = fmt.Errorf("trace render has %d lines, fewer than its spans", len(lines))
			return
		}
		s := span{name: sp.Name(), parent: -1}
		if depth > 0 {
			fields := strings.Fields(lines[i])
			if len(fields) < 3 || fields[0] != s.name || !strings.HasPrefix(fields[2], "@") {
				err = fmt.Errorf("trace render line %q does not match span %q", lines[i], s.name)
				return
			}
			off, perr := time.ParseDuration(fields[2][1:])
			if perr != nil {
				err = fmt.Errorf("trace render offset %q: %w", fields[2], perr)
				return
			}
			s.start = off
			stack = stack[:depth]
			s.parent = stack[depth-1]
		}
		s.end = s.start + sp.Duration()
		stack = append(stack[:depth], i)
		spans = append(spans, s)
	})
	if err == nil && len(spans) != len(lines) {
		err = fmt.Errorf("trace render has %d lines for %d spans", len(lines), len(spans))
	}
	return spans, err
}

// attribute splits the interval of spans[root] among the layers of its
// subtree: each span's self time is its interval minus the part its
// children cover, and where self times of concurrent spans (tasks on both
// executors) overlap, each instant is shared evenly among them, so the
// layers sum to exactly the root's duration.
func attribute(spans []span, root int) map[string]time.Duration {
	kids := make([][]int, len(spans))
	inTree := make([]bool, len(spans))
	inTree[root] = true
	for i := root + 1; i < len(spans); i++ {
		if p := spans[i].parent; p >= 0 && inTree[p] {
			inTree[i] = true
			kids[p] = append(kids[p], i)
		}
	}
	lo, hi := spans[root].start, spans[root].end
	clip := func(a, b time.Duration) (time.Duration, time.Duration) {
		return max(a, lo), min(b, hi)
	}
	type event struct {
		at    time.Duration
		delta int
		layer string
	}
	var events []event
	for i := range spans {
		if !inTree[i] {
			continue
		}
		// Self segments: the span's interval minus the union of its
		// children's, walking the children in start order.
		a, b := clip(spans[i].start, spans[i].end)
		ch := append([]int(nil), kids[i]...)
		sort.Slice(ch, func(x, y int) bool { return spans[ch[x]].start < spans[ch[y]].start })
		cur := a
		layer := spanLayer(spans[i].name)
		emit := func(from, to time.Duration) {
			if to > from {
				events = append(events, event{from, +1, layer}, event{to, -1, layer})
			}
		}
		for _, c := range ch {
			cs, ce := clip(spans[c].start, spans[c].end)
			if cs > cur {
				emit(cur, min(cs, b))
			}
			cur = max(cur, ce)
		}
		emit(cur, b)
	}
	sort.Slice(events, func(x, y int) bool { return events[x].at < events[y].at })
	out := make(map[string]time.Duration)
	active := make(map[string]int)
	n := 0
	var last time.Duration
	for _, e := range events {
		if n > 0 && e.at > last {
			dt := e.at - last
			for l, k := range active {
				out[l] += dt * time.Duration(k) / time.Duration(n)
			}
		}
		last = e.at
		active[e.layer] += e.delta
		n += e.delta
		if active[e.layer] == 0 {
			delete(active, e.layer)
		}
	}
	// Integer division leaves a few nanoseconds per instant unshared;
	// they, and any instant no span covers, are unattributed.
	var sum time.Duration
	for _, d := range out {
		sum += d
	}
	out[layerNone] += (hi - lo) - sum
	return out
}

// budget accumulates the traced steps of a run.
type budget struct {
	steps, writes, lookups, gets int
	layers                       map[string]time.Duration
	insert                       time.Duration
	counts                       map[string]int64 // rig registry deltas
	queueWait                    time.Duration
	resultRows                   int64
	putCalls                     int64
	tracedLat                    []time.Duration // traced op wall times
	// outer sums an independent timer around each traced read, less the
	// engine's repeated optimize and compile; attributed sums the part of
	// the wall time the layers explain (everything but unattributed_ms).
	outer, attributed time.Duration
}

func newBudget() *budget {
	return &budget{layers: make(map[string]time.Duration), counts: make(map[string]int64)}
}

// traced runs one step with the budget's instruments: the write is timed
// as hbase.insert_ms; the read times the benchmark's own calls to
// Session.SQL, plan.Optimize and exec.CompileWith, then executes through
// DataFrame.AnalyzeContext, whose span tree and operator actuals split the
// execution among the layers. The engine repeats Optimize and CompileWith
// inside AnalyzeContext; those two spans are replaced by the benchmark's
// timings, so the op counts each once, as an untraced op does. Counters
// are the rig registry's deltas across the write and AnalyzeContext.
func (s *setup) traced(st step, b *budget) outcome {
	var o outcome
	meter := s.rig.Meter
	before := meter.Snapshot()
	qw0 := meter.Histogram(metrics.HistQueueWait).Sum()
	puts0 := putCalls(meter)
	if st.writer != nil {
		t0 := time.Now()
		o.err = st.writer.Insert(st.write)
		o.ack = time.Since(t0)
		b.insert += o.ack
		b.writes++
		if o.err != nil {
			return o
		}
	}
	start := time.Now()
	t0 := time.Now()
	df, err := s.rig.Session.SQL(st.sql)
	tSQL := time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	mid := meter.Snapshot()
	t1 := time.Now()
	opt := plan.Optimize(df.LogicalPlan())
	tOpt := time.Since(t1)
	t2 := time.Now()
	cfg := s.rig.Session.Config()
	_, err = exec.CompileWith(opt, exec.CompileConfig{
		SortMergeJoin:        cfg.UseSortMergeJoin,
		DisablePipelining:    cfg.DisablePipelining,
		DisableVectorization: cfg.DisableVectorization,
	})
	tComp := time.Since(t2)
	if err != nil {
		o.err = err
		return o
	}
	// The benchmark's own compile may touch the relation (region lookup,
	// pruning counters); keep it out of the step's counts.
	for k, v := range metrics.Diff(mid, meter.Snapshot()) {
		before[k] += v
	}
	t3 := time.Now()
	rows, tr, _, _, err := df.AnalyzeContext(context.Background())
	tAn := time.Since(t3)
	outer := time.Since(start)
	after := meter.Snapshot()
	o.rows, o.err = rows, err
	if err != nil {
		return o
	}
	spans, err := flatten(tr)
	if err != nil {
		o.err = err
		return o
	}
	var engineOpt, engineComp time.Duration
	exe := -1
	gets, scans := 0, 0
	for i, sp := range spans {
		if sp.parent == 0 {
			switch sp.name {
			case "optimize":
				engineOpt += sp.end - sp.start
			case "compile":
				engineComp += sp.end - sp.start
			case "execute":
				exe = i
			}
		}
		switch sp.name {
		case "region.get":
			gets++
		case "region.scan":
			scans++
		}
	}
	if exe < 0 {
		o.err = fmt.Errorf("trace of %q has no execute span", st.sql)
		return o
	}
	wall := tSQL + tOpt + tComp + tAn - engineOpt - engineComp
	o.lat = wall

	b.steps++
	b.tracedLat = append(b.tracedLat, wall)
	b.layers[layerSQL] += tSQL
	b.layers[layerOptimize] += tOpt
	b.layers[layerCompile] += tComp
	explained := tSQL + tOpt + tComp
	attributed := explained
	for l, d := range attribute(spans, exe) {
		b.layers[l] += d
		explained += d
		if l != layerNone {
			attributed += d
		}
	}
	// Whatever of AnalyzeContext lies outside its optimize, compile and
	// execute spans (fingerprinting, stats, trace bookkeeping).
	b.layers[layerNone] += wall - explained
	b.attributed += attributed
	b.outer += outer - engineOpt - engineComp
	for k, v := range metrics.Diff(before, after) {
		b.counts[k] += v
	}
	b.queueWait += meter.Histogram(metrics.HistQueueWait).Sum() - qw0
	b.putCalls += putCalls(meter) - puts0
	b.resultRows += int64(len(rows))
	if st.point {
		b.lookups++
		if gets > 0 && scans == 0 {
			b.gets++
		}
	}
	return o
}

// putCalls counts the write RPCs the registry has seen, from the per-method
// latency histograms.
func putCalls(m *metrics.Registry) int64 {
	return m.Histogram(metrics.HistRPCLatencyPrefix+hbase.MethodPut).Count() +
		m.Histogram(metrics.HistRPCLatencyPrefix+hbase.MethodMultiPut).Count()
}

// metrics turns the traced steps into the per-layer metrics, each
// normalised per traced op (per write for the write-path ratios).
func (b *budget) metrics(res *result, filesPerRegion float64) []metric {
	ops := float64(max(b.steps, 1))
	writes := float64(max(b.writes, 1))
	c := func(name string) float64 { return float64(b.counts[name]) }
	ms := func(layer string) float64 { return float64(b.layers[layer]) / 1e6 / ops }
	us := func(layer string) float64 { return float64(b.layers[layer]) / 1e3 / ops }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	rpcModel := bench.DefaultRPC()
	modeled := c(metrics.RPCCalls)*float64(rpcModel.CallLatency) +
		c(metrics.ConnectionsCreated)*float64(rpcModel.ConnLatency) +
		(c(metrics.RPCBytesSent)+c(metrics.RPCBytesReceived))/float64(rpcModel.BytesPerSecond)*1e9
	return []metric{
		{layerSQL, us(layerSQL), "us"},
		{layerOptimize, us(layerOptimize), "us"},
		{layerCompile, us(layerCompile), "us"},
		{layerHashJoin, ms(layerHashJoin), "ms"},
		{layerAggregate, ms(layerAggregate), "ms"},
		{layerSort, ms(layerSort), "ms"},
		{layerProject, ms(layerProject), "ms"},
		{layerFilter, ms(layerFilter), "ms"},
		{layerPipeline, ms(layerPipeline), "ms"},
		{"exec.shuffle_bytes", c(metrics.ShuffleBytes) / ops, "bytes"},
		{"exec.vector_row_share", ratio(c(metrics.VectorRows), c(metrics.RowsReturned)), "ratio"},
		{"exec.tasks", c(metrics.TasksLaunched) / ops, "count"},
		{"exec.queue_wait_ms", float64(b.queueWait) / 1e6 / ops, "ms"},
		{layerTask, ms(layerTask), "ms"},
		{"core.pages", c(metrics.FusedPages) / ops, "count"},
		{"core.regions_pruned", c(metrics.RegionsPruned) / ops, "count"},
		{"core.filters_unhandled", c(metrics.FiltersUnhandled) / ops, "count"},
		{"rpc.calls", c(metrics.RPCCalls) / ops, "count"},
		{"rpc.bytes_sent", c(metrics.RPCBytesSent) / ops, "bytes"},
		{"rpc.bytes_received", c(metrics.RPCBytesReceived) / ops, "bytes"},
		{layerRPC, ms(layerRPC), "ms"},
		{"rpc.modeled_ms", modeled / 1e6 / ops, "ms"},
		{layerScan, ms(layerScan), "ms"},
		{layerGet, ms(layerGet), "ms"},
		{"hbase.rows_scanned", c(metrics.RowsScanned) / ops, "count"},
		{"hbase.cells_scanned", c(metrics.CellsScanned) / ops, "count"},
		{"hbase.rows_shipped_per_result_row", ratio(c(metrics.RowsReturned), float64(b.resultRows)), "ratio"},
		{"hbase.get_share", ratio(float64(b.gets), float64(b.lookups)), "ratio"},
		{"hbase.insert_ms", float64(b.insert) / 1e6 / writes, "ms"},
		{"rpc.put_calls_per_write", ratio(float64(b.putCalls), float64(b.writes)), "count"},
		{"wal.appends_per_write", ratio(c(metrics.WALAppends), float64(b.writes)), "count"},
		{"hbase.memstore_flushes", c(metrics.MemstoreFlushes) / ops, "count"},
		{"hbase.compactions", c(metrics.Compactions) / ops, "count"},
		{"hbase.store_files_per_region", filesPerRegion, "count"},
		{"conncache.reuse_ratio", ratio(c(metrics.ConnectionsReused), c(metrics.ConnectionsReused)+c(metrics.ConnectionsCreated)), "ratio"},
		{layerNone, ms(layerNone), "ms"},
		{"trace.overhead_pct", 100 * (res.tracedP50 - res.plainP50) / res.plainP50, "%"},
	}
}
