package main

import (
	"fmt"
	"strings"
)

// layerMap says, for each per-layer metric, which end-to-end metric it
// should move and on which workload, and where it should stay flat.
var layerMap = map[string]string{
	"sql.build_us":                      "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on point-lookup; flat on analytic-join",
	"plan.optimize_us":                  "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on point-lookup; flat on analytic-join",
	"exec.compile_us":                   "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on point-lookup; flat on analytic-join",
	"exec.hash_join_self_ms":            "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.aggregate_self_ms":            "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.sort_self_ms":                 "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.project_self_ms":              "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.filter_self_ms":               "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.pipeline_self_ms":             "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.shuffle_bytes":                "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.vector_row_share":             "query_p50_ms, cpu_ms_per_op, alloc_kb_per_op on analytic-join; flat on point-lookup",
	"exec.tasks":                        "query_p95_ms on analytic-join and scan-agg; flat on point-lookup",
	"exec.queue_wait_ms":                "query_p95_ms on analytic-join and scan-agg; flat on point-lookup",
	"exec.task_self_ms":                 "query_p95_ms on analytic-join and scan-agg; flat on point-lookup",
	"core.pages":                        "net_bytes_per_op, query_p50_ms on scan-agg and point-lookup; flat on analytic-join",
	"core.regions_pruned":               "net_bytes_per_op, query_p50_ms on scan-agg and point-lookup; flat on analytic-join",
	"core.filters_unhandled":            "net_bytes_per_op, query_p50_ms on scan-agg and point-lookup; flat on analytic-join",
	"rpc.calls":                         "net_bytes_per_op on scan-agg and point-lookup; flat on mixed-rw writes",
	"rpc.bytes_sent":                    "net_bytes_per_op on scan-agg and point-lookup; flat on mixed-rw writes",
	"rpc.bytes_received":                "net_bytes_per_op on scan-agg and point-lookup; flat on mixed-rw writes",
	"rpc.self_ms":                       "net_bytes_per_op on scan-agg and point-lookup; flat on mixed-rw writes",
	"rpc.modeled_ms":                    "net_bytes_per_op on scan-agg and point-lookup; flat on mixed-rw writes",
	"hbase.region_scan_self_ms":         "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.region_get_self_ms":          "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.rows_scanned":                "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.cells_scanned":               "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.rows_shipped_per_result_row": "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.get_share":                   "query_p50_ms, heap_live_mb on mixed-rw and point-lookup; flat on analytic-join",
	"hbase.insert_ms":                   "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"rpc.put_calls_per_write":           "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"wal.appends_per_write":             "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"hbase.memstore_flushes":            "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"hbase.compactions":                 "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"hbase.store_files_per_region":      "write_ack_p50_ms, space_amp on mixed-rw; flat on every read-only workload",
	"conncache.reuse_ratio":             "stays 1.0 after warm-up on every workload",
	"unattributed_ms":                   "how much of each op the layers above do not explain",
	"trace.overhead_pct":                "traced vs untraced query_p50_ms",
}

func e2eReport(res *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: %d timed ops (%d attempted with warm-up and checks, %d failed); %d query samples, %d write samples\n",
		res.workload, res.ops, res.attempted, res.failed, res.nReads, res.nWrites)
	if res.workload != "mixed-rw" {
		fmt.Fprintf(&b, "  (write_ack_* on a read-only workload: %d-row inserts of new keys into %s, shared out among the set-up rigs; the median rig's figures)\n", batchRows, probeTable)
	}
	for _, m := range res.e2e {
		fmt.Fprintf(&b, "  %-18s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(&b, "  time metrics are at reference speed (calib.go); the timed phase's clock readings were scaled by %.4f and its CPU time by %.4f, each set-up and probe rig by its own factor\n", res.speed, res.cpuSpeed)
	for _, m := range res.raw {
		fmt.Fprintf(&b, "  %-18s %14.4f %s  (clock)\n", m.name, m.value, m.unit)
	}
	b.WriteString("  tails (printed, not among the JSON metrics):\n")
	for _, m := range res.tails {
		fmt.Fprintf(&b, "  %-18s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return b.String()
}

// layerReport is the traced run's table: each per-layer metric with its
// unit, its share of the traced op's wall time (time layers only), and the
// end-to-end metric it maps to.
func layerReport(res *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s: traced budget over %d traced ops (mean wall %.4f ms)\n", res.workload, res.tracedOps, res.wallMs)
	fmt.Fprintf(&b, "  %-34s %14s %-6s %7s  %s\n", "metric", "per op", "unit", "share", "moves / flat on")
	var covered float64
	for _, m := range res.layers {
		share := ""
		if ms, ok := wallPart(m); ok && res.wallMs > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*ms/res.wallMs)
			covered += ms
		}
		fmt.Fprintf(&b, "  %-34s %14.4f %-6s %7s  %s\n", m.name, m.value, m.unit, share, layerMap[m.name])
	}
	fmt.Fprintf(&b, "  layers + unattributed = %.4f ms of %.4f ms wall; an outer timer around each op reads %.4f ms, of which the layers attribute %.1f%%\n",
		covered, res.wallMs, res.outerMs, 100*res.attributedMs/res.outerMs)
	fmt.Fprintf(&b, "  trace.overhead_pct: traced query_p50_ms %.4f vs untraced %.4f\n", res.tracedP50, res.plainP50)
	return b.String()
}

// wallPart reports whether m is one of the time layers that partition a
// traced op's wall time, and its value in ms.
func wallPart(m metric) (float64, bool) {
	switch m.name {
	case layerSQL, layerOptimize, layerCompile:
		return m.value / 1e3, true
	case layerHashJoin, layerAggregate, layerSort, layerProject, layerFilter, layerPipeline,
		layerTask, layerRPC, layerScan, layerGet, layerNone:
		return m.value, true
	}
	return 0, false
}
