// Package bench regenerates every table and figure of the paper's §VII.
// Each experiment boots paired rigs (SHC and the Spark SQL baseline) that
// differ only in the connector, runs the same TPC-DS queries on both, and
// reports the series the paper plots. cmd/shcbench prints them; the
// repository-root benchmarks wrap them in testing.B.
package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/tpcds"
)

// Params sizes an experiment run.
type Params struct {
	// Scales is the data-size axis (stands in for the paper's 5–30 GB).
	Scales []int
	// Servers is the cluster size; default 5 (the paper's testbed).
	Servers int
	// Executors is the Fig. 6 executor-count axis (total executors).
	Executors []int
	// ExecutorsPerHost for non-Fig6 experiments; default 2.
	ExecutorsPerHost int
	// Runs is the number of timed runs behind each measurement; default 1.
	// A query's figure is the median of its warm runs (see timeQuery), a
	// write's the mean.
	Runs int
	// RPC is the simulated network cost model; DefaultRPC() unless set.
	RPC rpc.Config
	// Seed drives the chaos experiment's fault injection; default 1.
	Seed int64
	// Out receives the printed tables (io.Discard when nil).
	Out io.Writer
	// MetricsOut, when set, receives a Prometheus-style exposition dump of
	// the experiment rig's metrics after the run (shcbench -metrics).
	MetricsOut io.Writer
}

func (p Params) withDefaults() Params {
	if len(p.Scales) == 0 {
		p.Scales = []int{1, 2, 3, 4, 5, 6} // the 5..30 GB axis
	}
	if p.Servers <= 0 {
		p.Servers = 5
	}
	if len(p.Executors) == 0 {
		p.Executors = []int{5, 10, 15, 20, 25}
	}
	if p.ExecutorsPerHost <= 0 {
		p.ExecutorsPerHost = 2
	}
	if p.Runs <= 0 {
		p.Runs = 1
	}
	if p.RPC == (rpc.Config{}) {
		p.RPC = DefaultRPC()
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Out == nil {
		p.Out = io.Discard
	}
	return p
}

// DefaultRPC charges a realistic-shaped cost per connection and call so
// connection caching and operator fusion surface in wall-clock numbers.
func DefaultRPC() rpc.Config {
	return rpc.Config{
		ConnLatency:    200 * time.Microsecond,
		CallLatency:    20 * time.Microsecond,
		BytesPerSecond: 1 << 30, // 1 GiB/s simulated NIC
	}
}

// Point is one measured (x, SHC, SparkSQL) sample.
type Point struct {
	X        int
	SHC      float64
	SparkSQL float64
}

// Series is one experiment's output for one query.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

func (s Series) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s  (x=%s, y=%s)\n", s.Name, s.XLabel, s.YLabel)
	fmt.Fprintf(w, "%12s %14s %14s %8s\n", s.XLabel, "SHC", "SparkSQL", "ratio")
	for _, pt := range s.Points {
		ratio := 0.0
		if pt.SHC > 0 {
			ratio = pt.SparkSQL / pt.SHC
		}
		fmt.Fprintf(w, "%12d %14.3f %14.3f %7.1fx\n", pt.X, pt.SHC, pt.SparkSQL, ratio)
	}
}

func bootPair(p Params, scale, executorsPerHost int, opts core.Options) (*harness.Rig, *harness.Rig, error) {
	shcRig, err := harness.NewRig(harness.Config{
		System: harness.SHC, Servers: p.Servers, Scale: scale,
		ExecutorsPerHost: executorsPerHost, RPC: p.RPC, Options: opts,
	})
	if err != nil {
		return nil, nil, err
	}
	baseRig, err := harness.NewRig(harness.Config{
		System: harness.SparkSQL, Servers: p.Servers, Scale: scale,
		ExecutorsPerHost: executorsPerHost, RPC: p.RPC, Options: opts,
	})
	if err != nil {
		shcRig.Close()
		return nil, nil, err
	}
	return shcRig, baseRig, nil
}

// timeQuery runs query once untimed, so that the timed runs find the plan
// cache, the client's region map and the regions' read views warm, then
// returns the median wall time of p.Runs runs and the last run's counter
// deltas.
func timeQuery(p Params, rig *harness.Rig, query string) (time.Duration, map[string]int64, error) {
	if _, err := rig.Run(query); err != nil {
		return 0, nil, err
	}
	times := make([]time.Duration, p.Runs)
	var delta map[string]int64
	for i := range times {
		res, err := rig.Run(query)
		if err != nil {
			return 0, nil, err
		}
		times[i], delta = res.Elapsed, res.Delta
	}
	slices.Sort(times)
	mid := len(times) / 2
	if len(times)%2 == 0 {
		return (times[mid-1] + times[mid]) / 2, delta, nil
	}
	return times[mid], delta, nil
}

// Fig4 reproduces "Evaluation of query performance": query latency versus
// data size for q39a and q39b on both systems.
func Fig4(p Params) ([]Series, error) {
	p = p.withDefaults()
	queries := map[string]string{"q39a": tpcds.Q39a(), "q39b": tpcds.Q39b()}
	out := []Series{
		{Name: "Fig 4a: TPC-DS q39a query latency", XLabel: "scale", YLabel: "seconds"},
		{Name: "Fig 4b: TPC-DS q39b query latency", XLabel: "scale", YLabel: "seconds"},
	}
	for _, scale := range p.Scales {
		shcRig, baseRig, err := bootPair(p, scale, p.ExecutorsPerHost, core.Options{})
		if err != nil {
			return nil, err
		}
		for qi, qname := range []string{"q39a", "q39b"} {
			sd, _, err := timeQuery(p, shcRig, queries[qname])
			if err != nil {
				return nil, fmt.Errorf("bench: %s on SHC: %w", qname, err)
			}
			bd, _, err := timeQuery(p, baseRig, queries[qname])
			if err != nil {
				return nil, fmt.Errorf("bench: %s on SparkSQL: %w", qname, err)
			}
			out[qi].Points = append(out[qi].Points, Point{X: scale, SHC: sd.Seconds(), SparkSQL: bd.Seconds()})
		}
		shcRig.Close()
		baseRig.Close()
	}
	for _, s := range out {
		s.print(p.Out)
	}
	return out, nil
}

// Fig5 reproduces "Shuffle cost": kilobytes moved across the simulated
// network (source fetch + shuffle) versus data size for q39a and q39b.
// In this reproduction both engines filter before joining, so the pure
// shuffle stage is comparable; the baseline's extra movement — exactly what
// the paper attributes to missing pushdown — shows up on the fetch side,
// and the figure reports their sum.
func Fig5(p Params) ([]Series, error) {
	p = p.withDefaults()
	queries := map[string]string{"q39a": tpcds.Q39a(), "q39b": tpcds.Q39b()}
	out := []Series{
		{Name: "Fig 5a: TPC-DS q39a data movement", XLabel: "scale", YLabel: "KB"},
		{Name: "Fig 5b: TPC-DS q39b data movement", XLabel: "scale", YLabel: "KB"},
	}
	moved := func(d map[string]int64) float64 {
		return float64(d[metrics.ShuffleBytes]+d[metrics.RPCBytesReceived]) / 1024
	}
	for _, scale := range p.Scales {
		shcRig, baseRig, err := bootPair(p, scale, p.ExecutorsPerHost, core.Options{})
		if err != nil {
			return nil, err
		}
		for qi, qname := range []string{"q39a", "q39b"} {
			_, sd, err := timeQuery(p, shcRig, queries[qname])
			if err != nil {
				return nil, err
			}
			_, bd, err := timeQuery(p, baseRig, queries[qname])
			if err != nil {
				return nil, err
			}
			out[qi].Points = append(out[qi].Points, Point{X: scale, SHC: moved(sd), SparkSQL: moved(bd)})
		}
		shcRig.Close()
		baseRig.Close()
	}
	for _, s := range out {
		s.print(p.Out)
	}
	return out, nil
}

// Fig6 reproduces "Effect of executor number": q39a/q39b latency as the
// total executor count grows on a fixed data size.
func Fig6(p Params) ([]Series, error) {
	p = p.withDefaults()
	scale := p.Scales[len(p.Scales)/2]
	queries := map[string]string{"q39a": tpcds.Q39a(), "q39b": tpcds.Q39b()}
	out := []Series{
		{Name: fmt.Sprintf("Fig 6a: q39a latency vs executors (scale %d)", scale), XLabel: "executors", YLabel: "seconds"},
		{Name: fmt.Sprintf("Fig 6b: q39b latency vs executors (scale %d)", scale), XLabel: "executors", YLabel: "seconds"},
	}
	for _, execs := range p.Executors {
		perHost := execs / p.Servers
		if perHost <= 0 {
			perHost = 1
		}
		shcRig, baseRig, err := bootPair(p, scale, perHost, core.Options{})
		if err != nil {
			return nil, err
		}
		for qi, qname := range []string{"q39a", "q39b"} {
			sd, _, err := timeQuery(p, shcRig, queries[qname])
			if err != nil {
				return nil, err
			}
			bd, _, err := timeQuery(p, baseRig, queries[qname])
			if err != nil {
				return nil, err
			}
			out[qi].Points = append(out[qi].Points, Point{X: execs, SHC: sd.Seconds(), SparkSQL: bd.Seconds()})
		}
		shcRig.Close()
		baseRig.Close()
	}
	for _, s := range out {
		s.print(p.Out)
	}
	return out, nil
}

// Fig7 reproduces "Evaluation of write performance": time to write the
// q39a tables (4a) and the q38 tables (4b/q38) into HBase through each
// system's write path, versus data size.
func Fig7(p Params) ([]Series, error) {
	p = p.withDefaults()
	tableSets := [][]string{
		{"warehouse", "item", "date_dim", "inventory"}, // q39a's four tables
		{"date_dim", "store_sales", "web_sales"},       // q38's tables
	}
	out := []Series{
		{Name: "Fig 7a: write time, q39a tables", XLabel: "scale", YLabel: "seconds"},
		{Name: "Fig 7b: write time, q38 tables", XLabel: "scale", YLabel: "seconds"},
	}
	for _, scale := range p.Scales {
		for ti, tables := range tableSets {
			var times [2]time.Duration
			for si, sys := range []harness.System{harness.SHC, harness.SparkSQL} {
				var total time.Duration
				for run := 0; run < p.Runs; run++ {
					rig, err := harness.NewRig(harness.Config{
						System: sys, Servers: p.Servers, Scale: scale,
						ExecutorsPerHost: p.ExecutorsPerHost, RPC: p.RPC, SkipLoad: true,
					})
					if err != nil {
						return nil, err
					}
					for _, table := range tables {
						d, err := rig.LoadTable(table, rig.Data.Rows(table))
						if err != nil {
							rig.Close()
							return nil, fmt.Errorf("bench: write %s via %s: %w", table, sys, err)
						}
						total += d
					}
					rig.Close()
				}
				times[si] = total / time.Duration(p.Runs)
			}
			out[ti].Points = append(out[ti].Points, Point{
				X: scale, SHC: times[0].Seconds(), SparkSQL: times[1].Seconds(),
			})
		}
	}
	for _, s := range out {
		s.print(p.Out)
	}
	return out, nil
}

// Table2Row is one row of the encoding-comparison table.
type Table2Row struct {
	System    string
	Coder     string
	QuerySec  float64
	WriteSec  float64
	MemoryMB  float64
	Supported bool
}

// Table2 reproduces "Performance on different encoding types": query time,
// write time, and engine memory for the Native (PrimitiveType), Phoenix,
// and Avro coders under SHC, plus the baseline's single generic path.
func Table2(p Params) ([]Table2Row, error) {
	p = p.withDefaults()
	scale := p.Scales[len(p.Scales)/2]
	var rows []Table2Row
	measure := func(sys harness.System, coder string) (Table2Row, error) {
		row := Table2Row{System: sys.String(), Coder: coder, Supported: true}
		// Write time: load the q39a tables from scratch.
		rig, err := harness.NewRig(harness.Config{
			System: sys, Servers: p.Servers, Scale: scale, Coder: coder,
			ExecutorsPerHost: p.ExecutorsPerHost, RPC: p.RPC, SkipLoad: true,
		})
		if err != nil {
			return row, err
		}
		defer rig.Close()
		var wtotal time.Duration
		for _, table := range tpcds.TableNames {
			d, err := rig.LoadTable(table, rig.Data.Rows(table))
			if err != nil {
				return row, err
			}
			wtotal += d
		}
		row.WriteSec = wtotal.Seconds()
		qd, delta, err := timeQuery(p, rig, tpcds.Q39a())
		if err != nil {
			return row, err
		}
		row.QuerySec = qd.Seconds()
		row.MemoryMB = float64(delta[metrics.MemoryCharged]) / (1 << 20)
		return row, nil
	}
	for _, coder := range []string{"PrimitiveType", "Phoenix", "Avro"} {
		row, err := measure(harness.SHC, coder)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 SHC/%s: %w", coder, err)
		}
		rows = append(rows, row)
	}
	// The baseline supports only its native generic path; Phoenix and Avro
	// data are unreadable to it (the × cells of the paper's Table II).
	nat, err := measure(harness.SparkSQL, "")
	if err != nil {
		return nil, fmt.Errorf("bench: table2 SparkSQL: %w", err)
	}
	nat.Coder = "Native"
	rows = append(rows, nat)
	rows = append(rows,
		Table2Row{System: "SparkSQL", Coder: "Phoenix"},
		Table2Row{System: "SparkSQL", Coder: "Avro"},
	)

	fmt.Fprintf(p.Out, "\nTable II: performance on different encoding types (scale %d)\n", scale)
	fmt.Fprintf(p.Out, "%-10s %-14s %12s %12s %12s\n", "System", "Type", "Query(s)", "Write(s)", "Memory(MB)")
	for _, r := range rows {
		if !r.Supported {
			fmt.Fprintf(p.Out, "%-10s %-14s %12s %12s %12s\n", r.System, r.Coder, "x", "x", "x")
			continue
		}
		fmt.Fprintf(p.Out, "%-10s %-14s %12.3f %12.3f %12.2f\n", r.System, r.Coder, r.QuerySec, r.WriteSec, r.MemoryMB)
	}
	return rows, nil
}

// AblationRow is one configuration of the design-choice ablation.
type AblationRow struct {
	Config      string
	QuerySec    float64
	RowsFetched int64
	RPCCalls    int64
	Conns       int64
}

// Ablation quantifies each SHC optimization the paper describes (§VI-A) by
// turning them off one at a time and rerunning q39a.
func Ablation(p Params) ([]AblationRow, error) {
	p = p.withDefaults()
	scale := p.Scales[len(p.Scales)/2]
	configs := []struct {
		name    string
		opts    core.Options
		noCache bool
	}{
		{"full SHC", core.Options{}, false},
		{"no partition pruning", core.Options{DisablePartitionPruning: true}, false},
		{"no filter pushdown", core.Options{DisableFilterPushdown: true}, false},
		{"no operator fusion", core.Options{DisableOperatorFusion: true}, false},
		{"no connection cache", core.Options{}, true},
		{"first dimension only (paper)", core.Options{FirstDimensionPruning: true}, false},
	}
	var rows []AblationRow
	for _, cfg := range configs {
		rig, err := harness.NewRig(harness.Config{
			System: harness.SHC, Servers: p.Servers, Scale: scale,
			ExecutorsPerHost: p.ExecutorsPerHost, RPC: p.RPC, Options: cfg.opts,
			DisableConnCache: cfg.noCache,
		})
		if err != nil {
			return nil, err
		}
		d, delta, err := timeQuery(p, rig, tpcds.Q39a())
		rig.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", cfg.name, err)
		}
		rows = append(rows, AblationRow{
			Config:      cfg.name,
			QuerySec:    d.Seconds(),
			RowsFetched: delta[metrics.RowsReturned],
			RPCCalls:    delta[metrics.RPCCalls],
			Conns:       delta[metrics.ConnectionsCreated],
		})
	}
	fmt.Fprintf(p.Out, "\nAblation: SHC optimizations on q39a (scale %d)\n", scale)
	fmt.Fprintf(p.Out, "%-32s %12s %14s %8s %8s\n", "Configuration", "Query(s)", "RowsFetched", "RPCs", "Conns")
	for _, r := range rows {
		fmt.Fprintf(p.Out, "%-32s %12.3f %14d %8d %8d\n", r.Config, r.QuerySec, r.RowsFetched, r.RPCCalls, r.Conns)
	}
	return rows, nil
}

// StreamingRow is one measurement of the streaming-vs-materialized
// comparison: the same query executed through the fused batch pipeline and
// through the Volcano-style materialized operators.
type StreamingRow struct {
	Query           string
	Mode            string // "streamed" or "materialized"
	QuerySec        float64
	Rows            int
	RowsPerSec      float64
	PeakMemMB       float64 // high-water decoded-row memory (MemoryPeak)
	Batches         int64   // batches streamed through pipelines
	PagesPrefetched int64   // fused pages fetched while a prior page decoded
	ShortCircuited  int64   // rows dropped unprocessed once LIMIT was met
	RowsScanned     int64   // rows the region servers walked for the query
}

// StreamingComparison measures the batch-pipeline execution path against the
// materialized one on an SHC rig: a LIMIT query that should short-circuit
// the scan, and a residual-filter scan that streams the whole table but
// releases batches as it goes. The materialized rows keep the same counters
// for contrast (their pipeline counters stay zero).
func StreamingComparison(p Params) ([]StreamingRow, error) {
	p = p.withDefaults()
	scale := p.Scales[len(p.Scales)/2]
	queries := []struct{ name, sql string }{
		{"limit", "SELECT inv_item_sk, inv_quantity_on_hand FROM inventory LIMIT 50"},
		{"filter-scan", "SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 10"},
	}
	var rows []StreamingRow
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"streamed", false}, {"materialized", true}} {
		for _, q := range queries {
			rig, err := harness.NewRig(harness.Config{
				System: harness.SHC, Servers: p.Servers, Scale: scale,
				ExecutorsPerHost: p.ExecutorsPerHost, RPC: p.RPC,
				DisablePipelining: mode.disable,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: streaming %s/%s: %w", mode.name, q.name, err)
			}
			res, err := rig.Run(q.sql)
			rig.Close()
			if err != nil {
				return nil, fmt.Errorf("bench: streaming %s/%s: %w", mode.name, q.name, err)
			}
			d, delta, n := res.Elapsed, res.Delta, len(res.Rows)
			row := StreamingRow{
				Query:           q.name,
				Mode:            mode.name,
				QuerySec:        d.Seconds(),
				Rows:            n,
				PeakMemMB:       float64(delta[metrics.MemoryPeak]) / (1 << 20),
				Batches:         delta[metrics.BatchesStreamed],
				PagesPrefetched: delta[metrics.PagesPrefetched],
				ShortCircuited:  delta[metrics.RowsShortCircuited],
				RowsScanned:     delta[metrics.RowsScanned],
			}
			if d > 0 {
				row.RowsPerSec = float64(n) / d.Seconds()
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintf(p.Out, "\nStreaming vs materialized execution (scale %d)\n", scale)
	fmt.Fprintf(p.Out, "%-12s %-13s %10s %8s %12s %10s %8s %10s %8s %9s\n",
		"Query", "Mode", "Query(s)", "Rows", "Rows/s", "PeakMB", "Batches", "Prefetch", "ShortCkt", "Scanned")
	for _, r := range rows {
		fmt.Fprintf(p.Out, "%-12s %-13s %10.4f %8d %12.0f %10.3f %8d %10d %8d %9d\n",
			r.Query, r.Mode, r.QuerySec, r.Rows, r.RowsPerSec, r.PeakMemMB, r.Batches, r.PagesPrefetched, r.ShortCircuited, r.RowsScanned)
	}
	return rows, nil
}

// Table1 prints the static feature-comparison matrix of the paper's
// Table I.
func Table1(w io.Writer) {
	fmt.Fprintln(w, "\nTable I: comparison between SHC and other systems")
	rows := [][]string{
		{"Feature", "SHC", "Spark SQL", "Phoenix Spark", "Huawei Spark HBase"},
		{"SQL", "yes", "yes", "yes", "yes"},
		{"Dataframe API", "yes", "yes", "yes", "yes"},
		{"In-memory", "yes", "yes", "yes", "yes"},
		{"Query planner", "yes", "yes", "yes", "yes"},
		{"Query optimizer", "yes", "yes", "yes", "yes"},
		{"Multiple data coding", "yes", "yes", "no", "no"},
		{"Concurrent query execution", "thread pool", "user-level process", "user-level process", "user-level process"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-12s %-20s %-20s %-20s\n", r[0], r[1], r[2], r[3], r[4])
	}
}
