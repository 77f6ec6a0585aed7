package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// VectorRow is one measurement of the vectorized-vs-row comparison.
type VectorRow struct {
	Section    string // "kernel" (exec layer, columnar source) or "e2e" (full rig)
	Query      string
	Mode       string  // "vectorized" or "row"
	Rows       int64   // input rows processed per run
	RowsPerSec float64 // input rows / best run
	P50Ms      float64
	P99Ms      float64
	Speedup    float64 // best-of row time / best-of vectorized time (vectorized rows only)
}

// VectorResult is the vector experiment's output, serialized to
// BENCH_vector.json by cmd/shcbench.
type VectorResult struct {
	Rows []VectorRow
	// FullScanAggSpeedup is the headline number: kernel full-scan
	// aggregation throughput, vectorized over row-at-a-time.
	FullScanAggSpeedup float64
}

// Vector measures columnar vectorized execution against the row-at-a-time
// path. The kernel section runs the executor over a natively columnar
// in-memory source — the analogue of decoding an HBase CellBlock page
// straight into vectors versus boxing every cell into rows — so it isolates
// the execution model. The e2e section reruns the comparison through the
// full rig (simulated cluster, fused paged RPC) on TPC-DS store_sales.
func Vector(p Params) (*VectorResult, error) {
	p = p.withDefaults()
	samples := p.Runs
	if samples < 5 {
		samples = 5
	}
	res := &VectorResult{}

	// --- kernel: exec layer over a columnar source ---
	const kernelRows = 400_000
	rel := newColRelation(kernelRows, 4)
	kernelQueries := []struct {
		name string
		lp   func() plan.LogicalPlan
	}{
		{"full-scan-agg", aggKernelPlan(rel)},
		{"filter-project", func() plan.LogicalPlan {
			return &plan.ProjectNode{
				Exprs: []plan.NamedExpr{{Expr: plan.Col("k"), Name: "k"}},
				Child: &plan.FilterNode{
					Cond:  &plan.Comparison{Op: plan.OpLt, L: plan.Col("q"), R: plan.Lit(int64(10))},
					Child: &plan.ScanNode{Relation: rel},
				},
			}
		}},
	}
	for _, q := range kernelQueries {
		var best [2]time.Duration
		for mi, mode := range []struct {
			name    string
			disable bool
		}{{"vectorized", false}, {"row", true}} {
			times, err := kernelSamples(q.lp, exec.CompileConfig{DisableVectorization: mode.disable}, samples)
			if err != nil {
				return nil, fmt.Errorf("bench: vector kernel %s/%s: %w", q.name, mode.name, err)
			}
			best[mi] = times[0]
			res.Rows = append(res.Rows, VectorRow{
				Section:    "kernel",
				Query:      q.name,
				Mode:       mode.name,
				Rows:       kernelRows,
				RowsPerSec: float64(kernelRows) / times[0].Seconds(),
				P50Ms:      percentile(times, 0.50).Seconds() * 1e3,
				P99Ms:      percentile(times, 0.99).Seconds() * 1e3,
			})
		}
		speedup := best[1].Seconds() / best[0].Seconds()
		res.Rows[len(res.Rows)-2].Speedup = speedup
		if q.name == "full-scan-agg" {
			res.FullScanAggSpeedup = speedup
		}
	}

	// --- e2e: full rig on store_sales ---
	scale := p.Scales[len(p.Scales)/2]
	e2eQueries := []struct{ name, sql string }{
		{"e2e-agg", "SELECT count(1), sum(ss_quantity), min(ss_item_sk), max(ss_item_sk) FROM store_sales"},
		{"e2e-filter", "SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 10"},
	}
	for _, q := range e2eQueries {
		var best [2]time.Duration
		for mi, mode := range []struct {
			name    string
			disable bool
		}{{"vectorized", false}, {"row", true}} {
			rig, err := harness.NewRig(harness.Config{
				System: harness.SHC, Servers: p.Servers, Scale: scale,
				ExecutorsPerHost: p.ExecutorsPerHost, RPC: p.RPC,
				DisableVectorization: mode.disable,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: vector e2e %s/%s: %w", q.name, mode.name, err)
			}
			times := make([]time.Duration, 0, samples)
			var scanned int64
			for i := 0; i < samples; i++ {
				run, err := rig.Run(q.sql)
				if err != nil {
					rig.Close()
					return nil, fmt.Errorf("bench: vector e2e %s/%s: %w", q.name, mode.name, err)
				}
				times = append(times, run.Elapsed)
				scanned = run.Delta[metrics.RowsScanned]
			}
			rig.Close()
			sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
			best[mi] = times[0]
			res.Rows = append(res.Rows, VectorRow{
				Section:    "e2e",
				Query:      q.name,
				Mode:       mode.name,
				Rows:       scanned,
				RowsPerSec: float64(scanned) / times[0].Seconds(),
				P50Ms:      percentile(times, 0.50).Seconds() * 1e3,
				P99Ms:      percentile(times, 0.99).Seconds() * 1e3,
			})
		}
		res.Rows[len(res.Rows)-2].Speedup = best[1].Seconds() / best[0].Seconds()
	}

	fmt.Fprintf(p.Out, "\nVectorized vs row-at-a-time execution (kernel: %d rows; e2e: scale %d)\n", kernelRows, scale)
	fmt.Fprintf(p.Out, "%-8s %-16s %-12s %10s %14s %10s %10s %9s\n",
		"Section", "Query", "Mode", "Rows", "Rows/s", "p50(ms)", "p99(ms)", "Speedup")
	for _, r := range res.Rows {
		su := ""
		if r.Speedup > 0 {
			su = fmt.Sprintf("%.1fx", r.Speedup)
		}
		fmt.Fprintf(p.Out, "%-8s %-16s %-12s %10d %14.0f %10.3f %10.3f %9s\n",
			r.Section, r.Query, r.Mode, r.Rows, r.RowsPerSec, r.P50Ms, r.P99Ms, su)
	}
	return res, nil
}

// aggKernelPlan builds the full-scan aggregation over rel — one pass of
// Count/Sum/Avg/Min/Max with no grouping, the shape the fused AggPipeline
// collapses to partial merges.
func aggKernelPlan(rel *colRelation) func() plan.LogicalPlan {
	return func() plan.LogicalPlan {
		return &plan.AggregateNode{
			Aggs: []plan.AggExpr{
				{Kind: plan.AggCount, Name: "n"},
				{Kind: plan.AggSum, Arg: plan.Col("q"), Name: "sum_q"},
				{Kind: plan.AggAvg, Arg: plan.Col("price"), Name: "avg_price"},
				{Kind: plan.AggMin, Arg: plan.Col("q"), Name: "min_q"},
				{Kind: plan.AggMax, Arg: plan.Col("q"), Name: "max_q"},
			},
			Child: &plan.ScanNode{Relation: rel},
		}
	}
}

// FullScanAggSpeedup measures the headline kernel number in isolation:
// best-of-n full-scan aggregation time on the row path over the vectorized
// path. CI gates on it staying above the acceptance threshold.
func FullScanAggSpeedup(rows, samples int) (float64, error) {
	rel := newColRelation(rows, 4)
	lp := aggKernelPlan(rel)
	vec, err := kernelSamples(lp, exec.CompileConfig{}, samples)
	if err != nil {
		return 0, err
	}
	row, err := kernelSamples(lp, exec.CompileConfig{DisableVectorization: true}, samples)
	if err != nil {
		return 0, err
	}
	return row[0].Seconds() / vec[0].Seconds(), nil
}

// kernelCtx builds a local execution context for kernel measurements.
func kernelCtx() *exec.Context {
	m := metrics.NewRegistry()
	return &exec.Context{
		Ctx:       context.Background(),
		Scheduler: exec.NewScheduler([]string{"local"}, 4, m),
		Meter:     m,
	}
}

// kernelSamples compiles and executes lp n times, returning sorted run times.
func kernelSamples(lp func() plan.LogicalPlan, cfg exec.CompileConfig, n int) ([]time.Duration, error) {
	ctx := kernelCtx()
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		phys, err := exec.CompileWith(plan.Optimize(lp()), cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := phys.Execute(ctx); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times, nil
}

// percentile reads q from sorted times.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// colRelation is a natively columnar in-memory source: partitions hold
// typed arrays, so the vector path appends values straight into vectors
// while the row path must box every cell — the same asymmetry the HBase
// relation has between CellBlock decoding and row materialization.
type colRelation struct {
	schema plan.Schema
	parts  []*colPartition
}

type colPartition struct {
	index int
	k     []int64
	q     []int64
	price []float64
}

func newColRelation(rows, parts int) *colRelation {
	r := &colRelation{schema: plan.Schema{
		{Name: "k", Type: plan.TypeInt64},
		{Name: "q", Type: plan.TypeInt64},
		{Name: "price", Type: plan.TypeFloat64},
	}}
	per := rows / parts
	for pi := 0; pi < parts; pi++ {
		p := &colPartition{index: pi}
		for i := 0; i < per; i++ {
			g := int64(pi*per + i)
			p.k = append(p.k, g)
			p.q = append(p.q, g%97)
			p.price = append(p.price, float64(g%1000)/4)
		}
		r.parts = append(r.parts, p)
	}
	return r
}

// Name implements datasource.Relation.
func (r *colRelation) Name() string { return "vbench" }

// Schema implements datasource.Relation.
func (r *colRelation) Schema() plan.Schema { return r.schema }

// BuildScan implements datasource.PrunedFilteredScan (every filter is left
// to the engine, keeping a residual predicate in the pipeline).
func (r *colRelation) BuildScan(required []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	cols := make([]int, len(required))
	for i, name := range required {
		cols[i] = r.schema.IndexOf(name)
		if cols[i] < 0 {
			return nil, nil, fmt.Errorf("bench: no column %q", name)
		}
	}
	out := make([]datasource.Partition, len(r.parts))
	for i, p := range r.parts {
		out[i] = &colScan{rel: r, part: p, cols: cols}
	}
	unhandled := make([]int, len(filters))
	for i := range unhandled {
		unhandled[i] = i
	}
	return out, unhandled, nil
}

type colScan struct {
	rel  *colRelation
	part *colPartition
	cols []int
}

// Index implements datasource.Partition.
func (s *colScan) Index() int { return s.part.index }

// PreferredHost implements datasource.Partition.
func (s *colScan) PreferredHost() string { return "" }

// colBatchRows bounds the rows per batch a colScan yields.
const colBatchRows = 1024

// Batches implements datasource.Partition: typed appends, no boxing, into
// one reused batch. Under Keep each batch's rows are boxed into a batch of
// their own, as a row-at-a-time source yields them: the row side of the
// comparison boxes every cell.
func (s *colScan) Batches(_ context.Context, opts datasource.BatchOptions, yield func(*plan.Batch) error) error {
	schema := make(plan.Schema, len(s.cols))
	for j, c := range s.cols {
		schema[j] = s.rel.schema[c]
	}
	batch := plan.NewBatch(schema)
	n := len(s.part.k)
	if opts.LimitHint > 0 && opts.LimitHint < n {
		n = opts.LimitHint
	}
	for at := 0; at < n; at += colBatchRows {
		end := min(at+colBatchRows, n)
		batch.Reset()
		for j, c := range s.cols {
			vec := batch.Cols[j]
			switch c {
			case 0:
				for i := at; i < end; i++ {
					vec.AppendInt64(s.part.k[i])
				}
			case 1:
				for i := at; i < end; i++ {
					vec.AppendInt64(s.part.q[i])
				}
			default:
				for i := at; i < end; i++ {
					vec.AppendFloat64(s.part.price[i])
				}
			}
		}
		batch.SetLen(end - at)
		b := batch
		if opts.Keep {
			rows, err := batch.AppendRows(nil)
			if err != nil {
				return err
			}
			b = plan.BoxedBatch(schema, rows)
		}
		if err := yield(b); err != nil {
			if errors.Is(err, datasource.ErrStopBatches) {
				return nil
			}
			return err
		}
	}
	return nil
}
