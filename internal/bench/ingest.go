package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// IngestRow is one scenario of the write-path experiment.
type IngestRow struct {
	Scenario    string
	Cells       int     // cells written
	Seconds     float64 // wall time for the whole ingest
	CellsPerSec float64
	P50Us       int64 // per-operation latency percentiles (Put or Mutate)
	P99Us       int64
	Acked       int   // batches the cluster acknowledged (buffered scenarios)
	Deduped     int64 // retried batches the servers suppressed
	Faults      int   // injected faults that fired
	HotSplits   int64 // splits the hot-region detector drove
	Regions     int   // table regions when the ingest finished
	RowsFound   int   // rows a full scan sees afterwards
	RowsLost    int   // cells acked but absent from the final scan
	MaxApplies  int   // times the most-applied stamped batch applied (must be <= 1)
	Writers     int   // concurrent mutators (multi-writer scenarios; else 1)
	Distinct    int   // distinct row keys written (skewed scenarios collapse duplicates)
}

// ingestTable is the fixed shape every scenario writes into: one family,
// presplit four ways so the cells spread across servers and a crash mid-run
// still leaves live regions to retry against.
const ingestTable = "ingestbench"

func ingestCell(i int) hbase.Cell {
	return hbase.Cell{
		Row: []byte(fmt.Sprintf("row-%05d", i)), Family: "cf", Qualifier: "q",
		Timestamp: 1, Type: hbase.TypePut, Value: []byte(fmt.Sprintf("v-%05d", i)),
	}
}

func ingestSplits(n int) [][]byte {
	return [][]byte{
		[]byte(fmt.Sprintf("row-%05d", n/4)),
		[]byte(fmt.Sprintf("row-%05d", n/2)),
		[]byte(fmt.Sprintf("row-%05d", 3*n/4)),
	}
}

func bootIngestRig(p Params, janitor time.Duration, splits [][]byte) (*harness.Rig, error) {
	rig, err := harness.NewRig(harness.Config{
		System: harness.SHC, Servers: p.Servers, Scale: 1, SkipLoad: true,
		RPC: p.RPC, Janitor: janitor,
	})
	if err != nil {
		return nil, err
	}
	if err := rig.Client.CreateTable(hbase.TableDescriptor{Name: ingestTable, Families: []string{"cf"}}, splits); err != nil {
		rig.Close()
		return nil, err
	}
	return rig, nil
}

// applyCounter counts how often each (writer, seq, region) stamped batch was
// actually applied; dedup-suppressed replays do not count.
type applyCounter struct {
	mu      sync.Mutex
	applies map[string]int
}

func newApplyCounter(rig *harness.Rig) *applyCounter {
	a := &applyCounter{applies: make(map[string]int)}
	for _, rs := range rig.Cluster.Servers {
		rs.SetBatchAppliedHook(func(writer string, seq uint64, region string) {
			a.mu.Lock()
			a.applies[fmt.Sprintf("%s/%d@%s", writer, seq, region)]++
			a.mu.Unlock()
		})
	}
	return a
}

func (a *applyCounter) max() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	max := 0
	for _, n := range a.applies {
		if n > max {
			max = n
		}
	}
	return max
}

// finishIngestRow fills the post-run half of a row: percentiles from the
// per-op samples, throughput from the wall time, and the final scan that
// proves (or disproves) durability.
func finishIngestRow(rig *harness.Rig, row *IngestRow, samples []time.Duration, elapsed time.Duration) error {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	row.Seconds = elapsed.Seconds()
	if elapsed > 0 {
		row.CellsPerSec = float64(row.Cells) / elapsed.Seconds()
	}
	row.P50Us = percentile(samples, 0.50).Microseconds()
	row.P99Us = percentile(samples, 0.99).Microseconds()

	rig.Client.InvalidateRegions(ingestTable)
	results, err := rig.Client.ScanTable(ingestTable, &hbase.Scan{})
	if err != nil {
		return err
	}
	row.RowsFound = len(results)
	row.RowsLost = row.Cells - len(results)
	regions, err := rig.Client.Regions(ingestTable)
	if err != nil {
		return err
	}
	row.Regions = len(regions)
	return nil
}

// Ingest measures the write path end to end:
//
//   - unbuffered: one Client.Put (one stamped MultiPut RPC) per cell —
//     the pre-BufferedMutator baseline.
//   - buffered: the same cells through a BufferedMutator; batching must
//     amortize per-RPC cost into >= 5x the unbuffered throughput.
//   - buffered+chaos: buffered ingest while seeded ack-lost faults discard
//     MultiPut replies, the table's lead region splits, and a region server
//     crashes mid-run. Exactly-once must hold (no acked cell lost, no
//     stamped batch applied twice) and Mutate p99 stays bounded.
//   - bulkload: presorted store-file ingest bypassing WAL and memstore.
//   - hot-key defense off/on: a skewed writer hammers one region; with the
//     janitor and hot threshold on, the detector must split the hot region.
func Ingest(p Params) ([]IngestRow, error) {
	p = p.withDefaults()
	const n = 2000
	var rows []IngestRow

	// --- unbuffered baseline ---
	{
		rig, err := bootIngestRig(p, 0, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest unbuffered: %w", err)
		}
		row := IngestRow{Scenario: "unbuffered", Cells: n}
		samples := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := rig.Client.Put(ingestTable, []hbase.Cell{ingestCell(i)}); err != nil {
				rig.Close()
				return nil, fmt.Errorf("bench: ingest unbuffered put %d: %w", i, err)
			}
			samples = append(samples, time.Since(t0))
		}
		err = finishIngestRow(rig, &row, samples, time.Since(start))
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- buffered ---
	{
		rig, err := bootIngestRig(p, 0, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest buffered: %w", err)
		}
		row := IngestRow{Scenario: "buffered", Cells: n}
		mut := rig.Client.NewMutator(ingestTable, hbase.MutatorConfig{})
		ctx := context.Background()
		samples := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := mut.Mutate(ctx, ingestCell(i)); err != nil {
				rig.Close()
				return nil, fmt.Errorf("bench: ingest buffered mutate %d: %w", i, err)
			}
			samples = append(samples, time.Since(t0))
		}
		if err := mut.Close(ctx); err != nil {
			rig.Close()
			return nil, fmt.Errorf("bench: ingest buffered close: %w", err)
		}
		elapsed := time.Since(start)
		row.Acked = len(mut.AckedBatches())
		err = finishIngestRow(rig, &row, samples, elapsed)
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- buffered + chaos: ack loss, a split, and a crash mid-run ---
	{
		rig, err := bootIngestRig(p, 0, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest chaos: %w", err)
		}
		counter := newApplyCounter(rig)
		inj := rpc.NewFaultInjector(p.Seed,
			&rpc.FaultRule{Method: hbase.MethodMultiPut, FailProb: 0.15, DropReply: true, Err: rpc.ErrConnClosed},
		)
		rig.Cluster.Net.SetFaultInjector(inj)

		// Small flushes: enough MultiPut RPCs that the seeded ack loss fires
		// whatever the seed, and the percentile samples cover many flushes.
		row := IngestRow{Scenario: "buffered+chaos", Cells: n}
		mut := rig.Client.NewMutator(ingestTable, hbase.MutatorConfig{FlushBytes: 1 << 10, MaxAttempts: 25})
		ctx := context.Background()
		samples := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			if i == n/3 {
				// The lead region splits underneath in-flight stamped batches.
				regions, err := rig.Client.Regions(ingestTable)
				if err == nil && len(regions) > 0 {
					if err := rig.Cluster.Master.SplitRegion(ingestTable, regions[0].ID); err != nil {
						rig.Close()
						return nil, fmt.Errorf("bench: ingest chaos split: %w", err)
					}
				}
			}
			if i == 2*n/3 {
				// A region server dies; its WAL (dedup stamps included) is
				// replayed on the survivors before the client's next retry.
				regions, err := rig.Client.Regions(ingestTable)
				if err == nil && len(regions) > 0 {
					victim := regions[len(regions)-1].Host
					if err := rig.Cluster.CrashServer(victim); err != nil {
						rig.Close()
						return nil, fmt.Errorf("bench: ingest chaos crash: %w", err)
					}
					if _, err := rig.Cluster.Master.CheckServers(); err != nil {
						rig.Close()
						return nil, fmt.Errorf("bench: ingest chaos recover: %w", err)
					}
				}
			}
			t0 := time.Now()
			if err := mut.Mutate(ctx, ingestCell(i)); err != nil {
				rig.Close()
				return nil, fmt.Errorf("bench: ingest chaos mutate %d: %w", i, err)
			}
			samples = append(samples, time.Since(t0))
		}
		if err := mut.Close(ctx); err != nil {
			rig.Close()
			return nil, fmt.Errorf("bench: ingest chaos close: %w", err)
		}
		elapsed := time.Since(start)
		row.Acked = len(mut.AckedBatches())
		row.Deduped = rig.Meter.Get(metrics.BatchesDeduped)
		row.Faults = inj.Fired()
		row.MaxApplies = counter.max()
		err = finishIngestRow(rig, &row, samples, elapsed)
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- bulk load ---
	{
		rig, err := bootIngestRig(p, 0, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest bulkload: %w", err)
		}
		row := IngestRow{Scenario: "bulkload", Cells: n}
		cells := make([]hbase.Cell, 0, n)
		for i := 0; i < n; i++ {
			cells = append(cells, ingestCell(i))
		}
		start := time.Now()
		if err := rig.Client.BulkLoad(ingestTable, cells); err != nil {
			rig.Close()
			return nil, fmt.Errorf("bench: ingest bulkload: %w", err)
		}
		err = finishIngestRow(rig, &row, []time.Duration{time.Since(start)}, time.Since(start))
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- hot-key skew, defense off then on ---
	for _, defended := range []bool{false, true} {
		name := "hotkey defense=off"
		janitor := time.Duration(0)
		if defended {
			name = "hotkey defense=on"
			janitor = time.Millisecond
		}
		// Every row lands in the table's first region: split points start at
		// "row-", the hot writer stays below them.
		rig, err := bootIngestRig(p, janitor, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest %s: %w", name, err)
		}
		if defended {
			// Low relative to the skewed write rate: every janitor pass sees
			// one flush's worth of cells or more land in the hot region, so
			// detection does not depend on tick alignment.
			rig.Cluster.Master.SetHotWriteThreshold(50)
		}
		row := IngestRow{Scenario: name, Cells: n}
		mut := rig.Client.NewMutator(ingestTable, hbase.MutatorConfig{FlushBytes: 2 << 10})
		ctx := context.Background()
		samples := make([]time.Duration, 0, n)
		start := time.Now()
		for i := 0; i < n; i++ {
			c := ingestCell(i)
			c.Row = []byte(fmt.Sprintf("hot-%05d", i)) // sorts before every split point
			t0 := time.Now()
			if err := mut.Mutate(ctx, c); err != nil {
				rig.Close()
				return nil, fmt.Errorf("bench: ingest %s mutate %d: %w", name, i, err)
			}
			samples = append(samples, time.Since(t0))
		}
		if err := mut.Close(ctx); err != nil {
			rig.Close()
			return nil, fmt.Errorf("bench: ingest %s close: %w", name, err)
		}
		elapsed := time.Since(start)
		row.Acked = len(mut.AckedBatches())
		if defended {
			// One deterministic pass after the ingest: however the ticker
			// interleaved, the accumulated write load is inspected once more
			// before the verdict.
			rig.Cluster.Master.JanitorPass()
		}
		row.HotSplits = rig.Meter.Get(metrics.HotSplits)
		err = finishIngestRow(rig, &row, samples, elapsed)
		rig.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}

	// --- zipfian multi-writer: skewed concurrent load ---
	// Several mutators on one client write rows drawn from a Zipf
	// distribution — the monotonic/skewed key shape real event streams
	// produce. The hot-region detector splits whatever the skew
	// concentrates; the docs' key-salting note is the client-side fix for
	// writers whose keys are strictly monotonic (a salt prefix turns one hot
	// region into W warm ones).
	{
		rig, err := bootIngestRig(p, time.Millisecond, ingestSplits(n))
		if err != nil {
			return nil, fmt.Errorf("bench: ingest zipfian: %w", err)
		}
		rig.Cluster.Master.SetHotWriteThreshold(100)
		const writers = 4
		row := IngestRow{Scenario: "zipfian x" + fmt.Sprint(writers), Cells: n, Writers: writers}
		var (
			mu       sync.Mutex
			distinct = make(map[string]bool, n)
			samples  = make([]time.Duration, 0, n)
			acked    int
			wg       sync.WaitGroup
			werrs    = make([]error, writers)
		)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				// The mutators share the client's writer and sequence
				// space; per-writer seeds keep the skew deterministic per
				// seed.
				mut := rig.Client.NewMutator(ingestTable, hbase.MutatorConfig{
					FlushBytes: 2 << 10, MaxAttempts: 25,
				})
				rng := rand.New(rand.NewSource(p.Seed + int64(w)))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
				for i := 0; i < n/writers; i++ {
					key := fmt.Sprintf("zipf-%05d", zipf.Uint64())
					c := hbase.Cell{
						Row: []byte(key), Family: "cf", Qualifier: fmt.Sprintf("q%d", w),
						Timestamp: int64(i + 1), Type: hbase.TypePut,
						Value: []byte(fmt.Sprintf("w%d-%05d", w, i)),
					}
					t0 := time.Now()
					if err := mut.Mutate(ctx, c); err != nil {
						werrs[w] = fmt.Errorf("writer %d mutate %d: %w", w, i, err)
						_ = mut.Close(ctx)
						return
					}
					mu.Lock()
					samples = append(samples, time.Since(t0))
					distinct[key] = true
					acked++
					mu.Unlock()
				}
				if err := mut.Close(ctx); err != nil {
					werrs[w] = fmt.Errorf("writer %d close: %w", w, err)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range werrs {
			if err != nil {
				rig.Close()
				return nil, fmt.Errorf("bench: ingest zipfian: %w", err)
			}
		}
		rig.Cluster.Master.JanitorPass()
		row.Acked = acked
		row.Distinct = len(distinct)
		row.HotSplits = rig.Meter.Get(metrics.HotSplits)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		row.Seconds = elapsed.Seconds()
		if elapsed > 0 {
			row.CellsPerSec = float64(row.Cells) / elapsed.Seconds()
		}
		row.P50Us = percentile(samples, 0.50).Microseconds()
		row.P99Us = percentile(samples, 0.99).Microseconds()
		// Duplicated keys collapse into versions of one row, so the scan is
		// audited against the distinct-key count, not the cell count.
		rig.Client.InvalidateRegions(ingestTable)
		results, err := rig.Client.ScanTable(ingestTable, &hbase.Scan{})
		if err != nil {
			rig.Close()
			return nil, err
		}
		row.RowsFound = len(results)
		row.RowsLost = row.Distinct - len(results)
		regions, err := rig.Client.Regions(ingestTable)
		if err != nil {
			rig.Close()
			return nil, err
		}
		row.Regions = len(regions)
		rig.Close()
		rows = append(rows, row)
	}

	fmt.Fprintf(p.Out, "\nIngest: write path throughput and durability (%d cells, %d servers, seed %d)\n", n, p.Servers, p.Seed)
	fmt.Fprintf(p.Out, "%-20s %8s %9s %11s %8s %8s %6s %7s %7s %9s %8s %7s %9s %7s %8s\n",
		"Scenario", "Cells", "Sec", "Cells/s", "p50us", "p99us", "Acked", "Dedup", "Faults", "HotSplit", "Regions", "Lost", "MaxApply", "Writers", "Distinct")
	for _, r := range rows {
		fmt.Fprintf(p.Out, "%-20s %8d %9.3f %11.0f %8d %8d %6d %7d %7d %9d %8d %7d %9d %7d %8d\n",
			r.Scenario, r.Cells, r.Seconds, r.CellsPerSec, r.P50Us, r.P99Us, r.Acked, r.Deduped, r.Faults, r.HotSplits, r.Regions, r.RowsLost, r.MaxApplies, r.Writers, r.Distinct)
	}
	return rows, nil
}
