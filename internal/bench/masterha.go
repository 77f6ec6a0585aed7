package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
)

// MasterHARow is one scenario of the master-failover experiment.
type MasterHARow struct {
	Scenario string
	Masters  int // total master processes (1 active + N-1 hot standbys)

	Reads         int   // probe read attempts
	ReadErrors    int   // attempts that failed after client retries
	UnavailableMs int64 // longest failure-spanning gap between reads
	TakeoverMs    int64 // crash -> MasterFailover journaled (0 = no crash)

	AckedCells int // cells the buffered writer acked
	RowsFound  int // acked rows a full scan sees afterwards
	RowsLost   int // acked but absent — must be 0

	Rediscoveries int64 // client.master_rediscoveries
	Takeovers     int64 // master.takeovers
	FencedWrites  int64 // master.fenced_writes (zombie's post-revival attempts)
}

// haWriter streams cells through a BufferedMutator until stopped; every
// accepted mutation plus a clean Close is an acked write the final scan must
// account for.
type haWriter struct {
	stop     chan struct{}
	done     chan struct{}
	accepted int
	err      error
}

func startHAWriter(rig *harness.Rig, table string) *haWriter {
	w := &haWriter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		ctx := context.Background()
		mut := rig.Client.NewMutator(table, hbase.MutatorConfig{
			FlushBytes: 512, MaxAttempts: 40,
		})
		for i := 0; ; i++ {
			select {
			case <-w.stop:
				if err := mut.Close(ctx); err != nil {
					w.err = fmt.Errorf("close: %w", err)
				}
				return
			default:
			}
			c := hbase.Cell{
				Row: []byte(fmt.Sprintf("mut-%05d", i)), Family: "cf", Qualifier: "q",
				Timestamp: 1, Type: hbase.TypePut, Value: []byte(fmt.Sprintf("w-%05d", i)),
			}
			if err := mut.Mutate(ctx, c); err != nil {
				w.err = fmt.Errorf("mutate %d: %w", i, err)
				_ = mut.Close(ctx)
				return
			}
			w.accepted++
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return w
}

// MasterHA measures control-plane availability across a master crash:
//
//   - steady: no failure — the baseline read/write profile.
//   - failover: two hot standbys; the active master is crashed mid-run under
//     live point reads and buffered ingest. The standby's watch-driven
//     takeover must keep read errors at zero and lose no acked write; the
//     revived zombie's coordination writes must die fenced.
//
// TakeoverMs is the crash-to-recovered window: from CrashMaster until the
// new master journals MasterFailover (meta rebuilt, split journals settled,
// duty loops re-armed).
func MasterHA(p Params) ([]MasterHARow, error) {
	p = p.withDefaults()
	var rows []MasterHARow
	for _, sc := range []struct {
		name    string
		masters int
		crash   bool
	}{
		{"steady", 1, false},
		{"failover", 3, true},
	} {
		rig, err := harness.NewRig(harness.Config{
			System: harness.SHC, Servers: p.Servers, Masters: sc.masters, SkipLoad: true,
			RPC: p.RPC, Heartbeat: 2 * time.Millisecond,
			Retry: hbase.RetryPolicy{MaxAttempts: 40},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: masterha %s: %w", sc.name, err)
		}
		row, err := runMasterHA(rig, sc.name, sc.masters, sc.crash)
		rig.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: masterha %s: %w", sc.name, err)
		}
		rows = append(rows, row)
	}

	fmt.Fprintf(p.Out, "\nMasterHA: control-plane availability across a master crash (%d servers, seed %d)\n", p.Servers, p.Seed)
	fmt.Fprintf(p.Out, "%-10s %8s %7s %8s %9s %10s %7s %7s %6s %9s %7s %7s\n",
		"Scenario", "Masters", "Reads", "RdErrs", "UnavailMs", "TakeoverMs", "Acked", "Found", "Lost", "Rediscov", "Takeov", "Fenced")
	for _, r := range rows {
		fmt.Fprintf(p.Out, "%-10s %8d %7d %8d %9d %10d %7d %7d %6d %9d %7d %7d\n",
			r.Scenario, r.Masters, r.Reads, r.ReadErrors, r.UnavailableMs, r.TakeoverMs,
			r.AckedCells, r.RowsFound, r.RowsLost, r.Rediscoveries, r.Takeovers, r.FencedWrites)
	}
	return rows, nil
}

func runMasterHA(rig *harness.Rig, name string, masters int, crash bool) (MasterHARow, error) {
	row := MasterHARow{Scenario: name, Masters: masters}
	const table = "mha"
	splits := [][]byte{[]byte("row-020"), []byte("row-040")}
	if err := rig.Client.CreateTable(hbase.TableDescriptor{Name: table, Families: []string{"cf"}}, splits); err != nil {
		return row, err
	}
	var cells []hbase.Cell
	var seeded [][]byte
	for i := 0; i < 60; i++ {
		r := []byte(fmt.Sprintf("row-%03d", i))
		seeded = append(seeded, r)
		cells = append(cells, hbase.Cell{
			Row: r, Family: "cf", Qualifier: "q",
			Timestamp: 1, Type: hbase.TypePut, Value: []byte("v"),
		})
	}
	if err := rig.Client.Put(table, cells); err != nil {
		return row, err
	}

	probe := rig.StartReadProbe(table, seeded[:8], hbase.ConsistencyStrong, time.Millisecond)
	writer := startHAWriter(rig, table)
	time.Sleep(40 * time.Millisecond)

	if crash {
		start := time.Now()
		zombie, err := rig.Cluster.CrashMaster()
		if err != nil {
			return row, err
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(rig.Journal().Find(ops.EventMasterFailover)) == 0 {
			if time.Now().After(deadline) {
				return row, fmt.Errorf("no standby took over within 5s")
			}
			time.Sleep(time.Millisecond)
		}
		row.TakeoverMs = time.Since(start).Milliseconds()
		// Ride the new regime for a beat, then let the zombie wake up and
		// try to govern: its writes must die fenced.
		time.Sleep(40 * time.Millisecond)
		if err := rig.Cluster.Net.SetDown(zombie.Host(), false); err != nil {
			return row, err
		}
		_, _ = zombie.CheckServers()
		regions, err := rig.Client.Regions(table)
		if err == nil && len(regions) > 0 {
			_ = zombie.SplitRegion(table, regions[0].ID)
		}
	} else {
		time.Sleep(40 * time.Millisecond)
	}

	if err := finishHAWriter(writer); err != nil {
		return row, err
	}
	row.AckedCells = writer.accepted
	report := probe.Stop()
	row.Reads, row.ReadErrors, row.UnavailableMs = report.Reads, report.Errors, report.UnavailableMs

	rig.Client.InvalidateRegions(table)
	got, err := rig.Client.ScanTable(table, &hbase.Scan{StartRow: []byte("mut-"), StopRow: []byte("mut-~")})
	if err != nil {
		return row, err
	}
	row.RowsFound = len(got)
	row.RowsLost = row.AckedCells - len(got)
	row.Rediscoveries = rig.Meter.Get(metrics.MasterRediscoveries)
	row.Takeovers = rig.Meter.Get(metrics.MasterTakeovers)
	row.FencedWrites = rig.Meter.Get(metrics.MasterFencedWrites)
	return row, nil
}

func finishHAWriter(w *haWriter) error {
	close(w.stop)
	<-w.done
	return w.err
}
