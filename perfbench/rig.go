package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/harness"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/tpcds"
)

// The rig is fixed: two region servers with one executor each, the
// zero-latency transport (network cost is reported from exact counts, not
// simulated with sleeps), and no background tickers — no janitor,
// heartbeat, hedging or mutator interval — so flushes and compactions are
// triggered only by size and the region map stays fixed after load.
const (
	rigServers   = 2
	rigExecutors = 1
	tpcdsSeed    = 42
)

// probeTable has store_sales' schema; read-only workloads time their
// write probe against it so store_sales stays quiescent.
const probeTable = "write_probe"

// salesCatalog is the SHC catalog of store_sales, or of the probe table
// under another name.
func salesCatalog(table string) *core.Catalog {
	doc, err := tpcds.Catalog("store_sales", "")
	if err != nil {
		panic(err)
	}
	doc = strings.Replace(doc, `"name":"store_sales"`, fmt.Sprintf("%q:%q", "name", table), 1)
	cat, err := core.ParseCatalog(doc)
	if err != nil {
		panic(err)
	}
	if cat.Table.Name != table {
		panic(fmt.Sprintf("catalog for %s names table %s", table, cat.Table.Name))
	}
	return cat
}

var catalogs = map[string]*core.Catalog{
	"store_sales": salesCatalog("store_sales"),
	probeTable:    salesCatalog(probeTable),
}

// writer is the paper's Code 2 write path for a store_sales-shaped table,
// stamping cells ts: a later write of a key is a newer version, as HBase's
// server clock would make it.
func writer(r *harness.Rig, table string, ts int64) (*core.HBaseRelation, error) {
	return core.NewHBaseRelation(r.Client, catalogs[table],
		core.Options{WriteTimestamp: ts, NewTableRegions: 3 * rigServers}, r.Meter)
}

// setup is one booted, loaded and warmed rig.
type setup struct {
	rig *harness.Rig
	// warmFailed counts warm-up ops that errored or answered wrong.
	warmFailed int
	elapsed    time.Duration
}

// bootRig boots the fixed rig, generates the TPC-DS data, loads it through
// HBaseRelation.Insert, and runs the warm-up: one count(*) per table the
// workload reads, then the warm-up ops. The returned setup owns the rig.
func bootRig(w workload, warm []op, probing bool) (_ *setup, err error) {
	start := time.Now()
	rig, err := harness.NewRig(harness.Config{
		System:           harness.SHC,
		Servers:          rigServers,
		ExecutorsPerHost: rigExecutors,
		Scale:            dataScale,
		Seed:             tpcdsSeed,
		RPC:              rpc.Config{},
		Store:            hbase.StoreConfig{FlushThresholdBytes: flushBytes},
		SkipLoad:         true,
	})
	if err != nil {
		return nil, fmt.Errorf("boot rig: %w", err)
	}
	defer func() {
		if err != nil {
			rig.Close()
		}
	}()
	s := &setup{rig: rig}
	if err := s.load(); err != nil {
		return nil, err
	}
	if probing {
		if err := s.createProbeTable(); err != nil {
			return nil, err
		}
	}
	for _, t := range w.tables {
		if err := s.countCheck(t); err != nil {
			return nil, err
		}
	}
	steps, err := s.prepare(warm)
	if err != nil {
		return nil, err
	}
	for _, st := range steps {
		if o := s.do(st); o.err != nil || checkAnswer(o.rows, st.want) != nil {
			s.warmFailed++
		}
	}
	s.elapsed = time.Since(start)
	return s, nil
}

// load inserts every table with one HBaseRelation.Insert.
func (s *setup) load() error {
	for _, table := range tpcds.TableNames {
		rel, err := s.rig.Relation(table)
		if err != nil {
			return err
		}
		if err := rel.Insert(s.rig.Data.Rows(table)); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// createProbeTable creates the probe table split where store_sales is, and
// registers it with the session for the probe's final count.
func (s *setup) createProbeTable() error {
	regions, err := s.rig.Client.Regions("store_sales")
	if err != nil {
		return err
	}
	var splits [][]byte
	for _, r := range regions {
		if len(r.StartKey) > 0 {
			splits = append(splits, r.StartKey)
		}
	}
	sort.Slice(splits, func(i, j int) bool { return bytes.Compare(splits[i], splits[j]) < 0 })
	rel, err := writer(s.rig, probeTable, 1)
	if err != nil {
		return err
	}
	if err := rel.EnsureTable(splits); err != nil {
		return fmt.Errorf("create %s: %w", probeTable, err)
	}
	s.rig.Session.RegisterAs(probeTable, rel)
	return nil
}

// countCheck reads a whole table once (building every region's view and
// every cached connection) and checks the row count.
func (s *setup) countCheck(table string) error {
	df, err := s.rig.Session.SQL("SELECT count(*) FROM " + table)
	if err != nil {
		return err
	}
	rows, err := df.CollectContext(context.Background())
	if err != nil {
		return fmt.Errorf("warm-up count %s: %w", table, err)
	}
	want := int64(len(s.rig.Data.Rows(table)))
	if err := checkAnswer(rows, []plan.Row{{want}}); err != nil {
		return fmt.Errorf("warm-up count %s: %v", table, err)
	}
	return nil
}

// step is an op bound to the rig: its writer is built before any timer
// starts.
type step struct {
	op
	writer *core.HBaseRelation
}

func (s *setup) prepare(ops []op) ([]step, error) {
	steps := make([]step, len(ops))
	for i, o := range ops {
		steps[i].op = o
		if o.write != nil {
			table := "store_sales"
			if o.probe {
				table = probeTable
			}
			w, err := writer(s.rig, table, o.writeTS)
			if err != nil {
				return nil, err
			}
			steps[i].writer = w
		}
	}
	return steps, nil
}

// outcome is what one untraced step did.
type outcome struct {
	ack, lat time.Duration // write ack (0 without a write) and read latency
	rows     []plan.Row
	err      error
}

// do runs one step untraced through the public API: the write's Insert,
// then Session.SQL and DataFrame.CollectContext for the read.
func (s *setup) do(st step) outcome {
	var o outcome
	if st.writer != nil {
		t0 := time.Now()
		o.err = st.writer.Insert(st.write)
		o.ack = time.Since(t0)
		if o.err != nil {
			return o
		}
	}
	t0 := time.Now()
	df, err := s.rig.Session.SQL(st.sql)
	if err == nil {
		o.rows, err = df.CollectContext(context.Background())
	}
	o.lat = time.Since(t0)
	o.err = err
	return o
}

// tableBytes is what the regions of a table store (MemStore plus store
// files), the sum TableStats reports, read without an RPC so sampling it
// leaves the counters alone.
func (s *setup) tableBytes(table string) int64 {
	var n int64
	for _, rs := range s.rig.Cluster.Servers {
		for _, r := range rs.Regions() {
			if r.Info().Table == table {
				n += int64(r.Size())
			}
		}
	}
	return n
}

// storeFilesPerRegion is the mean store-file count of a table's regions.
func (s *setup) storeFilesPerRegion(table string) float64 {
	var files, regions int
	for _, rs := range s.rig.Cluster.Servers {
		for _, r := range rs.Regions() {
			if r.Info().Table == table {
				files += r.StoreFileCount()
				regions++
			}
		}
	}
	if regions == 0 {
		return 0
	}
	return float64(files) / float64(regions)
}
