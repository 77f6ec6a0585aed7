// Package harness boots complete experiment rigs: a simulated HBase
// cluster loaded with TPC-DS data, wired to the query engine through
// either SHC or the generic baseline relation. Every figure and table in
// the paper's §VII is regenerated by constructing two rigs that differ
// only in the connector and measuring the same queries on both.
package harness

import (
	"context"
	"fmt"
	"time"

	"github.com/shc-go/shc/internal/conncache"
	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/engine"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/tpcds"
)

// System selects the connector under test.
type System int

// The two systems every experiment compares.
const (
	SHC System = iota
	SparkSQL
)

// String renders the system name as the paper labels it.
func (s System) String() string {
	if s == SHC {
		return "SHC"
	}
	return "SparkSQL"
}

// Config sizes a rig.
type Config struct {
	// System picks the connector (SHC or the SparkSQL baseline).
	System System
	// Servers is the number of region servers (and executor hosts);
	// default 5, the paper's cluster size.
	Servers int
	// Masters is the total master count: one active plus Masters-1 hot
	// standbys that take over automatically when the leader dies. Default 1
	// (no standbys). The heartbeat/janitor loops configured below re-arm on
	// the new leader after every takeover.
	Masters int
	// ExecutorsPerHost is task parallelism per host; default 2.
	ExecutorsPerHost int
	// Scale multiplies TPC-DS row counts (stands in for the GB axis).
	Scale int
	// Seed makes data deterministic; default 42.
	Seed int64
	// Coder selects the field coder for SHC ("PrimitiveType", "Phoenix",
	// "Avro"); the baseline always uses its generic string path.
	Coder string
	// RPC tunes simulated network costs (zero = free, used by tests).
	RPC rpc.Config
	// Store tunes per-region storage behaviour (flush thresholds, WAL
	// directory, self-fencing leases).
	Store hbase.StoreConfig
	// Heartbeat starts the master's heartbeat loop at this interval. Required
	// whenever Store.ServerLease is set — without a heartbeat source every
	// server self-fences as soon as its lease lapses. 0 leaves heartbeat
	// rounds to the test (CheckServers).
	Heartbeat time.Duration
	// Options are forwarded to the SHC relations (ablations, timestamps).
	Options core.Options
	// DisableConnCache makes even the SHC rig dial per operation (ablation
	// of §V-B.1).
	DisableConnCache bool
	// SkipLoad leaves tables empty; callers load data themselves.
	SkipLoad bool
	// DisablePipelining materializes every operator instead of streaming
	// fused scan pipelines (the baseline side of the streaming comparison).
	DisablePipelining bool
	// DisableVectorization keeps fused pipelines row-at-a-time (the baseline
	// side of the vectorized-execution comparison), and materialized scans
	// on row-major pages (core.Options.RowMajorPages).
	DisableVectorization bool
	// HedgeDelay enables hedged reads on the rig's client: a read RPC
	// unanswered after this delay fires a speculative duplicate. 0 disables.
	HedgeDelay time.Duration
	// ServerLimits installs admission control and memstore watermarks on
	// every region server (zero value = unlimited).
	ServerLimits hbase.ServerLimits
	// Janitor starts the master's background janitor (split/balance/hot-key
	// defense) at this interval. 0 — the default for unit tests — leaves
	// maintenance passes to explicit JanitorPass calls.
	Janitor time.Duration
	// Retry overrides the client retry policy when MaxAttempts > 0 —
	// overload experiments need a budget that outlasts the contention they
	// create.
	Retry hbase.RetryPolicy
	// OpsAddr boots the HTTP ops endpoint (/metrics, /statusz, /events,
	// /queries, /debug/pprof) on this listen address — "127.0.0.1:0" for an
	// ephemeral port. Empty (the default) serves nothing.
	OpsAddr string
}

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 5
	}
	if c.ExecutorsPerHost <= 0 {
		c.ExecutorsPerHost = 2
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Rig is one booted system: cluster + loaded tables + engine session.
type Rig struct {
	Config  Config
	Cluster *hbase.Cluster
	Client  *hbase.Client
	Session *engine.Session
	Meter   *metrics.Registry
	Data    *tpcds.Data
	// Ops is the rig's HTTP ops endpoint, nil unless Config.OpsAddr is set.
	Ops *ops.Server

	cache      *conncache.Cache
	stopDuties func()
}

// Journal is the cluster's structured event journal (always present), the
// surface chaos tests assert causality on.
func (r *Rig) Journal() *ops.Journal { return r.Cluster.Journal }

// NewRig boots a rig and (unless SkipLoad) generates and loads the TPC-DS
// tables through the system's own write path.
func NewRig(cfg Config) (*Rig, error) {
	cfg = cfg.withDefaults()
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{
		Name:       "hbase",
		NumServers: cfg.Servers,
		Masters:    cfg.Masters,
		Meter:      meter,
		RPC:        cfg.RPC,
		Store:      cfg.Store,
	})
	if err != nil {
		return nil, err
	}
	rig := &Rig{Config: cfg, Cluster: cluster, Meter: meter}
	if cfg.Heartbeat > 0 || cfg.Janitor > 0 {
		// StartDuties (rather than the master's own Start* methods) so the
		// loops survive a master failover: takeover re-arms them on the new
		// leader.
		rig.stopDuties = cluster.StartDuties(cfg.Heartbeat, cfg.Janitor)
	}

	// SHC amortizes connections through the caching layer; the baseline
	// dials per operation, as the paper's §V-B.1 observes of the stock
	// path ("ZooKeeper connections are being established for each
	// request").
	var clientOpts []hbase.ClientOption
	if cfg.System == SHC && !cfg.DisableConnCache {
		rig.cache = conncache.New(cluster.Net, conncache.Config{}, meter)
		clientOpts = append(clientOpts, hbase.WithConnPool(rig.cache))
	}
	if cfg.HedgeDelay > 0 {
		clientOpts = append(clientOpts, hbase.WithHedgedReads(cfg.HedgeDelay))
	}
	if cfg.Retry.MaxAttempts > 0 {
		clientOpts = append(clientOpts, hbase.WithRetryPolicy(cfg.Retry))
	}
	rig.Client = cluster.NewClient(clientOpts...)

	if cfg.ServerLimits != (hbase.ServerLimits{}) {
		for _, srv := range cluster.Servers {
			srv.SetLimits(cfg.ServerLimits)
		}
	}
	rig.Session, err = engine.NewSession(engine.Config{
		Hosts:                cluster.Hosts(),
		ExecutorsPerHost:     cfg.ExecutorsPerHost,
		DisablePipelining:    cfg.DisablePipelining,
		DisableVectorization: cfg.DisableVectorization,
		Meter:                meter,
	})
	if err != nil {
		return nil, err
	}

	if cfg.OpsAddr != "" {
		rig.Ops, err = ops.StartServer(ops.ServerConfig{
			Addr:    cfg.OpsAddr,
			Metrics: meter,
			Journal: cluster.Journal,
			Stats:   rig.Session.QueryStats(),
			Status:  cluster.Status,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: ops endpoint: %w", err)
		}
	}

	rig.Data = tpcds.Generate(tpcds.Config{Scale: cfg.Scale, Seed: cfg.Seed})
	for _, table := range tpcds.TableNames {
		rel, err := rig.relation(table)
		if err != nil {
			return nil, err
		}
		rig.Session.RegisterAs(table, rel.(plan.Relation))
		if !cfg.SkipLoad {
			if err := rel.Insert(rig.Data.Rows(table)); err != nil {
				return nil, fmt.Errorf("harness: load %s: %w", table, err)
			}
		}
	}
	return rig, nil
}

// insertable is what both relations implement.
type insertable interface {
	Insert([]plan.Row) error
	Name() string
	Schema() plan.Schema
}

func (r *Rig) relation(table string) (insertable, error) {
	doc, err := tpcds.Catalog(table, r.Config.Coder)
	if err != nil {
		return nil, err
	}
	cat, err := core.ParseCatalog(doc)
	if err != nil {
		return nil, err
	}
	opts := r.Config.Options
	opts.RowMajorPages = opts.RowMajorPages || r.Config.DisableVectorization
	if opts.NewTableRegions == 0 {
		// Several regions per server, as production tables have; the
		// executor sweep (Fig. 6) needs per-host work to parallelize.
		opts.NewTableRegions = 3 * r.Config.Servers
	}
	if r.Config.System == SHC {
		return core.NewHBaseRelation(r.Client, cat, opts, r.Meter)
	}
	return core.NewBaselineRelation(r.Client, cat, opts, r.Meter), nil
}

// Relation rebuilds the connector relation for a table (used to write).
func (r *Rig) Relation(table string) (insertable, error) { return r.relation(table) }

// Close releases pooled connections, stops the duty loops and standby
// watchers, and shuts down the ops endpoint.
func (r *Rig) Close() {
	if r.Ops != nil {
		r.Ops.Close()
	}
	if r.stopDuties != nil {
		r.stopDuties()
	}
	r.Cluster.StopStandbys()
	if r.cache != nil {
		r.cache.Close()
	}
}

// Result is one measured query run.
type Result struct {
	Rows    []plan.Row
	Elapsed time.Duration
	// Delta holds the counter changes attributable to this run.
	Delta map[string]int64
}

// Run executes a query and measures wall time plus counter deltas.
func (r *Rig) Run(query string) (Result, error) {
	return r.RunContext(context.Background(), query)
}

// RunContext is Run bounded by ctx. The run
// carries a per-query metrics scope, so Delta is exact for this query even
// when other queries share the rig concurrently: scoped counters override
// the global before/after diff, which only remains for plan-time counters
// (pruning, pushdown) recorded outside any query context.
func (r *Rig) RunContext(ctx context.Context, query string) (Result, error) {
	df, err := r.Session.SQL(query)
	if err != nil {
		return Result{}, err
	}
	scope := metrics.NewRegistry()
	ctx = metrics.WithScope(ctx, scope)
	before := r.Meter.Snapshot()
	start := time.Now()
	rows, err := df.CollectContext(ctx)
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	delta := metrics.Diff(before, r.Meter.Snapshot())
	for name, v := range scope.Snapshot() {
		delta[name] = v
	}
	return Result{Rows: rows, Elapsed: elapsed, Delta: delta}, nil
}

// LoadTable measures writing rows into a table through the system's write
// path (used by the Fig. 7 write benchmark).
func (r *Rig) LoadTable(table string, rows []plan.Row) (time.Duration, error) {
	rel, err := r.relation(table)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := rel.Insert(rows); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
