// Package shc is the public API of the SHC reproduction: a Spark-SQL-style
// query engine with an HBase connector, all simulated in-process.
//
// The shape follows the paper: define a JSON catalog mapping an HBase table
// to a relational schema (Code 1), open a relation over a cluster, write
// DataFrames into it (Code 2), and query it through the DataFrame API or
// SQL (Codes 3–4) — with SHC's partition pruning, column pruning, predicate
// pushdown, operator fusion, data locality, connection caching, and
// multi-cluster credential management all active underneath.
//
// Quick start:
//
//	cluster, _ := shc.NewCluster(shc.ClusterConfig{NumServers: 3})
//	client := cluster.NewClient()
//	cat, _ := shc.ParseCatalog(catalogJSON)
//	rel, _ := shc.NewHBaseRelation(client, cat, shc.Options{}, cluster.Meter)
//	sess, _ := shc.NewSession(shc.SessionConfig{Hosts: cluster.Hosts()})
//	sess.Register(rel)
//	df, _ := sess.SQL("SELECT col0 FROM actives WHERE col0 <= 'row120'")
//	rows, _ := df.Collect()
package shc

import (
	"context"
	"time"

	"github.com/shc-go/shc/internal/conncache"
	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/engine"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/security"
	"github.com/shc-go/shc/internal/trace"
)

// Cluster-side types.
type (
	// Cluster is a simulated HBase deployment (region servers + master +
	// coordination service).
	Cluster = hbase.Cluster
	// ClusterConfig sizes a cluster.
	ClusterConfig = hbase.ClusterConfig
	// Client is the HBase client.
	Client = hbase.Client
	// TableDescriptor declares an HBase table.
	TableDescriptor = hbase.TableDescriptor
	// StoreConfig tunes region storage (flush/compact/split thresholds).
	StoreConfig = hbase.StoreConfig
	// Cell is one HBase cell (row, family, qualifier, timestamp, value).
	Cell = hbase.Cell
	// BufferedMutator batches writes into per-server MultiPut RPCs whose
	// retries are exactly-once; create one with Client.NewMutator.
	BufferedMutator = hbase.BufferedMutator
	// MutatorConfig tunes a BufferedMutator (flush size/interval, buffer
	// bound, retry budget).
	MutatorConfig = hbase.MutatorConfig
	// ServerLimits installs admission control and memstore watermarks on a
	// region server (RegionServer.SetLimits).
	ServerLimits = hbase.ServerLimits
)

// Connector-side types.
type (
	// Catalog maps an HBase table to a relational schema (paper Code 1).
	Catalog = core.Catalog
	// Options carries timestamp/version settings and ablation switches.
	Options = core.Options
	// HBaseRelation is SHC's relation: pruned, filtered, locality-aware.
	HBaseRelation = core.HBaseRelation
	// BaselineRelation models stock Spark SQL reading HBase generically.
	BaselineRelation = core.BaselineRelation
	// FieldCoder serializes typed values to HBase byte arrays.
	FieldCoder = core.FieldCoder
)

// Engine-side types.
type (
	// Session is the query-engine entry point.
	Session = engine.Session
	// SessionConfig sizes a session's executors (hosts × executors per host,
	// which is also the number of shuffle buckets a join or aggregate
	// splits into) and picks the join strategy, the ablation switches and
	// the slow-query log. A query's deadline is not a session setting: pass
	// a context with one to CollectContext or CountContext.
	SessionConfig = engine.Config
	// DataFrame is a lazy relational computation.
	DataFrame = engine.DataFrame
	// Schema describes relational output.
	Schema = plan.Schema
	// Row is one positional record.
	Row = plan.Row
	// Expr is a typed expression (for the DataFrame API).
	Expr = plan.Expr
	// Metrics is the counter registry every layer reports into.
	Metrics = metrics.Registry
)

// Observability types.
type (
	// QueryTrace is a per-query tree of timed spans; install one with
	// StartTrace and render it with its Render method, or let
	// DataFrame.ExplainAnalyze manage one for you.
	QueryTrace = trace.Trace
	// Span is one timed operation in a QueryTrace.
	Span = trace.Span
)

// StartTrace returns ctx carrying a fresh query trace named name. Pass the
// context to CollectContext/CountContext and every tier — parse, optimize,
// compile, scheduler tasks, client RPCs, server-side region scans — records
// spans into it; when tracing is absent the same code paths cost nothing.
func StartTrace(ctx context.Context, name string) (context.Context, *QueryTrace) {
	tr := trace.New(name)
	return trace.NewContext(ctx, tr), tr
}

// Security types.
type (
	// KDC simulates the Kerberos key-distribution center.
	KDC = security.KDC
	// TokenService issues delegation tokens for one secure cluster.
	TokenService = security.TokenService
	// CredentialsManager is SHCCredentialsManager: per-cluster token
	// fetch, cache, and renewal.
	CredentialsManager = security.CredentialsManager
	// CredentialsConfig configures the manager (paper Code 6).
	CredentialsConfig = security.CredentialsConfig
)

// NewCluster boots a simulated HBase cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return hbase.NewCluster(cfg) }

// NewSession builds a query-engine session, rejecting out-of-range
// configuration (a negative executor count or slow-query threshold).
func NewSession(cfg SessionConfig) (*Session, error) { return engine.NewSession(cfg) }

// ParseCatalog parses the JSON table catalog of the paper's Code 1.
func ParseCatalog(doc string) (*Catalog, error) { return core.ParseCatalog(doc) }

// NewHBaseRelation opens SHC over a client and catalog.
func NewHBaseRelation(client *Client, cat *Catalog, opts Options, meter *Metrics) (*HBaseRelation, error) {
	return core.NewHBaseRelation(client, cat, opts, meter)
}

// NewBaselineRelation opens the generic Spark-SQL-style relation used as
// the experimental baseline.
func NewBaselineRelation(client *Client, cat *Catalog, opts Options, meter *Metrics) *BaselineRelation {
	return core.NewBaselineRelation(client, cat, opts, meter)
}

// NewConnCache builds SHC's reference-counted connection cache for a
// cluster; pass it to the client with WithConnPool.
func NewConnCache(cluster *Cluster) *conncache.Cache {
	return conncache.New(cluster.Net, conncache.Config{}, cluster.Meter)
}

// WithConnPool makes a client acquire connections through a pool.
func WithConnPool(p hbase.ConnPool) hbase.ClientOption { return hbase.WithConnPool(p) }

// WithTokenProvider makes a client authenticate through a credential
// source (e.g. a CredentialsManager).
func WithTokenProvider(tp hbase.TokenProvider) hbase.ClientOption {
	return hbase.WithTokenProvider(tp)
}

// WithHedgedReads makes a client's read-only region RPCs fire a speculative
// duplicate after delay; the first response wins and the loser is
// cancelled. Use it to keep tail latency bounded when one server straggles.
func WithHedgedReads(delay time.Duration) hbase.ClientOption {
	return hbase.WithHedgedReads(delay)
}

// WithBreaker installs a per-host circuit breaker (NewBreaker) in front of
// a client's calls: hosts that fail repeatedly are failed fast until a
// cooldown probe succeeds.
func WithBreaker(b hbase.HostBreaker) hbase.ClientOption { return hbase.WithBreaker(b) }

// NewBreaker builds the per-host circuit breaker with default thresholds,
// reporting breaker.circuit_opens into meter.
func NewBreaker(meter *Metrics) *conncache.Breaker {
	return conncache.NewBreaker(conncache.BreakerConfig{}, meter)
}

// NewCredentialsManager builds the SHCCredentialsManager.
func NewCredentialsManager(cfg CredentialsConfig, meter *Metrics) *CredentialsManager {
	return security.NewCredentialsManager(cfg, meter)
}

// NewMetrics returns a fresh counter registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Expression helpers for the DataFrame API (Code 3's $"col0" <= "row120").

// Col references a column.
func Col(name string) Expr { return plan.Col(name) }

// Lit wraps a constant.
func Lit(v any) Expr { return plan.Lit(v) }

// Eq builds l = r.
func Eq(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpEq, L: l, R: r} }

// Ne builds l != r.
func Ne(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpNe, L: l, R: r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpLt, L: l, R: r} }

// Le builds l <= r.
func Le(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpLe, L: l, R: r} }

// Gt builds l > r.
func Gt(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpGt, L: l, R: r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return &plan.Comparison{Op: plan.OpGe, L: l, R: r} }

// And builds l AND r.
func And(l, r Expr) Expr { return &plan.And{L: l, R: r} }

// Or builds l OR r.
func Or(l, r Expr) Expr { return &plan.Or{L: l, R: r} }
