// Package engine ties the stack together into the user-facing session: a
// table catalog, the SQL front end, the Catalyst-style optimizer, the
// physical compiler, and the DataFrame API the paper's Code 3 demonstrates.
// The engine is source-agnostic: it talks to storage only through the
// datasource seam, which is what makes SHC a plug-in rather than a fork.
package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/plan"
)

// Config sizes a session's execution resources.
type Config struct {
	// Hosts are the executor hosts; default is one local host.
	Hosts []string
	// ExecutorsPerHost is per-host task parallelism; default 2. Negative is
	// rejected by NewSession.
	ExecutorsPerHost int
	// UseSortMergeJoin compiles equi-joins to sort-merge instead of hash
	// joins (Spark's default strategy for large inputs).
	UseSortMergeJoin bool
	// DisablePipelining materializes every operator Volcano-style instead of
	// fusing scan→filter→project→limit chains into streaming batch
	// pipelines (ablation switch).
	DisablePipelining bool
	// DisableVectorization keeps fused pipelines on the row-at-a-time path
	// instead of columnar batches with compiled predicates (ablation switch;
	// implies nothing about pipelining itself).
	DisableVectorization bool
	// Meter receives execution counters; a fresh registry when nil.
	Meter *metrics.Registry
	// SlowQueryThreshold turns on the slow-query log: any action whose
	// wall time exceeds it emits one structured line to SlowQueryLog.
	// 0 disables the log. Negative is rejected by NewSession.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query records; os.Stderr when nil.
	SlowQueryLog io.Writer
}

// Validate normalizes cfg in place (defaults) and reports
// out-of-range settings. NewSession calls it; it is exported so harnesses
// can surface configuration errors before building a cluster.
func (cfg *Config) Validate() error {
	if cfg.ExecutorsPerHost < 0 {
		return fmt.Errorf("engine: ExecutorsPerHost must not be negative, got %d", cfg.ExecutorsPerHost)
	}
	if cfg.SlowQueryThreshold < 0 {
		return fmt.Errorf("engine: SlowQueryThreshold must not be negative, got %v", cfg.SlowQueryThreshold)
	}
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = []string{"local"}
	}
	if cfg.ExecutorsPerHost == 0 {
		cfg.ExecutorsPerHost = 2
	}
	if cfg.Meter == nil {
		cfg.Meter = metrics.NewRegistry()
	}
	return nil
}

// Session is the engine entry point (the SparkSession/sqlContext analogue).
type Session struct {
	sched *exec.Scheduler
	meter *metrics.Registry
	stats *ops.StatsTable
	cfg   Config

	mu     sync.RWMutex
	tables map[string]plan.Relation
	views  map[string]plan.LogicalPlan

	plans planCache
}

// NewSession builds a session, validating the configuration first.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{
		sched:  exec.NewScheduler(cfg.Hosts, cfg.ExecutorsPerHost, cfg.Meter),
		meter:  cfg.Meter,
		stats:  ops.NewStatsTable(ops.DefaultStatsSize),
		cfg:    cfg,
		tables: make(map[string]plan.Relation),
		views:  make(map[string]plan.LogicalPlan),
	}, nil
}

// Config returns the session's effective (validated, defaulted)
// configuration.
func (s *Session) Config() Config { return s.cfg }

// Meter exposes the session's counters.
func (s *Session) Meter() *metrics.Registry { return s.meter }

// QueryStats exposes the session's per-fingerprint statement statistics.
func (s *Session) QueryStats() *ops.StatsTable { return s.stats }

// Register adds a relation to the catalog under its own name.
func (s *Session) Register(rel plan.Relation) {
	s.RegisterAs(rel.Name(), rel)
}

// RegisterAs adds a relation under an explicit name.
func (s *Session) RegisterAs(name string, rel plan.Relation) {
	s.mu.Lock()
	s.tables[name] = rel
	s.mu.Unlock()
	s.catalogChanged()
}

// Table returns a DataFrame reading the named table.
func (s *Session) Table(name string) (*DataFrame, error) {
	lp, err := s.resolve(name)
	if err != nil {
		return nil, err
	}
	return &DataFrame{sess: s, lp: lp}, nil
}

// Read wraps a relation in a DataFrame without registering it.
func (s *Session) Read(rel plan.Relation) *DataFrame {
	return &DataFrame{sess: s, lp: &plan.ScanNode{Relation: rel}}
}

func (s *Session) resolve(name string) (plan.LogicalPlan, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.views[name]; ok {
		return v, nil
	}
	if rel, ok := s.tables[name]; ok {
		return &plan.ScanNode{Relation: rel}, nil
	}
	return nil, fmt.Errorf("engine: table or view %q not found", name)
}

// SQL parses a query against the catalog and returns its (lazy) DataFrame.
// A query whose shape — its text with the literals masked — was seen
// before is served from the session's plan cache: its template is bound to
// the query's literals, and its actions skip optimization and
// fingerprinting (see plancache.go). Parse time is remembered so a traced
// action can back-date a parse span.
func (s *Session) SQL(query string) (*DataFrame, error) {
	start := time.Now()
	df, err := s.sqlFrame(query)
	if err != nil {
		return nil, err
	}
	df.parseDur = time.Since(start)
	return df, nil
}

// compileConfig selects physical strategies for this session.
func (s *Session) compileConfig() exec.CompileConfig {
	return exec.CompileConfig{
		SortMergeJoin:        s.cfg.UseSortMergeJoin,
		DisablePipelining:    s.cfg.DisablePipelining,
		DisableVectorization: s.cfg.DisableVectorization,
	}
}

// execContext builds the execution context for one query run under ctx.
func (s *Session) execContext(ctx context.Context) *exec.Context {
	return &exec.Context{Ctx: ctx, Scheduler: s.sched, Meter: s.meter}
}
