// Package metrics provides a lightweight registry of named counters shared
// by every layer of the simulated stack. The benchmark harness resets a
// registry before each run and reads it afterwards to report the costs the
// paper measures: bytes moved over the simulated network, shuffle volume,
// rows scanned inside region servers versus rows returned to the engine,
// connections created, and memory charged for decoded data.
package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Well-known counter names used across the stack. Layers may also register
// ad-hoc counters; these constants just keep call sites consistent.
const (
	RPCCalls            = "rpc.calls"
	RPCBytesSent        = "rpc.bytes_sent"
	RPCBytesReceived    = "rpc.bytes_received"
	ShuffleBytes        = "shuffle.bytes"
	ShuffleRecords      = "shuffle.records"
	RowsScanned         = "hbase.rows_scanned"
	RowsReturned        = "hbase.rows_returned"
	CellsScanned        = "hbase.cells_scanned"
	CellsReturned       = "hbase.cells_returned"
	RegionsScanned      = "hbase.regions_scanned"
	RegionsPruned       = "shc.regions_pruned"
	FiltersPushed       = "shc.filters_pushed"
	FiltersUnhandled    = "shc.filters_unhandled"
	ConnectionsCreated  = "conn.connections_created"
	ConnectionsReused   = "conn.connections_reused"
	TokensFetched       = "security.tokens_fetched"
	TokensRenewed       = "security.tokens_renewed"
	TokensCacheHits     = "security.token_cache_hits"
	MemoryCharged       = "engine.memory_charged_bytes"
	MemoryHeld          = "engine.memory_held_bytes"
	MemoryPeak          = "engine.memory_peak_bytes"
	BatchesStreamed     = "exec.batches_streamed"
	RowsShortCircuited  = "exec.rows_short_circuited"
	VectorBatches       = "exec.vector_batches"
	VectorRows          = "exec.vector_rows"
	ColumnarPages       = "hbase.columnar_pages"
	PagesPrefetched     = "hbase.pages_prefetched"
	FusedPages          = "hbase.fused_pages"
	AggregateOps        = "hbase.aggregate_ops"
	TasksLaunched       = "engine.tasks_launched"
	TasksLocal          = "engine.tasks_local"
	WALAppends          = "wal.appends"
	MemstoreFlushes     = "hbase.memstore_flushes"
	Compactions         = "hbase.compactions"
	RegionSplits        = "hbase.region_splits"
	RegionsReassigned   = "hbase.regions_reassigned"
	Heartbeats          = "hbase.heartbeats"
	ServersDeclaredDead = "hbase.servers_dead"
	WALEntriesReplayed  = "wal.entries_replayed"
	ClientRetries       = "client.retries"
	TasksRetried        = "exec.tasks_retried"
	FaultsInjected      = "rpc.faults_injected"
	RPCHedges           = "rpc.hedges"
	RPCHedgeWins        = "rpc.hedge_wins"
	ServerShed          = "server.requests_shed"
	ServerQueuePeak     = "server.queue_depth_peak"
	BreakerOpens        = "breaker.circuit_opens"
	QueriesCancelled    = "engine.queries_cancelled"
	TasksCancelled      = "exec.tasks_cancelled"
	RegionsFenced       = "hbase.regions_fenced"
	RegionsDrained      = "hbase.regions_drained"
	FencedRejects       = "rpc.fenced_rejects"
	ServerSelfFenced    = "server.self_fenced"
	EpochBumps          = "master.epoch_bumps"
	PartitionsInjected  = "rpc.partitions_injected"
	PartitionsHealed    = "rpc.partitions_healed"
	PartitionDrops      = "rpc.partition_drops"
	WALCorruptEntries   = "wal.corrupt_entries"
	WALFencedAppends    = "wal.fenced_appends"
	ReplicaReads        = "hbase.replica_reads"
	HistReplicaLag      = "hbase.replica_lag_ms"
	Promotions          = "master.promotions"
	ReplicaFailovers    = "client.replica_failovers"
	ReadUnavailableMs   = "cluster.read_unavailable_ms"
	RepliesDropped      = "rpc.replies_dropped"
	JanitorRuns         = "master.janitor_runs"
	HotSplits           = "master.hot_splits"
	SplitsRolledForward = "master.splits_rolled_forward"
	SplitsRolledBack    = "master.splits_rolled_back"
	MemstoreDelays      = "server.memstore_delays"
	MemstoreRejects     = "server.memstore_full_rejects"
	BatchesDeduped      = "hbase.batches_deduped"
	BulkLoads           = "hbase.bulk_loads"
	BulkLoadCells       = "hbase.bulk_load_cells"
	MutatorFlushes      = "client.mutator_flushes"
	MultiPuts           = "client.multi_puts"
	MasterElections     = "master.elections"
	MasterTakeovers     = "master.takeovers"
	MasterFencedWrites  = "master.fenced_writes"
	MasterRediscoveries = "client.master_rediscoveries"

	// Prepared-plan cache outcomes: each Session.SQL call whose text lexes
	// counts as one of a hit, a miss or an uncacheable query.
	PlanCacheHits          = "engine.plan_cache_hits"
	PlanCacheMisses        = "engine.plan_cache_misses"
	PlanCacheUncacheable   = "engine.plan_cache_uncacheable"
	PlanCacheInvalidations = "engine.plan_cache_invalidations"
)

// Registry is a concurrency-safe set of named monotonic counters, gauges
// (SetMax/AddPeak high-water marks), and latency histograms.
// The zero value is not usable; call NewRegistry.
//
// Every hot path names its counter on each write, so a lookup of a name
// the registry has published takes no lock (see nameTable).
type Registry struct {
	mu       sync.Mutex // guards the tables' unpublished names
	counters nameTable[atomic.Int64]
	hists    nameTable[Histogram]
	gauges   nameTable[struct{}]
}

// nameTable maps names to entries that live as long as the registry. Its
// published map is never written once stored, so a lookup of a published
// name is an atomic load and a map read. A new name goes to the unpublished
// map under the registry's mu; once lookups under mu have cost as much as
// copying both maps would, the union is published — the read-mostly split
// sync.Map used before Go 1.24, typed. A registry that stops growing ends
// with every name published, and a fresh one (a query's scope) creates n
// names in O(n).
type nameTable[V any] struct {
	published atomic.Pointer[map[string]*V]
	dirty     map[string]*V // names not yet published; under mu
	misses    int           // lookups under mu since the last publish
}

func (t *nameTable[V]) read() map[string]*V {
	if m := t.published.Load(); m != nil {
		return *m
	}
	return nil
}

// get returns name's entry, creating it when absent.
func (t *nameTable[V]) get(mu *sync.Mutex, name string) *V {
	if v, ok := t.read()[name]; ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	pub := t.read()
	if v, ok := pub[name]; ok {
		return v
	}
	v, ok := t.dirty[name]
	if !ok {
		if t.dirty == nil {
			t.dirty = make(map[string]*V)
		}
		v = new(V)
		t.dirty[name] = v
	}
	if t.misses++; t.misses >= len(pub)+len(t.dirty) {
		next := make(map[string]*V, len(pub)+len(t.dirty))
		maps.Copy(next, pub)
		maps.Copy(next, t.dirty)
		t.published.Store(&next)
		t.dirty, t.misses = nil, 0
	}
	return v
}

// lookup returns name's entry, or nil when absent, creating nothing.
func (t *nameTable[V]) lookup(mu *sync.Mutex, name string) *V {
	if v, ok := t.read()[name]; ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v, ok := t.read()[name]; ok {
		return v
	}
	return t.dirty[name]
}

// each calls fn on every entry. The caller holds mu.
func (t *nameTable[V]) each(fn func(name string, v *V)) {
	for name, v := range t.read() {
		fn(name, v)
	}
	for name, v := range t.dirty {
		fn(name, v)
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) counter(name string) *atomic.Int64 { return r.counters.get(&r.mu, name) }

// Add increments the named counter by delta.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// SetMax raises the named counter to v if v exceeds its current value —
// a high-water mark rather than an accumulator. Names written through
// SetMax are remembered as gauges: the exposition output labels them
// `gauge` rather than `counter`, since their value is a level, not a
// monotonic total, and Reset returns them to zero like any other level.
func (r *Registry) SetMax(name string, v int64) {
	if r == nil {
		return
	}
	r.markGauge(name)
	c := r.counter(name)
	for {
		old := c.Load()
		if v <= old {
			return
		}
		if c.CompareAndSwap(old, v) {
			return
		}
	}
}

// AddPeak adjusts a current-usage counter by delta and, when growing,
// records its new value as the peak counter's high-water mark. The pair
// (MemoryHeld, MemoryPeak) tracks live vs. peak decoded-row memory: the
// streamed pipeline releases batches after processing them, so its peak
// stays near one batch while the materialized path's peak is the full
// result set.
func (r *Registry) AddPeak(cur, peak string, delta int64) {
	if r == nil {
		return
	}
	r.markGauge(cur)
	v := r.counter(cur).Add(delta)
	if delta > 0 {
		r.SetMax(peak, v)
	}
}

// markGauge remembers that name holds a level rather than a monotonic
// total, so exposition can label it correctly.
func (r *Registry) markGauge(name string) { r.gauges.get(&r.mu, name) }

// IsGauge reports whether name has been written through SetMax/AddPeak.
func (r *Registry) IsGauge(name string) bool {
	if r == nil {
		return false
	}
	return r.gauges.lookup(&r.mu, name) != nil
}

// Get returns the current value of the named counter (zero if never written).
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	if c := r.counters.lookup(&r.mu, name); c != nil {
		return c.Load()
	}
	return 0
}

// Reset zeroes every counter, gauge, and histogram while keeping them
// registered. High-water marks (SetMax/AddPeak gauges) restart from zero:
// a bench iteration that Resets between runs sees only its own peaks, not
// the high-water mark of every run before it.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters.each(func(_ string, c *atomic.Int64) { c.Store(0) })
	r.hists.each(func(_ string, h *Histogram) { h.reset() })
}

// Snapshot returns a point-in-time copy of all counters.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters.read())+len(r.counters.dirty))
	r.counters.each(func(name string, c *atomic.Int64) { out[name] = c.Load() })
	return out
}

// Diff returns after-minus-before for every counter present in either map.
func Diff(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	for name, v := range before {
		if _, ok := after[name]; !ok {
			out[name] = -v
		}
	}
	return out
}

// String renders the registry sorted by counter name, one per line,
// omitting zero counters.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name, v := range snap {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%-28s %d\n", name, snap[name])
	}
	return b.String()
}
