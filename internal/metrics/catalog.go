package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// CatalogEntry documents one well-known metric.
type CatalogEntry struct {
	// Name is the registry key (the value of the metrics.* constant);
	// histogram families use a "<method>" placeholder for their variable
	// suffix.
	Name string
	// Kind is "counter" (monotonic total), "gauge" (level / high-water
	// mark), or "histogram".
	Kind string
	// Help is a one-line description.
	Help string
}

// Catalog lists every well-known metric with its kind and meaning — the
// source docs/METRICS.md is generated from (TestCatalogMatchesDoc keeps the
// two in sync, and TestCatalogCoversConstants keeps this list in sync with
// the constants).
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{BreakerOpens, "counter", "Circuit-breaker open transitions (threshold trips and failed half-open probes)."},
		{ClientRetries, "counter", "Client-level operation retries after retryable errors."},
		{MutatorFlushes, "counter", "Buffered-mutator flushes to the cluster."},
		{MultiPuts, "counter", "MultiPut RPCs sent by the client: every write RPC, from Client.Put and BufferedMutator flushes alike (bulk loads excepted)."},
		{ReplicaFailovers, "counter", "Timeline reads failed over from a dead primary to a replica."},
		{ReadUnavailableMs, "gauge", "Longest observed read-unavailability window, milliseconds."},
		{ConnectionsCreated, "counter", "Connections dialed to region servers."},
		{ConnectionsReused, "counter", "Connection requests served from the cache instead of dialing."},
		{MemoryCharged, "counter", "Bytes charged to the engine for decoded rows, cumulative."},
		{MemoryHeld, "gauge", "Decoded-row bytes currently held by the engine."},
		{MemoryPeak, "gauge", "High-water mark of decoded-row bytes held."},
		{QueriesCancelled, "counter", "Queries that ended cancelled or past their deadline."},
		{PlanCacheHits, "counter", "Session.SQL calls served by a prepared-plan template: no parse, optimize or fingerprint."},
		{PlanCacheMisses, "counter", "Session.SQL calls whose query shape had no template yet: a full build that also tries to prepare one."},
		{PlanCacheUncacheable, "counter", "Session.SQL calls that took the full path because their shape cannot be prepared or their literals could not be bound."},
		{PlanCacheInvalidations, "counter", "Prepared-plan templates dropped because the catalog changed (Register, RegisterAs, CreateOrReplaceTempView)."},
		{HistQueryLatency, "histogram", "End-to-end query latency."},
		{TasksLaunched, "counter", "Tasks launched by the scheduler."},
		{TasksLocal, "counter", "Tasks placed on their preferred (data-local) host."},
		{BatchesStreamed, "counter", "Batches streamed through fused pipelines."},
		{HistQueueWait, "histogram", "Task wait between enqueue and execution."},
		{RowsShortCircuited, "counter", "Rows skipped by early-out limit handling."},
		{HistTaskRun, "histogram", "Task execution wall time."},
		{TasksCancelled, "counter", "Queued tasks dropped when a run aborted."},
		{TasksRetried, "counter", "Tasks re-executed after retryable transport failures."},
		{VectorBatches, "counter", "Columnar batches processed by vectorized operators."},
		{VectorRows, "counter", "Rows carried in columnar batches."},
		{BatchesDeduped, "counter", "Write batches dropped server-side as exactly-once duplicates."},
		{BulkLoadCells, "counter", "Cells ingested through bulk load."},
		{BulkLoads, "counter", "Bulk-load operations applied."},
		{CellsReturned, "counter", "Cells returned from region servers to the client."},
		{CellsScanned, "counter", "Cells read inside region servers."},
		{ColumnarPages, "counter", "Columnar scan pages served by region servers."},
		{Compactions, "counter", "Store-file compactions."},
		{FusedPages, "counter", "Fused scan→filter→project pages served."},
		{AggregateOps, "counter", "Fused aggregate requests served: rows folded into partial aggregates on the region server."},
		{Heartbeats, "counter", "Master heartbeat probes sent to region servers."},
		{MemstoreFlushes, "counter", "MemStore flushes to store files."},
		{PagesPrefetched, "counter", "Scan pages fetched ahead of the cursor."},
		{RegionSplits, "counter", "Region splits completed."},
		{RegionsDrained, "counter", "Regions moved off gracefully-draining servers."},
		{RegionsFenced, "counter", "Regions re-homed under a bumped (fencing) epoch."},
		{RegionsReassigned, "counter", "Regions reassigned after server death or drain."},
		{RegionsScanned, "counter", "Regions touched by scans."},
		{HistReplicaLag, "histogram", "Replica apply lag behind the primary WAL."},
		{ReplicaReads, "counter", "Reads served by region replicas."},
		{RowsReturned, "counter", "Rows returned from region servers to the client."},
		{RowsScanned, "counter", "Rows read inside region servers."},
		{ServersDeclaredDead, "counter", "Servers declared dead by heartbeat rounds."},
		{EpochBumps, "counter", "Region epoch increments (fencing events)."},
		{MasterElections, "counter", "Master leader elections won (boot and failover)."},
		{MasterTakeovers, "counter", "Standby masters that took over after leader loss."},
		{MasterFencedWrites, "counter", "Coordination writes rejected because the issuing master was deposed."},
		{MasterRediscoveries, "counter", "Client re-reads of the master election after losing the cached leader."},
		{HotSplits, "counter", "Splits triggered by write-hot regions."},
		{JanitorRuns, "counter", "Master janitor maintenance passes."},
		{Promotions, "counter", "Replicas promoted to primary during failover."},
		{SplitsRolledBack, "counter", "Crashed splits rolled back during recovery."},
		{SplitsRolledForward, "counter", "Crashed splits rolled forward during recovery."},
		{RPCBytesReceived, "counter", "Response bytes received over the simulated network."},
		{RPCBytesSent, "counter", "Request bytes sent over the simulated network."},
		{RPCCalls, "counter", "RPC calls issued over the simulated network."},
		{FaultsInjected, "counter", "Chaos faults fired by the injector."},
		{FencedRejects, "counter", "RPCs rejected by epoch fencing."},
		{RPCHedgeWins, "counter", "Hedged duplicates that answered before the original."},
		{RPCHedges, "counter", "Speculative duplicate reads fired by hedging."},
		{HistRPCLatencyPrefix + "<method>", "histogram", "Per-method RPC latency (one histogram per RPC method)."},
		{PartitionDrops, "counter", "RPCs dropped by partition rules."},
		{PartitionsHealed, "counter", "Network partitions healed."},
		{PartitionsInjected, "counter", "Network partitions installed."},
		{RepliesDropped, "counter", "RPC replies dropped after the caller hung up."},
		{TokensFetched, "counter", "Authentication tokens fetched."},
		{TokensRenewed, "counter", "Tokens renewed before expiry."},
		{TokensCacheHits, "counter", "Token requests served from the credential cache."},
		{MemstoreDelays, "counter", "Writes delayed at the memstore low watermark."},
		{MemstoreRejects, "counter", "Writes rejected at the memstore high watermark."},
		{ServerQueuePeak, "gauge", "Peak admission-queue depth on a region server."},
		{ServerShed, "counter", "Requests shed by server admission control."},
		{ServerSelfFenced, "counter", "Servers that fenced themselves after a lapsed master lease."},
		{FiltersPushed, "counter", "Predicates pushed down into the datasource."},
		{FiltersUnhandled, "counter", "Predicates the source declined (evaluated in the engine)."},
		{RegionsPruned, "counter", "Regions skipped by partition pruning."},
		{ShuffleBytes, "counter", "Bytes moved through the shuffle."},
		{ShuffleRecords, "counter", "Records moved through the shuffle."},
		{WALAppends, "counter", "WAL records appended."},
		{WALCorruptEntries, "counter", "Corrupt WAL entries skipped during replay."},
		{WALEntriesReplayed, "counter", "WAL entries replayed during recovery."},
		{WALFencedAppends, "counter", "WAL appends rejected by fencing."},
	}
}

// WriteCatalog renders the catalog as the markdown document committed at
// docs/METRICS.md, grouped by subsystem prefix.
func WriteCatalog(w io.Writer) error {
	entries := Catalog()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	groups := make(map[string][]CatalogEntry)
	var order []string
	for _, e := range entries {
		sub := e.Name
		if i := strings.IndexByte(sub, '.'); i > 0 {
			sub = sub[:i]
		}
		if _, ok := groups[sub]; !ok {
			order = append(order, sub)
		}
		groups[sub] = append(groups[sub], e)
	}
	sort.Strings(order)

	if _, err := fmt.Fprint(w, "# Metrics catalog\n\n"+
		"Every well-known metric in the stack, by `subsystem.noun_verb` name.\n"+
		"Counters are monotonic totals; gauges are levels or high-water marks\n"+
		"(reset with the registry); histograms record latency distributions.\n"+
		"All of them appear on the ops endpoint's `/metrics` exposition with an\n"+
		"`shc_` prefix and dots mapped to underscores.\n\n"+
		"Generated from `internal/metrics/catalog.go` — edit the catalog there\n"+
		"and run `UPDATE_METRICS_DOC=1 go test ./internal/metrics/ -run Catalog`\n"+
		"to regenerate.\n"); err != nil {
		return err
	}
	for _, sub := range order {
		if _, err := fmt.Fprintf(w, "\n## %s\n\n| Metric | Kind | Meaning |\n|---|---|---|\n", sub); err != nil {
			return err
		}
		for _, e := range groups[sub] {
			if _, err := fmt.Fprintf(w, "| `%s` | %s | %s |\n", e.Name, e.Kind, e.Help); err != nil {
				return err
			}
		}
	}
	return nil
}
