package harness

import (
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
)

// runTimeline executes query under timeline consistency on the rig's
// session, returning the rows.
func runTimeline(t *testing.T, rig *Rig, query string) []plan.Row {
	t.Helper()
	df, err := rig.Session.SQL(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.WithConsistency(datasource.ConsistencyTimeline).Collect()
	if err != nil {
		t.Fatalf("timeline query: %v", err)
	}
	return rows
}

// TestTimelineFusedScanFailoverByteIdentical crashes the primary region
// server a vectorized fused scan is reading — before the master has any
// chance to notice — and requires the timeline run to finish with results
// byte-identical to the undisturbed strong baseline: the pager's replica
// failover changes where rows are read, never what rows are read. The rig
// runs the default vectorized pipeline, so this is also the composition
// proof for replica failover inside a streamed partition read.
func TestTimelineFusedScanFailoverByteIdentical(t *testing.T) {
	// The undisturbed baseline runs the SAME replicated topology (replica
	// placement shifts load-based primary assignment, legitimately changing
	// partition order), so the comparison below is positional byte-identity.
	base, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(partitionQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("baseline returned no rows")
	}

	rig, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: victim, Method: hbase.MethodFused, SkipFirst: 1, FailNext: 1,
			OnFire: func() {
				// Kill the primary's host; deliberately no heartbeat round —
				// the master still believes the corpse serves its regions,
				// so only replica failover can finish the query.
				if err := rig.Cluster.CrashServer(victim); err != nil {
					t.Errorf("crash %s: %v", victim, err)
				}
			},
		},
	)
	rig.Cluster.Net.SetFaultInjector(inj)

	got := runTimeline(t, rig, partitionQuery)
	if !reflect.DeepEqual(want.Rows, got) {
		t.Fatalf("timeline failover run differs from strong baseline: %d rows vs %d", len(got), len(want.Rows))
	}
	if inj.Fired() == 0 {
		t.Fatal("no faults fired; the crash never interrupted the stream")
	}
	if rig.Meter.Get(metrics.ReplicaFailovers) == 0 {
		t.Error("query finished without any replica failover; the scenario is vacuous")
	}
	if rig.Meter.Get(metrics.ReplicaReads) == 0 {
		t.Error("no reads served by replicas")
	}
	// The master never ran a heartbeat round: zero reassignments, zero WAL
	// replay — availability came entirely from the replicas.
	if got := rig.Meter.Get(metrics.RegionsReassigned); got != 0 {
		t.Errorf("reassignments = %d, want 0 (master must not have noticed)", got)
	}
}

// TestReplicaPromotionComposesWithZombieFencing runs the zombie-partition
// scenario on a replicated table: the master declares the partitioned
// primary dead and — instead of the replay-from-WAL reopen — promotes the
// region's replica under a bumped epoch. The in-flight strong query must
// finish byte-identical, the zombie's writes stay fenced, and recovery must
// replay zero WAL entries (promotion starts from an already-serving copy).
func TestReplicaPromotionComposesWithZombieFencing(t *testing.T) {
	// The undisturbed baseline runs the SAME replicated topology (replica
	// placement shifts load-based primary assignment, legitimately changing
	// partition order), so the comparison below is positional byte-identity.
	base, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(partitionQuery)
	if err != nil {
		t.Fatal(err)
	}

	rig, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	replayedBefore := rig.Meter.Get(metrics.WALEntriesReplayed)
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: victim, Method: hbase.MethodFused, SkipFirst: 1, FailNext: 1,
			OnFire: func() {
				if err := rig.Cluster.PartitionServer(victim, hbase.PartitionFromMaster); err != nil {
					t.Errorf("partition %s: %v", victim, err)
				}
				if _, err := rig.Cluster.Master.CheckServers(); err != nil {
					t.Errorf("heartbeat round: %v", err)
				}
			},
		},
	)
	rig.Cluster.Net.SetFaultInjector(inj)

	got, err := rig.Run(partitionQuery)
	if err != nil {
		t.Fatalf("strong query through promotion: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("promoted run differs from baseline: %d rows vs %d", len(got.Rows), len(want.Rows))
	}
	if inj.Fired() == 0 {
		t.Fatal("no faults fired")
	}
	if rig.Meter.Get(metrics.Promotions) == 0 {
		t.Error("zombie partition on a replicated table promoted no replicas")
	}
	if got := rig.Meter.Get(metrics.WALEntriesReplayed) - replayedBefore; got != 0 {
		t.Errorf("promotion replayed %d WAL entries, want 0 — the replica was already caught up", got)
	}
}

// TestReplicaComposesWithGracefulDrain drains a server of a replicated
// table mid-query: primaries move with epoch adoption, secondary copies
// move live with no epoch bump, and the stream finishes byte-identical.
// Afterwards every region still has its replica on a host distinct from its
// primary.
func TestReplicaComposesWithGracefulDrain(t *testing.T) {
	// The undisturbed baseline runs the SAME replicated topology (replica
	// placement shifts load-based primary assignment, legitimately changing
	// partition order), so the comparison below is positional byte-identity.
	base, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(partitionQuery)
	if err != nil {
		t.Fatal(err)
	}

	rig, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: victim, Method: hbase.MethodFused, SkipFirst: 2, FailNext: 1,
			OnFire: func() {
				if err := rig.Cluster.Master.DrainServer(victim); err != nil {
					t.Errorf("drain %s: %v", victim, err)
				}
			},
		},
	)
	rig.Cluster.Net.SetFaultInjector(inj)

	got, err := rig.Run(partitionQuery)
	if err != nil {
		t.Fatalf("query through drain: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("drained run differs from baseline: %d rows vs %d", len(got.Rows), len(want.Rows))
	}
	if rig.Meter.Get(metrics.RegionsDrained) == 0 {
		t.Error("drain moved no regions")
	}
	rig.Client.InvalidateRegions("store_sales")
	after, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range after {
		if ri.Host == victim {
			t.Errorf("region %s primary still on drained host", ri.ID)
		}
		for n, h := range ri.ReplicaHosts {
			if h == victim {
				t.Errorf("region %s replica %d still on drained host", ri.ID, n+1)
			}
			if h != "" && h == ri.Host {
				t.Errorf("region %s replica %d landed on its primary's host", ri.ID, n+1)
			}
		}
	}
}
