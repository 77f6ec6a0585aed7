package hbase

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

func bootReplicated(t *testing.T, servers, replication int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Name: "test", NumServers: servers,
		Store: StoreConfig{RegionReplication: replication},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// findCopy locates copy #replica of a region on whichever server hosts it.
func findCopy(c *Cluster, id string, replica int) *Region {
	for _, rs := range c.Servers {
		if r := rs.Region(regionKey(id, replica)); r != nil {
			return r
		}
	}
	return nil
}

func TestReplicaPlacementDistinctHosts(t *testing.T) {
	c := bootReplicated(t, 3, 2)
	client := c.NewClient()
	defer client.Close()
	desc := TableDescriptor{Name: "t", Families: []string{"cf"}}
	if err := client.CreateTable(desc, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(regions))
	}
	for _, ri := range regions {
		if len(ri.ReplicaHosts) != 1 || ri.ReplicaHosts[0] == "" {
			t.Fatalf("region %s: ReplicaHosts = %v, want one placed replica", ri.ID, ri.ReplicaHosts)
		}
		if ri.ReplicaHosts[0] == ri.Host {
			t.Errorf("region %s: replica on primary host %s", ri.ID, ri.Host)
		}
		rep := findCopy(c, ri.ID, 1)
		if rep == nil {
			t.Fatalf("region %s: replica copy not hosted anywhere", ri.ID)
		}
		if !rep.IsReplica() {
			t.Errorf("region %s: copy #1 does not report as replica", ri.ID)
		}
	}
}

func TestReplicaReadOnlyAndNoFlush(t *testing.T) {
	c := bootReplicated(t, 2, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	ri, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	rep := findCopy(c, ri[0].ID, 1)
	if rep == nil {
		t.Fatal("no replica")
	}
	if err := putCells(rep, cell("a", "cf", "q", 1, "v")); err == nil {
		t.Error("write to a secondary copy must fail")
	}
}

// TestTimelineReplicaPrefixOfPrimaryHistory is the timeline-consistency
// property: at every point of a lagging replica's catch-up, what it serves
// is exactly a prefix of the primary's acknowledged write history — never a
// reordering, never a value the primary did not ack.
func TestTimelineReplicaPrefixOfPrimaryHistory(t *testing.T) {
	c := bootReplicated(t, 2, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	ri, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	primary := findCopy(c, ri[0].ID, 0)
	rep := findCopy(c, ri[0].ID, 1)
	if primary == nil || rep == nil {
		t.Fatal("missing copies")
	}
	rep.HoldApply(true)
	const n = 10
	var rows []string
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("row%02d", i)
		rows = append(rows, row)
		if err := client.Put("t", []Cell{cell(row, "cf", "q", 1, "v"+row)}); err != nil {
			t.Fatal(err)
		}
	}
	for applied := 0; applied <= n; applied++ {
		got := rep.RunScan(&Scan{})
		if len(got) != applied {
			t.Fatalf("after %d applies replica sees %d rows", applied, len(got))
		}
		for j, res := range got {
			if string(res.Row) != rows[j] {
				t.Fatalf("after %d applies row[%d] = %q, want %q (history must be a prefix)", applied, j, res.Row, rows[j])
			}
		}
		if applied < n && rep.ApplyPending(1) != 1 {
			t.Fatalf("apply %d: no pending entry", applied)
		}
	}
	// Fully drained: replica now matches the primary exactly.
	want := primary.RunScan(&Scan{})
	got := rep.RunScan(&Scan{})
	if len(want) != len(got) {
		t.Fatalf("drained replica rows = %d, primary = %d", len(got), len(want))
	}
}

// TestPromoteNeverServesUnackedWrites partitions a primary from the master
// (the zombie scenario), promotes its replica, and verifies the promoted
// copy serves every acknowledged write and nothing the zombie failed to ack
// — the fenced WAL kills the zombie's post-promotion writes exactly as on a
// crash reassign.
func TestPromoteNeverServesUnackedWrites(t *testing.T) {
	c := bootReplicated(t, 3, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	ri, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	id, victim := ri[0].ID, ri[0].Host
	zombie := findCopy(c, id, 0)
	if err := client.Put("t", []Cell{cell("acked", "cf", "q", 1, "yes")}); err != nil {
		t.Fatal(err)
	}

	if err := c.PartitionServer(victim, PartitionFromMaster); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.CheckServers(); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.Promotions); got < 1 {
		t.Fatalf("promotions = %d, want >= 1", got)
	}

	// The zombie still runs and accepts client RPCs, but its WAL is fenced:
	// this write must die unacknowledged.
	if err := putCells(zombie, cell("unacked", "cf", "q", 1, "never")); err == nil {
		t.Fatal("zombie write after promotion must be fenced")
	}

	client.InvalidateRegions("t")
	res, err := client.Get("t", []byte("acked"), nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 || string(res.Cells[0].Value) != "yes" {
		t.Fatalf("promoted primary lost an acked write: %+v", res)
	}
	res, err = client.Get("t", []byte("unacked"), nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Fatal("promoted primary serves a write the old primary never acked")
	}
	// The promoted copy answers strong reads as the region's primary.
	fresh, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if fresh[0].Host == victim {
		t.Fatalf("region still routed to zombie host %s", victim)
	}
}

// TestTimelineFailoverSurvivesPrimaryCrash is the availability contract,
// for every client read entry point: a timeline read rides over a crashed
// primary to its replica on the pager's first retry, while a strong read
// keeps failing until the master recovers the region.
func TestTimelineFailoverSurvivesPrimaryCrash(t *testing.T) {
	type read func(ctx context.Context, client *Client, ri RegionInfo) ([]Result, error)
	for _, tc := range []struct {
		name string
		read read
	}{
		{"Get", func(ctx context.Context, client *Client, _ RegionInfo) ([]Result, error) {
			res, err := client.GetContext(ctx, "t", []byte("k"), nil, 1, TimeRange{})
			return []Result{res}, err
		}},
		{"BulkGetFresh", func(ctx context.Context, client *Client, _ RegionInfo) ([]Result, error) {
			results, freshness, err := client.BulkGetFresh(ctx, "t", [][]byte{[]byte("k")}, nil, 1, TimeRange{})
			if err == nil && freshness.Stale != (ConsistencyFromContext(ctx) == ConsistencyTimeline) {
				return nil, fmt.Errorf("freshness = %+v: only the replica-served read is tagged stale", freshness)
			}
			return results, err
		}},
		{"ScanRegion", func(ctx context.Context, client *Client, ri RegionInfo) ([]Result, error) {
			return client.ScanRegionContext(ctx, ri, &Scan{})
		}},
		{"ScanTable", func(ctx context.Context, client *Client, _ RegionInfo) ([]Result, error) {
			return client.ScanTableContext(ctx, "t", &Scan{})
		}},
		{"OpenScanner", func(ctx context.Context, client *Client, _ RegionInfo) ([]Result, error) {
			sc, err := client.OpenScannerContext(ctx, "t", &Scan{}, 10)
			if err != nil {
				return nil, err
			}
			return sc.All()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := bootReplicated(t, 3, 2)
			client := c.NewClient()
			defer client.Close()
			if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := client.Put("t", []Cell{cell("k", "cf", "q", 1, "v")}); err != nil {
				t.Fatal(err)
			}
			ri, err := client.Regions("t")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CrashServer(ri[0].Host); err != nil {
				t.Fatal(err)
			}
			served := func(results []Result) bool {
				return len(results) == 1 && len(results[0].Cells) > 0 && string(results[0].Cells[0].Value) == "v"
			}

			// Strong: the default consistency insists on the primary and fails.
			if _, err := tc.read(context.Background(), client, ri[0]); err == nil {
				t.Fatal("strong read must fail while the primary is down and unrecovered")
			}

			// Timeline: same client, same cache — served by the replica.
			failovers := c.Meter.Get(metrics.ReplicaFailovers)
			tctx := WithConsistency(context.Background(), ConsistencyTimeline)
			results, err := tc.read(tctx, client, ri[0])
			if err != nil {
				t.Fatalf("timeline read failed across crash: %v", err)
			}
			if !served(results) {
				t.Fatalf("timeline read lost data: %+v", results)
			}
			if got := c.Meter.Get(metrics.ReplicaFailovers); got <= failovers {
				t.Fatalf("client.replica_failovers = %d, want > %d", got, failovers)
			}
			if got := c.Meter.Get(metrics.ReplicaReads); got < 1 {
				t.Fatalf("hbase.replica_reads = %d, want >= 1", got)
			}

			// Recovery: the master promotes the replica and strong reads resume.
			if _, err := c.Master.CheckServers(); err != nil {
				t.Fatal(err)
			}
			results, err = tc.read(context.Background(), client, ri[0])
			if err != nil {
				t.Fatal(err)
			}
			if !served(results) {
				t.Fatalf("post-promotion strong read = %+v", results)
			}
			if got := c.Meter.Get(metrics.Promotions); got < 1 {
				t.Fatalf("promotions = %d, want >= 1", got)
			}
		})
	}
}

// TestTimelineStaleReadsCarryBound holds a replica's apply loop so it lags,
// severs the primary, and checks the replica's answer is explicitly stale
// with a growing bound — and converges once the hold lifts.
func TestTimelineStaleReadsCarryBound(t *testing.T) {
	c := bootReplicated(t, 2, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("old", "cf", "q", 1, "v1")}); err != nil {
		t.Fatal(err)
	}
	ri, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	rep := findCopy(c, ri[0].ID, 1)
	rep.HoldApply(true)
	if err := client.Put("t", []Cell{cell("late", "cf", "q", 1, "v2")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	if err := c.CrashServer(ri[0].Host); err != nil {
		t.Fatal(err)
	}

	tctx := WithConsistency(context.Background(), ConsistencyTimeline)
	results, freshness, err := client.BulkGetFresh(tctx, "t", [][]byte{[]byte("late")}, nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 && len(results[0].Cells) != 0 {
		t.Fatal("held replica cannot have applied the late write yet")
	}
	if !freshness.Stale || freshness.BoundMs < 1 {
		t.Fatalf("lagging replica read: Stale=%v BoundMs=%d, want stale with bound >= 1ms", freshness.Stale, freshness.BoundMs)
	}
	if bound := rep.StalenessBound(); bound <= 0 {
		t.Fatalf("StalenessBound = %v, want > 0 while lagging", bound)
	}

	rep.HoldApply(false)
	results, freshness, err = client.BulkGetFresh(tctx, "t", [][]byte{[]byte("late")}, nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || string(results[0].Cells[0].Value) != "v2" {
		t.Fatalf("caught-up replica missing the late write: %+v", results)
	}
	if !freshness.Stale {
		t.Fatal("replica-served read stays tagged stale even at parity")
	}
}
