package hbase

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// errAbort simulates the master dying at a chosen stage of the split
// transaction: the stage hook returns it, SplitRegion aborts right there, and
// the journal plus whatever partial state the stages built are left behind
// for recovery to settle.
var errAbort = errors.New("injected master death")

func seedSplitTable(t *testing.T, c *Cluster) (*Client, []Result, string) {
	t.Helper()
	client := c.NewClient()
	t.Cleanup(client.Close)
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 30; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, fmt.Sprintf("v%03d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	baseline, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 {
		t.Fatalf("seed regions = %d, want 1", len(regions))
	}
	return client, baseline, regions[0].ID
}

// TestSplitAbortRollsBackViaJanitor aborts the split transaction at each
// pre-meta-swap stage and lets the next janitor pass settle it: the orphan
// journal rolls back, the parent serves reads and writes again (its fence
// adopted away), and the data is byte-identical to before the attempt.
func TestSplitAbortRollsBackViaJanitor(t *testing.T) {
	for _, stage := range []string{"journaled", "split", "daughters-added"} {
		t.Run(stage, func(t *testing.T) {
			c := bootCluster(t, 2)
			client, baseline, parent := seedSplitTable(t, c)

			c.Master.SetStageHook(func(s string) error {
				if s == stage {
					return errAbort
				}
				return nil
			})
			if err := c.Master.SplitRegion("t", parent); !errors.Is(err, errAbort) {
				t.Fatalf("aborted split returned %v", err)
			}
			c.Master.SetStageHook(nil)

			// The janitor finds the orphan journal and rolls the split back.
			c.Master.JanitorPass()
			if got := c.Meter.Get(metrics.SplitsRolledBack); got != 1 {
				t.Fatalf("splits rolled back = %d, want 1", got)
			}
			client.InvalidateRegions("t")
			regions, err := client.Regions("t")
			if err != nil {
				t.Fatal(err)
			}
			if len(regions) != 1 || regions[0].ID != parent {
				t.Fatalf("regions after rollback = %v, want just %s", regions, parent)
			}
			after, err := client.ScanTable("t", &Scan{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, after) {
				t.Fatalf("rollback lost or duplicated rows: %d vs %d", len(after), len(baseline))
			}
			// The parent's fence was adopted away: writes land again.
			if err := client.Put("t", []Cell{cell("row-999", "cf", "q", 2, "after")}); err != nil {
				t.Fatalf("write after rollback: %v", err)
			}
			// The journal is gone: another pass settles nothing new.
			c.Master.JanitorPass()
			if got := c.Meter.Get(metrics.SplitsRolledBack); got != 1 {
				t.Errorf("second pass rolled back again (%d)", got)
			}
		})
	}
}

// TestSplitAbortRollsBackAfterMasterFailover aborts after the daughters were
// cut (parent fenced) but before they were hosted, then kills the master. The
// standby rebuilds meta from the servers — which only hold the parent — finds
// the journal, and must roll back: un-fence the parent, drop the orphan
// daughters, and serve the exact pre-split data.
func TestSplitAbortRollsBackAfterMasterFailover(t *testing.T) {
	c := bootCluster(t, 2)
	client, baseline, parent := seedSplitTable(t, c)

	c.Master.SetStageHook(func(s string) error {
		if s == "split" {
			return errAbort
		}
		return nil
	})
	if err := c.Master.SplitRegion("t", parent); !errors.Is(err, errAbort) {
		t.Fatalf("aborted split returned %v", err)
	}

	// The master dies; a standby wins the election and recovers.
	c.Master.Resign()
	if err := c.Net.SetDown(c.Master.Host(), true); err != nil {
		t.Fatal(err)
	}
	standby, err := NewMaster("test-master-2", c.Net, c.ZK, StoreConfig{}, c.Meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.RecoverFrom(c.Servers); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.SplitsRolledBack); got != 1 {
		t.Fatalf("splits rolled back = %d, want 1", got)
	}
	client.InvalidateRegions("t")
	after, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, after) {
		t.Fatalf("post-failover rollback lost or duplicated rows: %d vs %d", len(after), len(baseline))
	}
	if err := client.Put("t", []Cell{cell("row-998", "cf", "q", 2, "after")}); err != nil {
		t.Fatalf("write after failover rollback: %v", err)
	}
}

// TestSplitAbortRollsForwardAfterMasterFailover aborts after the meta swap —
// the daughters are hosted and in meta, only replica top-up and journal
// retirement remain — then kills the master. The standby recovers both
// daughters from the servers and must roll the split FORWARD: retire the
// journal, keep the daughters, and serve identical data with one more region.
func TestSplitAbortRollsForwardAfterMasterFailover(t *testing.T) {
	c := bootCluster(t, 2)
	client, baseline, parent := seedSplitTable(t, c)

	c.Master.SetStageHook(func(s string) error {
		if s == "meta-updated" {
			return errAbort
		}
		return nil
	})
	if err := c.Master.SplitRegion("t", parent); !errors.Is(err, errAbort) {
		t.Fatalf("aborted split returned %v", err)
	}

	c.Master.Resign()
	if err := c.Net.SetDown(c.Master.Host(), true); err != nil {
		t.Fatal(err)
	}
	standby, err := NewMaster("test-master-2", c.Net, c.ZK, StoreConfig{}, c.Meter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.RecoverFrom(c.Servers); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.SplitsRolledForward); got != 1 {
		t.Fatalf("splits rolled forward = %d, want 1", got)
	}
	client.InvalidateRegions("t")
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions after roll-forward = %d, want 2", len(regions))
	}
	for _, ri := range regions {
		if ri.ID == parent {
			t.Fatalf("parent %s still in meta after roll-forward", parent)
		}
	}
	after, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, after) {
		t.Fatalf("roll-forward lost or duplicated rows: %d vs %d", len(after), len(baseline))
	}
	if err := client.Put("t", []Cell{cell("row-997", "cf", "q", 2, "after")}); err != nil {
		t.Fatalf("write after roll-forward: %v", err)
	}
}

// parentCopies snapshots the secondary copies of region id from m's meta.
func parentCopies(m *Master, table, id string) []*Region {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Region(nil), m.tables[table].replicas[id]...)
}

// attached reports whether rep is still subscribed to a replicator.
func attached(rep *Region) bool {
	if rep.repl == nil {
		return false
	}
	rep.repl.mu.Lock()
	defer rep.repl.mu.Unlock()
	for _, r := range rep.repl.replicas {
		if r == rep {
			return true
		}
	}
	return false
}

// assertParentRetired checks a committed split on a replicated table: both
// daughters carry a full replica set on distinct hosts, no server hosts any
// copy of the parent, none of the parent's secondary copies is still
// attached to a replicator, and neither the split journal nor the parent's
// epoch node survives.
func assertParentRetired(t *testing.T, c *Cluster, m *Master, parent string, copies []*Region) {
	t.Helper()
	regions, err := m.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions after split = %d, want 2", len(regions))
	}
	for _, ri := range regions {
		if ri.ID == parent {
			t.Fatalf("parent %s still in meta", parent)
		}
		hosts := map[string]bool{ri.Host: true}
		for _, h := range ri.ReplicaHosts {
			if h == "" || hosts[h] {
				t.Errorf("daughter %s: replica hosts %v collide with primary %s", ri.ID, ri.ReplicaHosts, ri.Host)
			}
			hosts[h] = true
		}
		if len(hosts) != c.Master.cfg.RegionReplication {
			t.Errorf("daughter %s: %d distinct copies, want %d", ri.ID, len(hosts), c.Master.cfg.RegionReplication)
		}
		if findCopy(c, ri.ID, 1) == nil {
			t.Errorf("daughter %s: replica copy not hosted anywhere", ri.ID)
		}
	}
	for _, rs := range c.Servers {
		for _, info := range rs.RegionInfos() {
			if info.ID == parent {
				t.Errorf("server %s still hosts copy %d of parent %s", rs.Host(), info.Replica, parent)
			}
		}
	}
	if len(copies) == 0 {
		t.Fatal("parent had no secondary copies to retire")
	}
	for _, rep := range copies {
		if attached(rep) {
			t.Errorf("parent copy %d still attached to its replicator", rep.Info().Replica)
		}
	}
	sess := c.ZK.NewSession()
	defer sess.Close()
	for _, node := range []string{zkSplits + "/" + parent, zkEpochRegions + "/" + parent} {
		if ok, _ := sess.Exists(node); ok {
			t.Errorf("znode %s survived the split", node)
		}
	}
}

// TestSplitWithReplicasRetiresParentCopies runs a live split of a region
// with a secondary copy: the commit retires the parent everywhere and both
// daughters bootstrap a full replica set.
func TestSplitWithReplicasRetiresParentCopies(t *testing.T) {
	c := bootReplicated(t, 3, 2)
	client, baseline, parent := seedSplitTable(t, c)
	copies := parentCopies(c.Master, "t", parent)
	if err := c.Master.SplitRegion("t", parent); err != nil {
		t.Fatal(err)
	}
	assertParentRetired(t, c, c.Master, parent, copies)
	client.InvalidateRegions("t")
	after, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, after) {
		t.Fatalf("split lost or duplicated rows: %d vs %d", len(after), len(baseline))
	}
}

// TestSplitAbortRollsForwardWithReplicas is the replicated twin of
// TestSplitAbortRollsForwardAfterMasterFailover. Aborted once the daughters
// are hosted, the standby re-learns the parent, its secondary copy and both
// daughters from the servers, and the roll-forward must retire the parent
// and its copy. Aborted after the meta swap, the parent is already retired
// and the roll-forward only tops up the daughters' replica sets.
func TestSplitAbortRollsForwardWithReplicas(t *testing.T) {
	for _, stage := range []string{"daughters-added", "meta-updated"} {
		t.Run(stage, func(t *testing.T) {
			c := bootReplicated(t, 3, 2)
			client, baseline, parent := seedSplitTable(t, c)
			copies := parentCopies(c.Master, "t", parent)
			c.Master.SetStageHook(func(s string) error {
				if s == stage {
					return errAbort
				}
				return nil
			})
			if err := c.Master.SplitRegion("t", parent); !errors.Is(err, errAbort) {
				t.Fatalf("aborted split returned %v", err)
			}

			c.Master.Resign()
			if err := c.Net.SetDown(c.Master.Host(), true); err != nil {
				t.Fatal(err)
			}
			standby, err := NewMaster("test-master-2", c.Net, c.ZK, StoreConfig{RegionReplication: 2}, c.Meter, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := standby.RecoverFrom(c.Servers); err != nil {
				t.Fatal(err)
			}
			if got := c.Meter.Get(metrics.SplitsRolledForward); got != 1 {
				t.Fatalf("splits rolled forward = %d, want 1", got)
			}
			assertParentRetired(t, c, standby, parent, copies)
			client.InvalidateRegions("t")
			after, err := client.ScanTable("t", &Scan{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(baseline, after) {
				t.Fatalf("roll-forward lost or duplicated rows: %d vs %d", len(after), len(baseline))
			}
		})
	}
}
