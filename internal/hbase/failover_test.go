package hbase

import (
	"context"
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// TestMasterFailover exercises the paper's §VI-B fault-tolerance story: the
// active master dies, a standby wins the ZooKeeper election, rebuilds meta
// from the region servers, and clients recover transparently.
func TestMasterFailover(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "x"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}

	// Kill the active master: resign leadership and drop off the network.
	c.Master.Resign()
	if err := c.Net.SetDown(c.Master.Host(), true); err != nil {
		t.Fatal(err)
	}

	// A standby master takes over and rebuilds meta from the servers.
	standby, err := NewMaster("test-master-2", c.Net, c.ZK, StoreConfig{}, c.Meter, nil)
	if err != nil {
		t.Fatalf("standby election: %v", err)
	}
	if err := standby.RecoverFrom(c.Servers); err != nil {
		t.Fatal(err)
	}
	// Recovered meta matches: same table, same regions.
	regions, err := standby.TableRegions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("recovered regions = %d", len(regions))
	}
	if tables := standby.Tables(); len(tables) != 1 || tables[0] != "t" {
		t.Errorf("recovered tables = %v", tables)
	}

	// The old client's meta cache points at the dead master; a meta
	// operation must fail over to the new leader transparently.
	client.InvalidateRegions("t")
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatalf("scan after failover: %v", err)
	}
	if len(results) != 20 {
		t.Errorf("rows after failover = %d", len(results))
	}
	// Admin operations keep working: region sequence numbers continue
	// without collisions.
	if err := standby.CreateTable(TableDescriptor{Name: "t2", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	regions2, _ := standby.TableRegions("t2")
	for _, r2 := range regions2 {
		for _, r1 := range regions {
			if r1.ID == r2.ID {
				t.Errorf("region id collision after recovery: %s", r1.ID)
			}
		}
	}
}

// TestRegionServerCrashLosesOnlyMemstore drives the WAL recovery path at
// the server level: a crashed server's regions rebuild from their logs.
func TestRegionServerCrashLosesOnlyMemstore(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 30; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "x"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	// Crash: every region on the server loses its memstore, then recovers
	// from the WAL.
	for _, region := range c.Servers[0].Regions() {
		region.DropMemStore()
		if err := region.RecoverFromWAL(); err != nil {
			t.Fatal(err)
		}
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Errorf("rows after WAL recovery = %d", len(results))
	}
}

// TestQueryFailsCleanlyWhenRegionServerDown injects a downed region server
// and verifies errors surface instead of partial results.
func TestQueryFailsCleanlyWhenRegionServerDown(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("a", "cf", "q", 1, "x"), cell("z", "cf", "q", 1, "y")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Net.SetDown(c.Servers[0].Host(), true); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ScanTable("t", &Scan{}); err == nil {
		t.Fatal("scan spanning a downed server must fail")
	}
	// Recovery: server returns, scan succeeds.
	if err := c.Net.SetDown(c.Servers[0].Host(), false); err != nil {
		t.Fatal(err)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != 2 {
		t.Errorf("scan after recovery = %d rows, %v", len(results), err)
	}
}

func TestConcurrentClientsOnOneCluster(t *testing.T) {
	c := bootCluster(t, 3)
	setup := c.NewClient()
	defer setup.Close()
	if err := setup.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("h"), []byte("p")}); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			client := c.NewClient()
			defer client.Close()
			var cells []Cell
			for i := 0; i < 25; i++ {
				cells = append(cells, cell(fmt.Sprintf("%c%02d-%d", 'a'+i, i, w), "cf", "q", int64(w+1), "v"))
			}
			if err := client.Put("t", cells); err != nil {
				errCh <- err
				return
			}
			if _, err := client.ScanTable("t", &Scan{}); err != nil {
				errCh <- err
				return
			}
			errCh <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	final := c.NewClient()
	defer final.Close()
	results, err := final.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8*25 {
		t.Errorf("rows = %d, want 200", len(results))
	}
	if got := c.Meter.Get(metrics.RowsReturned); got == 0 {
		t.Error("metering lost under concurrency")
	}
}

// TestStaleMetaRetryAfterRegionMove verifies the client recovers from a
// balancer move without manual cache invalidation.
func TestStaleMetaRetryAfterRegionMove(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("a", "cf", "q", 1, "x")}); err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then move every region to the other server.
	if _, err := client.Regions("t"); err != nil {
		t.Fatal(err)
	}
	for _, rs := range c.Servers {
		for _, info := range rs.RegionInfos() {
			region := rs.RemoveRegion(info.ID)
			for _, other := range c.Servers {
				if other.Host() != rs.Host() {
					other.AddRegion(region)
					break
				}
			}
		}
	}
	// The stale cache points at the old hosts; operations must recover.
	if err := client.Put("t", []Cell{cell("b", "cf", "q", 1, "y")}); err != nil {
		t.Fatalf("Put after move: %v", err)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatalf("Scan after move: %v", err)
	}
	if len(results) != 2 {
		t.Errorf("rows = %d", len(results))
	}
	if _, err := client.BulkGetContext(context.Background(), "t", [][]byte{[]byte("a")}, nil, 1, TimeRange{}); err != nil {
		t.Fatalf("BulkGet after move: %v", err)
	}
}

// TestStaleMetaRetryAfterSplit covers the split path: the cached single
// region is gone, replaced by two daughters.
func TestStaleMetaRetryAfterSplit(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 40; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "x"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	regions, _ := client.Regions("t") // warm cache
	if err := c.Master.SplitRegion("t", regions[0].ID); err != nil {
		t.Fatal(err)
	}
	// No InvalidateRegions call: the retry discovers the daughters.
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatalf("scan after split: %v", err)
	}
	if len(results) != 40 {
		t.Errorf("rows = %d", len(results))
	}
	if err := client.Put("t", []Cell{cell("row-99", "cf", "q", 1, "y")}); err != nil {
		t.Fatalf("put after split: %v", err)
	}
}
