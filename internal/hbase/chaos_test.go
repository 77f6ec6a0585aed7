package hbase

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// TestReassignmentReplaysWALWithTombstones is the end-to-end WAL recovery
// path: rows (including a delete tombstone) sit only in a server's MemStore
// and WAL, the server crashes before any flush, the master's heartbeat round
// detects the death and reassigns its regions to a survivor, and a full scan
// afterwards returns exactly what it returned before the crash.
func TestReassignmentReplaysWALWithTombstones(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 26; i++ {
		cells = append(cells, cell(fmt.Sprintf("%c-row", 'a'+i), "cf", "q", 1, fmt.Sprintf("v%02d", i)))
	}
	// A tombstone over one early row: WAL replay must restore deletes too,
	// or the dead row resurrects on the reassigned server.
	cells = append(cells, tomb("c-row", "cf", "q", 2))
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	before, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 25 {
		t.Fatalf("baseline rows = %d, want 25 (tombstone hides one)", len(before))
	}

	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	if err := c.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	dead, err := c.Master.CheckServers()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead = %v, want [%s]", dead, victim)
	}
	if got := c.Meter.Get(metrics.RegionsReassigned); got == 0 {
		t.Error("no regions reassigned")
	}
	if got := c.Meter.Get(metrics.WALEntriesReplayed); got == 0 {
		t.Error("no WAL entries replayed")
	}
	// Every region is now hosted by the survivor.
	for _, rs := range c.Servers {
		if rs.Host() != victim && rs.RegionCount() != 2 {
			t.Errorf("survivor %s hosts %d regions, want 2", rs.Host(), rs.RegionCount())
		}
	}

	// The client's meta cache still points at the dead host; retries refresh
	// it. Results must be byte-identical to the pre-crash scan.
	after, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatalf("scan after reassignment: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("scan after reassignment differs:\nbefore %v\nafter  %v", before, after)
	}
	if got := c.Meter.Get(metrics.ClientRetries); got == 0 {
		t.Error("recovery should have metered client retries")
	}
}

// TestScannerResumesMidScanAfterCrash kills the server being scanned between
// two pages of a paged Scanner; the cursor-carrying resume must land on the
// reassigned server with no rows duplicated or dropped.
func TestScannerResumesMidScanAfterCrash(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("row-20")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 40; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, fmt.Sprintf("v%02d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	baseline, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}

	sc, err := client.OpenScanner("t", &Scan{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(page1) != 7 {
		t.Fatalf("page 1 = %d rows", len(page1))
	}

	// Crash the host serving the scanner's current region, then let the
	// master reassign before the next page is requested.
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashServer(regions[0].Host); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.CheckServers(); err != nil {
		t.Fatal(err)
	}

	got := append([]Result(nil), page1...)
	for {
		page, err := sc.Next()
		if err != nil {
			t.Fatalf("resumed scan: %v", err)
		}
		if page == nil {
			break
		}
		got = append(got, page...)
	}
	if !reflect.DeepEqual(baseline, got) {
		t.Fatalf("resumed scan differs: %d rows, want %d", len(got), len(baseline))
	}
	if c.Meter.Get(metrics.ClientRetries) == 0 {
		t.Error("resume should have metered a client retry")
	}
}

// TestHeartbeatDeathThreshold verifies lease semantics: a server is declared
// dead only after missing the configured number of consecutive heartbeat
// rounds, and an intervening successful round resets the count.
func TestHeartbeatDeathThreshold(t *testing.T) {
	c := bootCluster(t, 2)
	c.Master.SetDeathThreshold(2)
	host := c.Servers[0].Host()

	// One missed round: still leased.
	if err := c.Net.SetDown(host, true); err != nil {
		t.Fatal(err)
	}
	if dead, _ := c.Master.CheckServers(); len(dead) != 0 {
		t.Fatalf("dead after 1 missed round = %v", dead)
	}
	// Recovery before the lease expires resets the count.
	if err := c.Net.SetDown(host, false); err != nil {
		t.Fatal(err)
	}
	if dead, _ := c.Master.CheckServers(); len(dead) != 0 {
		t.Fatalf("dead after recovery = %v", dead)
	}
	// Two consecutive misses expire the lease.
	if err := c.Net.SetDown(host, true); err != nil {
		t.Fatal(err)
	}
	if dead, _ := c.Master.CheckServers(); len(dead) != 0 {
		t.Fatal("death after reset must take two rounds again")
	}
	dead, err := c.Master.CheckServers()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 1 || dead[0] != host {
		t.Fatalf("dead = %v, want [%s]", dead, host)
	}
	if got := c.Meter.Get(metrics.ServersDeclaredDead); got != 1 {
		t.Errorf("servers declared dead = %d", got)
	}
	if got := c.Meter.Get(metrics.Heartbeats); got == 0 {
		t.Error("successful pings must meter heartbeats")
	}
}

// TestWritesRecoverThroughReassignment exercises the write-path retry: after
// a crash and reassignment, Put and BulkGet on a client with a stale meta
// cache succeed against the region's new home.
func TestWritesRecoverThroughReassignment(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("a", "cf", "q", 1, "x"), cell("z", "cf", "q", 1, "y")}); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t") // warm the cache
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CrashServer(regions[0].Host); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.CheckServers(); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("b", "cf", "q", 2, "w")}); err != nil {
		t.Fatalf("Put after reassignment: %v", err)
	}
	results, err := client.BulkGetContext(context.Background(), "t", [][]byte{[]byte("a"), []byte("b"), []byte("z")}, nil, 1, TimeRange{})
	if err != nil {
		t.Fatalf("BulkGet after reassignment: %v", err)
	}
	if len(results) != 3 {
		t.Errorf("BulkGet rows = %d, want 3", len(results))
	}
}

// TestReassignmentFailsWithNoSurvivors: killing the only region server has
// nowhere to move regions; CheckServers must surface the error rather than
// silently dropping the table.
func TestReassignmentFailsWithNoSurvivors(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashServer(c.Servers[0].Host()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.CheckServers(); err == nil {
		t.Fatal("reassignment with no survivors must error")
	}
}
