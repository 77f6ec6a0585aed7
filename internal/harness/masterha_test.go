package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
)

// errMasterDeath simulates the active master dying at a chosen stage of a
// coordination transaction (split, drain): the stage hook returns it, the
// operation aborts right there, and the cluster is crashed before any
// cleanup can run — the journal and partial state are the next master's
// problem.
var errMasterDeath = errors.New("injected master death")

// haRig boots a rig with hot standby masters, duty loops on a tight
// interval, and a retry budget generous enough to ride out a takeover.
func haRig(t *testing.T, servers, masters int, store hbase.StoreConfig) *Rig {
	t.Helper()
	rig, err := NewRig(Config{
		System: SHC, Servers: servers, Masters: masters, SkipLoad: true,
		Heartbeat: 2 * time.Millisecond,
		Store:     store,
		Retry:     hbase.RetryPolicy{MaxAttempts: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	return rig
}

// awaitNewMaster polls until a master other than old leads.
func awaitNewMaster(t *testing.T, rig *Rig, old *hbase.Master) *hbase.Master {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := rig.Cluster.ActiveMaster(); m != old {
			return m
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no standby took over")
	return nil
}

// awaitEvent polls until the journal holds at least one event of type et.
func awaitEvent(t *testing.T, rig *Rig, et ops.EventType) ops.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if evs := rig.Journal().Find(et); len(evs) > 0 {
			return evs[0]
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("journal never recorded %s", et)
	return ops.Event{}
}

// seedHATable creates a pre-split table and loads rows row-000..row-(n-1).
func seedHATable(t *testing.T, rig *Rig, name string, n int) [][]byte {
	t.Helper()
	splits := [][]byte{[]byte("row-" + fmt.Sprintf("%03d", n/3)), []byte("row-" + fmt.Sprintf("%03d", 2*n/3))}
	if err := rig.Client.CreateTable(hbase.TableDescriptor{Name: name, Families: []string{"cf"}}, splits); err != nil {
		t.Fatal(err)
	}
	var cells []hbase.Cell
	var rows [][]byte
	for i := 0; i < n; i++ {
		row := []byte(fmt.Sprintf("row-%03d", i))
		rows = append(rows, row)
		cells = append(cells, hbase.Cell{
			Row: row, Family: "cf", Qualifier: "q",
			Timestamp: 1, Type: hbase.TypePut, Value: []byte(fmt.Sprintf("v-%03d", i)),
		})
	}
	if err := rig.Client.Put(name, cells); err != nil {
		t.Fatal(err)
	}
	return rows
}

// haIngest streams cells into the table from a background goroutine through
// a BufferedMutator until stopped. Every mutation accepted (and the final
// Close) without error is acked — the durability contract the gate audits.
type haIngest struct {
	stop     chan struct{}
	done     chan struct{}
	accepted int
	err      error
}

func startHAIngest(rig *Rig, table, prefix string) *haIngest {
	ing := &haIngest{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ing.done)
		ctx := context.Background()
		mut := rig.Client.NewMutator(table, hbase.MutatorConfig{
			FlushBytes: 256, MaxAttempts: 40,
		})
		for i := 0; ; i++ {
			select {
			case <-ing.stop:
				if err := mut.Close(ctx); err != nil {
					ing.err = fmt.Errorf("close: %w", err)
				}
				return
			default:
			}
			c := hbase.Cell{
				Row: []byte(fmt.Sprintf("%s-%04d", prefix, i)), Family: "cf", Qualifier: "q",
				Timestamp: 1, Type: hbase.TypePut, Value: []byte(fmt.Sprintf("w-%04d", i)),
			}
			if err := mut.Mutate(ctx, c); err != nil {
				ing.err = fmt.Errorf("mutate %d: %w", i, err)
				_ = mut.Close(ctx)
				return
			}
			ing.accepted++
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return ing
}

// finish stops the writer and returns how many rows were acked.
func (ing *haIngest) finish(t *testing.T) int {
	t.Helper()
	close(ing.stop)
	<-ing.done
	if ing.err != nil {
		t.Fatalf("ingest writer: %v", ing.err)
	}
	return ing.accepted
}

// TestMasterFailoverAvailabilityGate is the PR's acceptance gate. With two
// hot standbys, the active master is crashed in the middle of a split
// transaction while point reads and buffered ingest run against the table.
// The bar:
//
//   - zero query errors across the failover (the client rides it out on
//     retries and master re-discovery);
//   - zero lost acked writes;
//   - takeover is automatic — the test never elects, recovers, or prods;
//   - the orphaned split journal is settled by the new master, with the
//     journal chain MasterElected → SplitRolledBack carrying the causal link;
//   - the revived zombie master's coordination writes die un-acked with
//     ErrMasterFenced, metered as master.fenced_writes.
func TestMasterFailoverAvailabilityGate(t *testing.T) {
	rig := haRig(t, 3, 3, hbase.StoreConfig{})
	rows := seedHATable(t, rig, "ha", 60)

	regions, err := rig.Client.Regions("ha")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("seed regions = %d, want 3", len(regions))
	}
	parent := regions[0].ID

	// Live load: strong point reads over seeded rows + a buffered writer
	// streaming fresh rows (keyed into the region about to split).
	probe := rig.StartReadProbe("ha", rows[:6], hbase.ConsistencyStrong, time.Millisecond)
	ingest := startHAIngest(rig, "ha", "mut")

	// The split aborts after the daughters were cut but before any server
	// hosts them — recovery re-learns only the fenced parent and must roll
	// BACK — and the master dies on the spot, orphaning the split journal.
	boot := rig.Cluster.ActiveMaster()
	boot.SetStageHook(func(stage string) error {
		if stage == "split" {
			return errMasterDeath
		}
		return nil
	})
	if err := boot.SplitRegion("ha", parent); !errors.Is(err, errMasterDeath) {
		t.Fatalf("aborted split returned %v", err)
	}
	zombie, err := rig.Cluster.CrashMaster()
	if err != nil {
		t.Fatal(err)
	}

	// From here everything is the cluster's own doing: watch fires, a
	// standby wins, recovers, settles the split, re-arms duties.
	nm := awaitNewMaster(t, rig, zombie)
	failover := awaitEvent(t, rig, ops.EventMasterFailover)

	// Let the load run on the new regime for a beat before auditing.
	time.Sleep(20 * time.Millisecond)
	accepted := ingest.finish(t)
	report := probe.Stop()

	// Zero query errors: every read attempt across abort, crash, masterless
	// window, and takeover succeeded (within the client's own retries).
	if report.Errors != 0 {
		t.Errorf("query errors across failover = %d of %d reads, want 0", report.Errors, report.Reads)
	}
	if report.Reads == 0 {
		t.Error("probe never read; the gate was vacuous")
	}
	if accepted == 0 {
		t.Error("ingest never acked a row; the gate was vacuous")
	}

	// Zero lost acked writes: every row the mutator acked is in the table.
	rig.Client.InvalidateRegions("ha")
	got, err := rig.Client.ScanTable("ha", &hbase.Scan{StartRow: []byte("mut-"), StopRow: []byte("mut-~")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != accepted {
		t.Errorf("ingested rows after failover = %d, want %d acked", len(got), accepted)
	}
	seeded, err := rig.Client.ScanTable("ha", &hbase.Scan{StartRow: []byte("row-"), StopRow: []byte("row-~")})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) != len(rows) {
		t.Errorf("seeded rows after failover = %d, want %d", len(seeded), len(rows))
	}

	// The causal chain: MasterElected → SplitRolledBack, and the failover
	// event closing the takeover points back at the election.
	elected := rig.Journal().Find(ops.EventMasterElected)
	if len(elected) != 1 {
		t.Fatalf("MasterElected events = %d, want 1", len(elected))
	}
	if failover.Cause != elected[0].Seq {
		t.Errorf("MasterFailover.Cause = %d, want MasterElected seq %d", failover.Cause, elected[0].Seq)
	}
	rolled := rig.Journal().Find(ops.EventSplitRolledBack)
	if len(rolled) != 1 {
		t.Fatalf("SplitRolledBack events = %d, want 1", len(rolled))
	}
	if rolled[0].Cause != elected[0].Seq {
		t.Errorf("SplitRolledBack.Cause = %d, want MasterElected seq %d", rolled[0].Cause, elected[0].Seq)
	}
	if rolled[0].Region != parent {
		t.Errorf("SplitRolledBack.Region = %s, want %s", rolled[0].Region, parent)
	}
	if got := rig.Meter.Get(metrics.MasterTakeovers); got != 1 {
		t.Errorf("master.takeovers = %d, want 1", got)
	}

	// The zombie revives from its GC pause and tries to govern: every
	// coordination write must die un-acked.
	if err := rig.Cluster.Net.SetDown(zombie.Host(), false); err != nil {
		t.Fatal(err)
	}
	fencedBefore := rig.Meter.Get(metrics.MasterFencedWrites)
	if err := zombie.SplitRegion("ha", parent); !errors.Is(err, hbase.ErrMasterFenced) {
		t.Errorf("zombie SplitRegion err = %v, want ErrMasterFenced", err)
	}
	if _, err := zombie.CheckServers(); !errors.Is(err, hbase.ErrMasterFenced) {
		t.Errorf("zombie CheckServers err = %v, want ErrMasterFenced", err)
	}
	if got := rig.Meter.Get(metrics.MasterFencedWrites); got <= fencedBefore {
		t.Errorf("master.fenced_writes = %d, want > %d", got, fencedBefore)
	}
	// And the fenced attempts changed nothing the new master governs.
	if _, err := nm.CheckServers(); err != nil {
		t.Errorf("real leader heartbeat round after zombie attempts: %v", err)
	}
}

// TestMasterKillMidSplitRollForwardTakeover is the roll-FORWARD twin of the
// gate: the master dies after the meta swap (daughters hosted and in meta),
// so the new master must keep the daughters, retire the journal, and link
// SplitRolledForward to its own election.
func TestMasterKillMidSplitRollForwardTakeover(t *testing.T) {
	rig := haRig(t, 3, 2, hbase.StoreConfig{})
	rows := seedHATable(t, rig, "fw", 30)

	regions, err := rig.Client.Regions("fw")
	if err != nil {
		t.Fatal(err)
	}
	parent := regions[0].ID
	boot := rig.Cluster.ActiveMaster()
	boot.SetStageHook(func(stage string) error {
		if stage == "meta-updated" {
			return errMasterDeath
		}
		return nil
	})
	if err := boot.SplitRegion("fw", parent); !errors.Is(err, errMasterDeath) {
		t.Fatalf("aborted split returned %v", err)
	}
	zombie, err := rig.Cluster.CrashMaster()
	if err != nil {
		t.Fatal(err)
	}
	awaitNewMaster(t, rig, zombie)
	awaitEvent(t, rig, ops.EventMasterFailover)

	elected := rig.Journal().Find(ops.EventMasterElected)
	forward := rig.Journal().Find(ops.EventSplitRolledForward)
	if len(elected) != 1 || len(forward) != 1 {
		t.Fatalf("elected=%d forward=%d events, want 1 each", len(elected), len(forward))
	}
	if forward[0].Cause != elected[0].Seq {
		t.Errorf("SplitRolledForward.Cause = %d, want %d", forward[0].Cause, elected[0].Seq)
	}
	rig.Client.InvalidateRegions("fw")
	after, err := rig.Client.Regions("fw")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(regions)+1 {
		t.Errorf("regions after roll-forward = %d, want %d", len(after), len(regions)+1)
	}
	got, err := rig.Client.ScanTable("fw", &hbase.Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("rows after roll-forward = %d, want %d", len(got), len(rows))
	}
}

// TestMasterKillMidDrainTakeover kills the master between a drain's roster
// deregistration and the region moves: the victim server is off the roster
// but still hosts everything. The new master re-learns it from the servers
// themselves, so no region (and no row) is lost and the cluster keeps
// accepting writes.
func TestMasterKillMidDrainTakeover(t *testing.T) {
	rig := haRig(t, 3, 2, hbase.StoreConfig{})
	rows := seedHATable(t, rig, "dr", 30)

	probe := rig.StartReadProbe("dr", rows[:6], hbase.ConsistencyStrong, time.Millisecond)

	boot := rig.Cluster.ActiveMaster()
	var once sync.Once
	boot.SetStageHook(func(stage string) error {
		var err error
		if stage == "move" {
			once.Do(func() { err = errMasterDeath })
		}
		return err
	})
	victim := rig.Cluster.Servers[0].Host()
	if err := boot.DrainServer(victim); !errors.Is(err, errMasterDeath) {
		t.Fatalf("aborted drain returned %v", err)
	}
	zombie, err := rig.Cluster.CrashMaster()
	if err != nil {
		t.Fatal(err)
	}
	nm := awaitNewMaster(t, rig, zombie)
	awaitEvent(t, rig, ops.EventMasterFailover)
	time.Sleep(10 * time.Millisecond)

	report := probe.Stop()
	if report.Errors != 0 {
		t.Errorf("query errors across mid-drain failover = %d of %d reads, want 0", report.Errors, report.Reads)
	}
	// The half-drained server is back on the roster: a heartbeat round from
	// the new master declares nobody dead.
	dead, err := nm.CheckServers()
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) != 0 {
		t.Errorf("heartbeat after takeover declared %v dead, want none", dead)
	}
	rig.Client.InvalidateRegions("dr")
	got, err := rig.Client.ScanTable("dr", &hbase.Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("rows after mid-drain failover = %d, want %d", len(got), len(rows))
	}
	if err := rig.Client.Put("dr", []hbase.Cell{{
		Row: []byte("row-999"), Family: "cf", Qualifier: "q",
		Timestamp: 2, Type: hbase.TypePut, Value: []byte("after"),
	}}); err != nil {
		t.Errorf("write after mid-drain failover: %v", err)
	}
}

// TestMasterKillMidPromotionTakeover crashes a region server and the master
// back-to-back, before any heartbeat round could promote the dead server's
// replicas. The new master re-learns only secondary copies for those regions
// and must settle the orphaned promotion itself during recovery — journaled
// as ReplicaPromoted caused by its own election.
func TestMasterKillMidPromotionTakeover(t *testing.T) {
	// No heartbeat loop: nothing may notice the server crash before the
	// master dies — the orphaned promotion must be settled by recovery
	// alone, which keeps the scenario deterministic.
	rig, err := NewRig(Config{
		System: SHC, Servers: 3, Masters: 2, SkipLoad: true,
		Store: hbase.StoreConfig{RegionReplication: 2},
		Retry: hbase.RetryPolicy{MaxAttempts: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rig.Close)
	rows := seedHATable(t, rig, "pr", 30)

	regions, err := rig.Client.Regions("pr")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	if err := rig.Cluster.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	zombie, err := rig.Cluster.CrashMaster()
	if err != nil {
		t.Fatal(err)
	}
	awaitNewMaster(t, rig, zombie)
	awaitEvent(t, rig, ops.EventMasterFailover)

	elected := rig.Journal().Find(ops.EventMasterElected)
	if len(elected) != 1 {
		t.Fatalf("MasterElected events = %d, want 1", len(elected))
	}
	var promoted []ops.Event
	for _, ev := range rig.Journal().Find(ops.EventReplicaPromoted) {
		if ev.Cause == elected[0].Seq {
			promoted = append(promoted, ev)
		}
	}
	if len(promoted) == 0 {
		t.Error("no ReplicaPromoted event caused by the takeover's election")
	}
	// Strong reads see every row: the promoted copies serve where the dead
	// primaries were, with no WAL replay and no master hand-holding.
	rig.Client.InvalidateRegions("pr")
	got, err := rig.Client.ScanTable("pr", &hbase.Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Errorf("rows after mid-promotion failover = %d, want %d", len(got), len(rows))
	}
}
