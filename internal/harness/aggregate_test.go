package harness

import (
	"reflect"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
)

// pushedAggQuery covers every pushed kind over int32 and float64 columns of
// the whole store_sales table — every region on every server — so float
// sums fold across several regions per run. %s is the table name.
const pushedAggQuery = `SELECT count(*), count(ss_quantity), sum(ss_sales_price), avg(ss_quantity),
	min(ss_sales_price), max(ss_sales_price), min(ss_quantity), max(ss_quantity) FROM %s`

// rowsOnly hides AggregateScan from a relation's partitions, keeping every
// other capability: a query over it takes the unpushed vector path.
type rowsOnly struct{ *core.HBaseRelation }

func (r rowsOnly) BuildScan(cols []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	ps, err := r.PrepareScan(cols, filters, nil)
	if err != nil {
		return nil, nil, err
	}
	return ps.BindScan(filters)
}

// PrepareScan hides the capability from the partitions of every bind too:
// the engine plans its scans through it.
func (r rowsOnly) PrepareScan(cols []string, filters []datasource.Filter, slotted []bool) (datasource.PreparedScan, error) {
	ps, err := r.HBaseRelation.PrepareScan(cols, filters, slotted)
	return rowsOnlyScan{ps}, err
}

type rowsOnlyScan struct{ datasource.PreparedScan }

func (s rowsOnlyScan) BindScan(filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	parts, unhandled, err := s.PreparedScan.BindScan(filters)
	for i, p := range parts {
		parts[i] = rowsPartition{Partition: p, BatchScan: p.(datasource.BatchScan), VectorScan: p.(datasource.VectorScan)}
	}
	return parts, unhandled, err
}

type rowsPartition struct {
	datasource.Partition
	datasource.BatchScan
	datasource.VectorScan
}

// unpushedAggregate registers store_sales with aggregate pushdown hidden
// and returns the query's answer through the unpushed vector path.
func unpushedAggregate(t *testing.T, rig *Rig) []plan.Row {
	t.Helper()
	rel, err := rig.Relation("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	rig.Session.RegisterAs("store_sales_rows", rowsOnly{rel.(*core.HBaseRelation)})
	res, err := rig.Run(strings.Replace(pushedAggQuery, "%s", "store_sales_rows", 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delta[metrics.AggregateOps] != 0 {
		t.Fatal("the hidden relation still pushed its aggregate")
	}
	return res.Rows
}

// checkPushed fails unless res folded on the region servers: aggregate ops
// served and no row page moved.
func checkPushed(t *testing.T, res Result) {
	t.Helper()
	if res.Delta[metrics.AggregateOps] == 0 {
		t.Error("no aggregate op was pushed")
	}
	if n := res.Delta[metrics.FusedPages]; n != 0 {
		t.Errorf("pushed aggregate moved %d row pages", n)
	}
}

// TestPushedAggregateSurvivesServerCrash crashes a region server at its
// first pushed aggregate op. The master reassigns its regions across the
// survivors, so the partition's fold resumes as several runs on two hosts,
// each starting from the partials the previous one returned; another host
// loses one reply after folding, so its run re-folds from the state it was
// sent. The answer must equal the unpushed vector path's byte for byte.
func TestPushedAggregateSurvivesServerCrash(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	want := unpushedAggregate(t, rig)

	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	other := ""
	for _, ri := range regions {
		if ri.Host != victim {
			other = ri.Host
			break
		}
	}
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: victim, Method: hbase.MethodFused, FailNext: 1,
			OnFire: func() {
				if err := rig.Cluster.CrashServer(victim); err != nil {
					t.Errorf("crash %s: %v", victim, err)
				}
				if _, err := rig.Cluster.Master.CheckServers(); err != nil {
					t.Errorf("heartbeat round: %v", err)
				}
			},
		},
		&rpc.FaultRule{Host: other, Method: hbase.MethodFused, FailNext: 1, DropReply: true, Err: rpc.ErrConnClosed},
		&rpc.FaultRule{Method: hbase.MethodFused, SkipFirst: 3, FailProb: 0.05, Err: rpc.ErrConnClosed},
	)
	rig.Cluster.Net.SetFaultInjector(inj)

	got, err := rig.Run(strings.Replace(pushedAggQuery, "%s", "store_sales", 1))
	if err != nil {
		t.Fatalf("pushed aggregate through crash: %v", err)
	}
	if !reflect.DeepEqual(want, got.Rows) {
		t.Fatalf("pushed aggregate after crash differs from the unpushed path:\npushed:   %v\nunpushed: %v", got.Rows, want)
	}
	checkPushed(t, got)
	if inj.Fired() < 2 {
		t.Fatalf("faults fired = %d; the crash and the lost reply did not both happen", inj.Fired())
	}
	if got.Delta[metrics.RegionsReassigned] == 0 {
		t.Error("crash did not reassign any regions")
	}
}

// TestPushedAggregateSurvivesRegionSplit splits a region while the pushed
// aggregate covering it is in flight: the run fails, the pager remaps the
// parent's op onto the daughters by key range, and the fold — restarted
// from the run's starting partials — must equal the unpushed answer.
func TestPushedAggregateSurvivesRegionSplit(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	want := unpushedAggregate(t, rig)

	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	parent := regions[len(regions)/2]
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: parent.Host, Method: hbase.MethodFused, FailNext: 1, Err: rpc.ErrConnClosed,
			OnFire: func() {
				if err := rig.Cluster.Master.SplitRegion("store_sales", parent.ID); err != nil {
					t.Errorf("split %s: %v", parent.ID, err)
				}
			},
		},
		&rpc.FaultRule{Method: hbase.MethodFused, SkipFirst: 3, FailProb: 0.05, Err: rpc.ErrConnClosed},
	)
	rig.Cluster.Net.SetFaultInjector(inj)
	splits := rig.Meter.Get(metrics.RegionSplits)

	got, err := rig.Run(strings.Replace(pushedAggQuery, "%s", "store_sales", 1))
	if err != nil {
		t.Fatalf("pushed aggregate across split: %v", err)
	}
	if !reflect.DeepEqual(want, got.Rows) {
		t.Fatalf("pushed aggregate across split differs from the unpushed path:\npushed:   %v\nunpushed: %v", got.Rows, want)
	}
	checkPushed(t, got)
	if rig.Meter.Get(metrics.RegionSplits) == splits {
		t.Fatal("no region split; the scenario is vacuous")
	}
	after, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(regions)+1 {
		t.Fatalf("regions = %d after the split, want %d", len(after), len(regions)+1)
	}
}

// TestPushedAggregateTimelineFailover kills a primary's host before the
// master can notice: under timeline consistency the pager redirects the
// run to a secondary replica, which folds the same rows, so the answer
// equals the unpushed strong answer.
func TestPushedAggregateTimelineFailover(t *testing.T) {
	rig, err := NewRig(Config{
		System: SHC, Scale: 1, Servers: 3,
		Store: hbase.StoreConfig{RegionReplication: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	want := unpushedAggregate(t, rig)

	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	victim := regions[0].Host
	inj := rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{
			Host: victim, Method: hbase.MethodFused, FailNext: 1,
			OnFire: func() {
				// No heartbeat round: only replica failover can finish.
				if err := rig.Cluster.CrashServer(victim); err != nil {
					t.Errorf("crash %s: %v", victim, err)
				}
			},
		},
	)
	rig.Cluster.Net.SetFaultInjector(inj)
	failovers := rig.Meter.Get(metrics.ReplicaFailovers)
	aggOps := rig.Meter.Get(metrics.AggregateOps)

	got := runTimeline(t, rig, strings.Replace(pushedAggQuery, "%s", "store_sales", 1))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("timeline failover aggregate differs from the unpushed strong answer:\npushed:   %v\nunpushed: %v", got, want)
	}
	if inj.Fired() == 0 {
		t.Fatal("no faults fired")
	}
	if rig.Meter.Get(metrics.ReplicaFailovers) == failovers {
		t.Error("no replica failover; the scenario is vacuous")
	}
	if rig.Meter.Get(metrics.AggregateOps) == aggOps {
		t.Error("no aggregate op was pushed")
	}
	if n := rig.Meter.Get(metrics.RegionsReassigned); n != 0 {
		t.Errorf("reassignments = %d, want 0 (master must not have noticed)", n)
	}
}
