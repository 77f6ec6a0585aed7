package harness

import (
	"reflect"
	"testing"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// vectorQueries exercises the shapes the columnar path accelerates: a fused
// global aggregation (folded on the region servers), a residual filter with
// projection, and a query that falls back to row-at-a-time output ordering
// via LIMIT.
var vectorQueries = []string{
	`SELECT count(1), sum(ss_quantity), min(ss_item_sk), max(ss_item_sk) FROM store_sales`,
	`SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10`,
	`SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 5 LIMIT 40`,
}

// TestVectorizedMatchesRowPathEndToEnd runs the same queries through two
// identically-seeded rigs — one vectorized, one forced onto the row path —
// and requires byte-identical results, proving the ablation switch toggles
// only the execution model, never the answer. The global aggregation has no
// residual predicate, so the vectorized rig pushes it into the fused region
// op: no row page moves at all, only partials.
func TestVectorizedMatchesRowPathEndToEnd(t *testing.T) {
	vecRig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer vecRig.Close()
	rowRig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3, DisableVectorization: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rowRig.Close()

	for i, q := range vectorQueries {
		vec, err := vecRig.Run(q)
		if err != nil {
			t.Fatalf("vectorized %q: %v", q, err)
		}
		row, err := rowRig.Run(q)
		if err != nil {
			t.Fatalf("row path %q: %v", q, err)
		}
		if len(vec.Rows) == 0 {
			t.Fatalf("%q returned no rows; comparison is vacuous", q)
		}
		if !reflect.DeepEqual(vec.Rows, row.Rows) {
			t.Fatalf("%q: vectorized and row results differ (%d vs %d rows)", q, len(vec.Rows), len(row.Rows))
		}
		if i == 0 {
			if n := vec.Delta[metrics.FusedPages]; n != 0 {
				t.Errorf("%q: vectorized rig moved %d fused row pages, want 0 (aggregate pushed)", q, n)
			}
			if vec.Delta[metrics.AggregateOps] == 0 {
				t.Errorf("%q: vectorized rig served no pushed aggregate op", q)
			}
		} else if vec.Delta[metrics.ColumnarPages] == 0 {
			t.Errorf("%q: vectorized rig moved no column-major pages", q)
		}
		if row.Delta[metrics.ColumnarPages] != 0 {
			t.Errorf("%q: DisableVectorization rig still moved columnar pages", q)
		}
	}
}

// TestVectorizedScanSurvivesServerCrash is the columnar twin of the
// streaming chaos tentpole: a vectorized multi-region scan loses its region
// server at an exact fused page, recovery reassigns the regions, and the
// resumed columnar scan must match a row-path run on an undisturbed rig
// byte for byte — failover identity and cross-path identity in one shot.
func TestVectorizedScanSurvivesServerCrash(t *testing.T) {
	const q = `SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10`

	base, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3, DisableVectorization: true})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("baseline returned no rows; the chaos run would be vacuous")
	}

	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
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
				if err := rig.Cluster.CrashServer(victim); err != nil {
					t.Errorf("crash %s: %v", victim, err)
				}
				if _, err := rig.Cluster.Master.CheckServers(); err != nil {
					t.Errorf("heartbeat round: %v", err)
				}
			},
		},
		&rpc.FaultRule{Method: hbase.MethodFused, SkipFirst: 3, FailProb: 0.03, Err: rpc.ErrConnClosed},
	)
	rig.Cluster.Net.SetFaultInjector(inj)

	got, err := rig.Run(q)
	if err != nil {
		t.Fatalf("vectorized query through crash: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("vectorized chaos run differs from row-path baseline: %d rows vs %d", len(got.Rows), len(want.Rows))
	}
	if inj.Fired() == 0 {
		t.Fatal("no faults fired; the scenario did not exercise recovery")
	}
	if got.Delta[metrics.ColumnarPages] == 0 {
		t.Error("recovered scan moved no column-major pages; the vector path never engaged")
	}
	if got.Delta[metrics.RegionsReassigned] == 0 {
		t.Error("crash did not reassign any regions")
	}
}

// TestVectorizedScanSurvivesDrain covers planned movement: a graceful drain
// relocates every region of one server while vectorized queries run before
// and after; results must match the pre-drain answer exactly.
func TestVectorizedScanSurvivesDrain(t *testing.T) {
	const q = `SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10`
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()

	want, err := rig.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Cluster.Master.DrainServer(regions[0].Host); err != nil {
		t.Fatalf("drain %s: %v", regions[0].Host, err)
	}
	got, err := rig.Run(q)
	if err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("post-drain vectorized run differs: %d rows vs %d", len(got.Rows), len(want.Rows))
	}
	if got.Delta[metrics.ColumnarPages] == 0 {
		t.Error("post-drain scan moved no column-major pages")
	}
}
