package harness

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/sql"
	"github.com/shc-go/shc/internal/trace"
)

// TestPreparedLookupMatchesCompile: a point lookup's prepared plan, bound
// to a key, is the plan a fresh exec.CompileWith of the bound query gives
// — the same EXPLAIN, the same rows, the same work at execution (RPCs,
// pages, regions and rows scanned, the region that serves the get) and the
// same plan-time counters (regions pruned, filters pushed and unhandled) —
// for present and absent keys, keys in the table's first and last regions,
// under each ablation that reaches the scan's planning. With pushdown off
// the lookup's literals reach the residual filter, and the prepared plan
// binds no query.
func TestPreparedLookupMatchesCompile(t *testing.T) {
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"no-pruning", core.Options{DisablePartitionPruning: true}},
		{"no-pushdown", core.Options{DisableFilterPushdown: true}},
		{"no-fusion", core.Options{DisableOperatorFusion: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 2, Options: c.opts})
			if err != nil {
				t.Fatal(err)
			}
			defer rig.Close()
			checkPreparedLookups(t, rig, !c.opts.DisableFilterPushdown)
		})
	}
}

func checkPreparedLookups(t *testing.T, rig *Rig, binds bool) {
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	// The rowkey encodes (date, ticket) in order, so the least key is in
	// the first region and the greatest in the last.
	sales := append([]plan.Row(nil), rig.Data.Rows("store_sales")...)
	sort.Slice(sales, func(i, j int) bool {
		a, b := sales[i], sales[j]
		if a[0].(int32) != b[0].(int32) {
			return a[0].(int32) < b[0].(int32)
		}
		return a[1].(int64) < b[1].(int64)
	})
	first, last, mid := sales[0], sales[len(sales)-1], sales[len(sales)/2]
	keys := []struct {
		name         string
		date, ticket int64
		region       string // the region that must serve the get; "" for any
		present      bool
	}{
		{"present", int64(mid[0].(int32)), mid[1].(int64), "", true},
		{"absent", int64(mid[0].(int32))%360 + 1, mid[1].(int64), "", false},
		{"first region", int64(first[0].(int32)), first[1].(int64), regions[0].ID, true},
		{"before the first key", int64(first[0].(int32)), first[1].(int64) - 1, regions[0].ID, false},
		{"last region", int64(last[0].(int32)), last[1].(int64), regions[len(regions)-1].ID, true},
		{"past the last key", int64(last[0].(int32)), last[1].(int64) + 1, regions[len(regions)-1].ID, false},
	}
	query := func(date, ticket int64) string {
		return fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "+
			"WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", date, ticket)
	}

	// Prepare the template from the first key's query, as the plan cache
	// does on a miss.
	df, err := rig.Session.SQL(query(keys[0].date, keys[0].ticket))
	if err != nil {
		t.Fatal(err)
	}
	opt := plan.Optimize(df.LogicalPlan())
	cfg := exec.CompileConfig{}
	pp, _, err := exec.Prepare(opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := exec.NewScheduler(rig.Cluster.Hosts(), 1, nil)
	planCounters := []string{metrics.RegionsPruned, metrics.FiltersPushed, metrics.FiltersUnhandled}
	// plans runs build and reports the plan-time counters it metered.
	plans := func(build func() (exec.PhysicalPlan, error)) (exec.PhysicalPlan, map[string]int64) {
		t.Helper()
		before := rig.Meter.Snapshot()
		phys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		delta := metrics.Diff(before, rig.Meter.Snapshot())
		out := map[string]int64{}
		for _, name := range planCounters {
			out[name] = delta[name]
		}
		return phys, out
	}
	// run executes phys and reports its rows, the counters of its scope,
	// and the regions its gets read.
	run := func(phys exec.PhysicalPlan) ([]plan.Row, map[string]int64, []string) {
		t.Helper()
		scope := metrics.NewRegistry()
		tr := trace.New("lookup")
		ctx := trace.NewContext(metrics.WithScope(context.Background(), scope), tr)
		rows, err := phys.Execute(&exec.Context{Ctx: ctx, Scheduler: sched, Meter: rig.Meter})
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		var served []string
		for _, sp := range tr.Find("region.get") {
			served = append(served, sp.Tag("region"))
		}
		return rows, scope.Snapshot(), served
	}

	for _, k := range keys {
		n, err := sql.Normalize(query(k.date, k.ticket))
		if err != nil {
			t.Fatal(err)
		}
		vals, err := n.Values()
		n.Release()
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		bound, boundCounts := plans(func() (exec.PhysicalPlan, error) {
			phys, bok, err := pp.Bind(vals)
			ok = bok
			return phys, err
		})
		if ok != binds {
			t.Fatalf("%s: Bind ok=%v, want %v", k.name, ok, binds)
		}
		if !ok {
			continue
		}
		fresh, freshCounts := plans(func() (exec.PhysicalPlan, error) { return exec.CompileWith(plan.Bind(opt, vals), cfg) })
		if got, want := exec.Explain(bound), exec.Explain(fresh); got != want {
			t.Fatalf("%s: bound plan\n%s\nfresh compile\n%s", k.name, got, want)
		}
		if !reflect.DeepEqual(boundCounts, freshCounts) {
			t.Errorf("%s: a bind metered %v, a fresh compile %v", k.name, boundCounts, freshCounts)
		}
		rows, work, served := run(bound)
		wantRows, wantWork, wantServed := run(fresh)
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("%s: bound plan rows %v, fresh compile %v", k.name, rows, wantRows)
		}
		if (len(rows) == 1) != k.present {
			t.Errorf("%s: %d rows, want present=%v", k.name, len(rows), k.present)
		}
		if !reflect.DeepEqual(work, wantWork) {
			t.Errorf("%s: bound plan's execution counted %v, fresh compile's %v", k.name, work, wantWork)
		}
		if !reflect.DeepEqual(served, wantServed) || len(served) != 1 || (k.region != "" && served[0] != k.region) {
			t.Errorf("%s: bound plan's get read %v, fresh compile's %v, want one get from %q", k.name, served, wantServed, k.region)
		}
	}
}
