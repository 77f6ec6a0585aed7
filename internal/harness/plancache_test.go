package harness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// TestPlanCacheSurvivesSplit: a cached template's prepared physical plan
// holds no region boundaries — each execution plans its scans against the
// client's current region map — so after a region splits under a lookup
// prepared before the split, the same shapes answer correctly, key-range
// pruning follows the new region map, and point lookups land in both
// daughters; after a daughter then moves to the other server, the same
// prepared lookup answers from its new host. The plan-cache counters reach
// /metrics.
func TestPlanCacheSurvivesSplit(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 2, OpsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	sales := rig.Data.Rows("store_sales")

	// lookup runs the point-lookup shape for row r and returns the region
	// that served it and the regions the plan pruned.
	lookup := func(r plan.Row) (region, host string, pruned int64) {
		t.Helper()
		before := rig.Meter.Get(metrics.RegionsPruned)
		df, err := rig.Session.SQL(fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price "+
			"FROM store_sales WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", r[0], r[1]))
		if err != nil {
			t.Fatal(err)
		}
		rows, tr, _, _, err := df.AnalyzeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := []plan.Row{r[2:]}; !reflect.DeepEqual(rows, want) {
			t.Fatalf("lookup %v: rows %v, want %v", r[:2], rows, want)
		}
		gets := tr.Find("region.get")
		if len(gets) != 1 {
			t.Fatalf("lookup %v: %d region.get spans, want 1", r[:2], len(gets))
		}
		return gets[0].Tag("region"), gets[0].Tag("host"), rig.Meter.Get(metrics.RegionsPruned) - before
	}
	// scan runs the range shape and checks its tickets against the data.
	scan := func(lo, hi int32) {
		t.Helper()
		res, err := rig.Run(fmt.Sprintf("SELECT ss_ticket_number FROM store_sales "+
			"WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		var got, want []int64
		for _, r := range res.Rows {
			got = append(got, r[0].(int64))
		}
		for _, r := range sales {
			if d := r[0].(int32); d >= lo && d <= hi {
				want = append(want, r[1].(int64))
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("range [%d, %d]: %d tickets, want %d", lo, hi, len(got), len(want))
		}
	}

	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	parent, _, _ := lookup(sales[0])
	if _, _, pruned := lookup(sales[1]); pruned != int64(len(regions)-1) {
		t.Fatalf("before the split a lookup pruned %d of %d regions", pruned, len(regions))
	}
	scan(100, 130)
	misses := rig.Meter.Get(metrics.PlanCacheMisses)
	hits := rig.Meter.Get(metrics.PlanCacheHits)

	if err := rig.Cluster.Master.SplitRegion("store_sales", parent); err != nil {
		t.Fatal(err)
	}
	after, err := rig.Cluster.Master.TableRegions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(regions)+1 {
		t.Fatalf("regions = %d after the split, want %d", len(after), len(regions)+1)
	}
	// The first lookup into the split range compiles against the client's
	// stale region map, fails over to the daughter and refreshes the map;
	// from then on every compile prunes against the new map.
	lookup(sales[0])

	// Every twentieth row: enough keys that both daughters serve some.
	served := map[string]bool{}
	var daughterRow plan.Row
	for i := 0; i < len(sales); i += 20 {
		region, _, pruned := lookup(sales[i])
		served[region] = true
		if pruned != int64(len(after)-1) {
			t.Fatalf("after the split a lookup pruned %d of %d regions", pruned, len(after))
		}
		if !containsRegion(regions, region) {
			daughterRow = sales[i]
		}
	}
	daughters := 0
	for _, ri := range after {
		if served[ri.ID] && !containsRegion(regions, ri.ID) {
			daughters++
		}
	}
	if daughters != 2 {
		t.Fatalf("lookups reached %d of the 2 daughters of %s (served: %v)", daughters, parent, served)
	}
	scan(100, 130)
	scan(1, 360)

	// Move: drain the daughter's server, so the daughter moves to the
	// other one. The lookup prepared before the split still answers, from
	// the daughter's new host.
	daughter, from, _ := lookup(daughterRow)
	if err := rig.Cluster.Master.DrainServer(from); err != nil {
		t.Fatal(err)
	}
	lookup(daughterRow) // fails over to the new host and refreshes the map
	if region, to, _ := lookup(daughterRow); region != daughter || to == from {
		t.Fatalf("after draining %s the lookup read %s on %s, want %s on another host", from, region, to, daughter)
	}
	scan(1, 360)

	if got := rig.Meter.Get(metrics.PlanCacheMisses); got != misses {
		t.Errorf("plan cache missed %d more times across the split; templates hold no region map", got-misses)
	}
	if got := rig.Meter.Get(metrics.PlanCacheHits) - hits; got < int64(len(sales)/20) {
		t.Errorf("only %d hits after the split", got)
	}

	resp, err := http.Get(rig.Ops.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"shc_engine_plan_cache_hits", "shc_engine_plan_cache_misses"} {
		if !strings.Contains(string(body), "\n"+name+" ") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

func containsRegion(regions []hbase.RegionInfo, id string) bool {
	for _, ri := range regions {
		if ri.ID == id {
			return true
		}
	}
	return false
}

// TestPlanCachePreparedLookupsConcurrent: one point-lookup template, and
// one range-aggregate template, run from 8 goroutines at once, each with
// its own literals, share one prepared physical plan per template; every
// answer must equal the one computed from the generated rows (run it with
// -race).
func TestPlanCachePreparedLookupsConcurrent(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	sales := rig.Data.Rows("store_sales")
	byKey := make(map[[2]int64]plan.Row, len(sales))
	for _, r := range sales {
		byKey[[2]int64{int64(r[0].(int32)), r[1].(int64)}] = r
	}
	quantity := func(lo, hi int32) (n, sum int64) {
		for _, r := range sales {
			if d := r[0].(int32); d >= lo && d <= hi && r[4] != nil {
				n++
				sum += int64(r[4].(int32))
			}
		}
		return n, sum
	}
	hits := rig.Meter.Get(metrics.PlanCacheHits)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r := sales[(g*perWorker+i)*7%len(sales)]
				date, ticket := int64(r[0].(int32)), r[1].(int64)
				if i%5 == 4 {
					date = date%360 + 1 // the ticket under another date: mostly absent
				}
				df, err := rig.Session.SQL(fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price "+
					"FROM store_sales WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", date, ticket))
				if err != nil {
					errs <- err
					return
				}
				rows, err := df.Collect()
				if err != nil {
					errs <- err
					return
				}
				var want []plan.Row
				if row, ok := byKey[[2]int64{date, ticket}]; ok {
					want = []plan.Row{row[2:]}
				}
				if !reflect.DeepEqual(rows, want) {
					errs <- fmt.Errorf("lookup (%d, %d): rows %v, want %v", date, ticket, rows, want)
					return
				}
				lo := int32(1 + (g*perWorker+i)%330)
				df, err = rig.Session.SQL(fmt.Sprintf("SELECT count(ss_quantity), sum(ss_quantity) FROM store_sales "+
					"WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, lo+30))
				if err != nil {
					errs <- err
					return
				}
				if rows, err = df.Collect(); err != nil {
					errs <- err
					return
				}
				n, sum := quantity(lo, lo+30)
				if len(rows) != 1 || rows[0][0] != n || rows[0][1] != float64(sum) {
					errs <- fmt.Errorf("range [%d, %d]: rows %v, want [%d %d]", lo, lo+30, rows, n, sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Each shape misses once, on a goroutine that gets there first.
	if got := rig.Meter.Get(metrics.PlanCacheHits) - hits; got < 2*workers*perWorker-2*workers {
		t.Errorf("%d plan-cache hits, want at least %d", got, 2*workers*perWorker-2*workers)
	}
}
