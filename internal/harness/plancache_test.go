package harness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// TestPlanCacheSurvivesSplit: a cached template holds no region
// boundaries — compile runs per execution — so after a region splits
// under it, the same shapes answer correctly, key-range pruning follows
// the new region map, and point lookups land in both daughters. The
// plan-cache counters reach /metrics.
func TestPlanCacheSurvivesSplit(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 2, OpsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	sales := rig.Data.Rows("store_sales")

	// lookup runs the point-lookup shape for row r and returns the region
	// that served it and the regions the plan pruned.
	lookup := func(r plan.Row) (region string, pruned int64) {
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
		return gets[0].Tag("region"), rig.Meter.Get(metrics.RegionsPruned) - before
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
	parent, _ := lookup(sales[0])
	if _, pruned := lookup(sales[1]); pruned != int64(len(regions)-1) {
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
	for i := 0; i < len(sales); i += 20 {
		region, pruned := lookup(sales[i])
		served[region] = true
		if pruned != int64(len(after)-1) {
			t.Fatalf("after the split a lookup pruned %d of %d regions", pruned, len(after))
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
