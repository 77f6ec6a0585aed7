package hbase

import (
	"context"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// TestHedgeLoserSpanCancelled re-runs the straggler scenario with tracing
// on: the winning attempt's span carries hedge=won and the loser is marked
// cancelled — an abandoned duplicate must never read as a failure or a win.
func TestHedgeLoserSpanCancelled(t *testing.T) {
	c := bootCluster(t, 1)
	plain := c.NewClient()
	defer plain.Close()
	loadRows(t, plain, 40)

	c.Net.SetFaultInjector(rpc.NewFaultInjector(1,
		&rpc.FaultRule{Method: MethodFused, ExtraLatency: 100 * time.Millisecond, LatencyEvery: 2},
	))
	hedged := c.NewClient(WithHedgedReads(3 * time.Millisecond))
	defer hedged.Close()

	tr := trace.New("hedged-scan")
	ctx, cancel := context.WithTimeout(trace.NewContext(context.Background(), tr), 5*time.Second)
	defer cancel()
	if _, err := hedged.ScanTableContext(ctx, "t", &Scan{}); err != nil {
		t.Fatalf("hedged scan: %v", err)
	}
	tr.Finish()

	attempts := append(tr.Find("hedge.primary"), tr.Find("hedge.speculative")...)
	if len(attempts) < 2 {
		t.Fatalf("found %d hedge attempt spans, want at least one raced pair:\n%s", len(attempts), tr.Render())
	}
	var won, cancelled, failed int
	for _, sp := range attempts {
		switch {
		case sp.Tag("hedge") == "won":
			won++
			if sp.Status() == trace.StatusCancelled {
				t.Fatalf("winner span marked cancelled:\n%s", tr.Render())
			}
		case sp.Status() == trace.StatusCancelled:
			cancelled++
		case sp.Status() == trace.StatusError:
			failed++
		}
	}
	if won == 0 {
		t.Fatalf("no hedge attempt tagged as winner:\n%s", tr.Render())
	}
	if cancelled == 0 {
		t.Fatalf("no losing hedge attempt marked cancelled:\n%s", tr.Render())
	}
	if failed > 0 {
		t.Fatalf("%d hedge attempts marked failed; losers must be cancelled, not errors:\n%s", failed, tr.Render())
	}
}

// TestServerScanSpansCarryRegionAndRows: a traced table scan produces one
// region.scan span per region visited, tagged with host and region, whose
// summed rows attribute equals the rows the scan returned.
func TestServerScanSpansCarryRegionAndRows(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	defer client.Close()
	loadRows(t, client, 60)

	tr := trace.New("scan")
	ctx := trace.NewContext(context.Background(), tr)
	results, err := client.ScanTableContext(ctx, "t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	spans := tr.Find("region.scan")
	if len(spans) == 0 {
		t.Fatalf("no region.scan spans:\n%s", tr.Render())
	}
	var rows int64
	for _, sp := range spans {
		if sp.Tag("region") == "" || sp.Tag("host") == "" {
			t.Fatalf("region.scan span missing region/host tags:\n%s", tr.Render())
		}
		rows += sp.Attr("rows")
	}
	if rows != int64(len(results)) {
		t.Fatalf("span rows = %d, scan returned %d", rows, len(results))
	}
}

// TestScopedRegistryIsolatesQueries: two scans with different scoped
// registries each see exactly their own rows while the cluster registry
// accumulates both.
func TestScopedRegistryIsolatesQueries(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	loadRows(t, client, 30)

	clusterBefore := c.Meter.Get(metrics.RowsReturned)

	scopeA, scopeB := metrics.NewRegistry(), metrics.NewRegistry()
	ctxA := metrics.WithScope(context.Background(), scopeA)
	ctxB := metrics.WithScope(context.Background(), scopeB)

	all, err := client.ScanTableContext(ctxA, "t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	limited, err := client.ScanTableContext(ctxB, "t", &Scan{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 5 {
		t.Fatalf("limited scan returned %d rows, want 5", len(limited))
	}
	if got := scopeA.Get(metrics.RowsReturned); got != int64(len(all)) {
		t.Errorf("scope A rows_returned = %d, want %d", got, len(all))
	}
	// The server may return up to one full region page before the limit
	// clips client-side, but scope B must not see scope A's rows.
	if got := scopeB.Get(metrics.RowsReturned); got >= int64(len(all)) {
		t.Errorf("scope B rows_returned = %d, not isolated from scope A (%d)", got, len(all))
	}
	clusterDelta := c.Meter.Get(metrics.RowsReturned) - clusterBefore
	if want := int64(len(all)) + scopeB.Get(metrics.RowsReturned); clusterDelta != want {
		t.Errorf("cluster rows_returned delta = %d, want %d (sum of both queries)", clusterDelta, want)
	}
}
