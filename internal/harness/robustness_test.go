package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
)

const robustnessQuery = `SELECT ss_item_sk, ss_quantity FROM store_sales WHERE ss_quantity > 10`

// TestStragglerHedgedSelect is the tail-latency acceptance scenario: one
// region server answers every other fused page 100ms late. A session with
// hedged reads must complete the multi-region SELECT under its deadline —
// the speculative duplicates land on fast slots and win — with results
// byte-identical to an undisturbed run.
func TestStragglerHedgedSelect(t *testing.T) {
	base, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(robustnessQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("baseline returned no rows; the straggler run would be vacuous")
	}

	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3,
		HedgeDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	straggler := regions[0].Host
	// Every other fused page from the straggler stalls 100ms — far past the
	// hedge delay, so the duplicate fires and (landing on a fast slot) wins.
	rig.Cluster.Net.SetFaultInjector(rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{Host: straggler, Method: hbase.MethodFused, ExtraLatency: 100 * time.Millisecond, LatencyEvery: 2},
	))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := rig.RunContext(ctx, robustnessQuery)
	if err != nil {
		t.Fatalf("hedged query through straggler: %v", err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("straggler run differs from baseline: %d rows vs %d", len(got.Rows), len(want.Rows))
	}
	if got.Delta[metrics.RPCHedges] == 0 {
		t.Error("no hedges fired against the straggler")
	}
	if got.Delta[metrics.RPCHedgeWins] == 0 {
		t.Error("hedge_wins = 0; the duplicates never beat the stall")
	}
}

// TestSaturatedServerShedsWithoutQueryFailure is the overload acceptance
// scenario: every region server is bounded to one in-flight RPC with a
// one-deep queue and non-trivial service time. A single SHC query streams
// one fused pipeline per server and never overruns that, so the pressure
// comes from concurrent queries: they collide at the gate, the servers shed
// with ErrServerBusy, and every query still succeeds — shed requests back
// off and resend, and crucially no region moves (overload is not death).
func TestSaturatedServerShedsWithoutQueryFailure(t *testing.T) {
	base, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	want, err := base.Run(robustnessQuery)
	if err != nil {
		t.Fatal(err)
	}

	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3,
		ExecutorsPerHost: 4,
		ServerLimits:     hbase.ServerLimits{MaxInFlight: 1, MaxQueue: 3, ServiceTime: time.Millisecond},
		// Six queries colliding at a one-slot gate need a backoff budget that
		// outlasts the contention window (which -race stretches), not the
		// default four attempts.
		Retry: hbase.RetryPolicy{MaxAttempts: 15, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()

	const queries = 6
	errs := make([]error, queries)
	rows := make([][]plan.Row, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res Result
			res, errs[i] = rig.Run(robustnessQuery)
			rows[i] = res.Rows
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("query %d failed through overload: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want.Rows, rows[i]) {
			t.Fatalf("query %d rows differ under overload: %d vs %d", i, len(rows[i]), len(want.Rows))
		}
	}
	if got := rig.Meter.Get(metrics.ServerShed); got == 0 {
		t.Error("server.requests_shed = 0; the load never overran admission control")
	}
	if got := rig.Meter.Get(metrics.RegionsReassigned); got != 0 {
		t.Errorf("%d regions reassigned; shedding must not look like death", got)
	}
}

// TestCancelMidStreamingSelect cancels a streaming SELECT while its fused
// pages are in flight: the call must return the context's error promptly,
// count the cancellation, and leak no goroutines — the prefetcher, workers,
// and latency sleeps all unwind.
func TestCancelMidStreamingSelect(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 2, Servers: 3,
		RPC: rpc.Config{CallLatency: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond) // let the scan get airborne
		cancel()
	}()
	start := time.Now()
	_, err = rig.RunContext(ctx, robustnessQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must cut the query short, not wait out the full scan.
	if elapsed > 5*time.Second {
		t.Errorf("cancelled query took %v to return", elapsed)
	}
	if got := rig.Meter.Get(metrics.QueriesCancelled); got == 0 {
		t.Error("cancelled query not counted in engine.queries_cancelled")
	}

	// Every goroutine the run spawned must unwind after cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The rig stays usable: the same query runs to completion afterwards.
	if _, err := rig.Run(robustnessQuery); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestQueryTimeoutBoundsSlowQuery: with every fused page stalled far past
// the caller's context deadline, the query fails with DeadlineExceeded
// quickly — the injected latency sleeps abort instead of serving out.
func TestQueryTimeoutBoundsSlowQuery(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	rig.Cluster.Net.SetFaultInjector(rpc.NewFaultInjector(chaosSeed(t),
		&rpc.FaultRule{Method: hbase.MethodFused, ExtraLatency: 2 * time.Second},
	))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rig.RunContext(ctx, robustnessQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Errorf("20ms-deadline query took %v; injected sleeps did not abort", elapsed)
	}
	if got := rig.Meter.Get(metrics.QueriesCancelled); got == 0 {
		t.Error("timed-out query not counted in engine.queries_cancelled")
	}
}
