package hbase

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/conncache"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

func loadRows(t *testing.T, client *Client, n int) {
	t.Helper()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("row-50")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < n; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, fmt.Sprintf("v%02d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineExceededNotRetried: a deadline that expires mid-call must
// surface immediately — retrying a timed-out operation only burns the retry
// budget on an error that cannot improve.
func TestDeadlineExceededNotRetried(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	loadRows(t, client, 20)

	// Every scan stalls far longer than the caller's deadline.
	c.Net.SetFaultInjector(rpc.NewFaultInjector(1,
		&rpc.FaultRule{Method: MethodFused, ExtraLatency: 200 * time.Millisecond},
	))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.ScanTableContext(ctx, "t", &Scan{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The injected 200ms sleep must abort at the 5ms deadline, and the retry
	// loop must not spin further attempts (each would stall again).
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("deadline-bounded scan took %v; injected latency did not abort", elapsed)
	}
	if got := c.Meter.Get(metrics.ClientRetries); got != 0 {
		t.Errorf("client retries = %d, want 0: deadline errors are not retryable", got)
	}
}

// TestIsRetryableClassification pins the retry classifier: overload and
// transport failures are worth another attempt, context errors never are.
func TestIsRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{ErrNotServing, true},
		{ErrServerBusy, true},
		{rpc.ErrHostDown, true},
		{rpc.ErrConnClosed, true},
		{context.DeadlineExceeded, false},
		{context.Canceled, false},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), false},
		{errors.New("decode failure"), false},
	} {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestServerBusyShedsAndRetries saturates a region server whose admission
// limits are tiny: concurrent scans must all succeed anyway (shed requests
// back off and resend), the shed counter must show the gate fired, and no
// region may move — overload is not death.
func TestServerBusyShedsAndRetries(t *testing.T) {
	c := bootCluster(t, 1)
	// A generous retry budget: the test asserts shed requests recover, not
	// that they recover within the default four attempts.
	client := c.NewClient(WithRetryPolicy(RetryPolicy{MaxAttempts: 10, BaseBackoff: 2 * time.Millisecond}))
	defer client.Close()
	loadRows(t, client, 40)
	c.Servers[0].SetLimits(ServerLimits{MaxInFlight: 2, MaxQueue: 2, ServiceTime: 3 * time.Millisecond})

	want, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	shedBefore := c.Meter.Get(metrics.ServerShed)

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	rows := make([][]Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i], errs[i] = client.ScanTable("t", &Scan{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d failed through overload: %v", i, err)
		}
		if !reflect.DeepEqual(rows[i], want) {
			t.Fatalf("caller %d rows differ under overload", i)
		}
	}
	if got := c.Meter.Get(metrics.ServerShed); got == shedBefore {
		t.Error("no requests shed; the scenario did not exercise admission control")
	}
	if got := c.Meter.Get(metrics.ServerQueuePeak); got == 0 {
		t.Error("queue depth peak = 0; nobody queued for a slot")
	}
	if got := c.Meter.Get(metrics.RegionsReassigned); got != 0 {
		t.Errorf("regions reassigned = %d; shedding must not trigger reassignment", got)
	}
}

// TestHedgedReadBeatsStraggler scripts the host where every other request
// stalls 100ms. A client hedging after 3ms must return the same rows as an
// undisturbed scan, fast, with the hedge counters showing the duplicate won.
func TestHedgedReadBeatsStraggler(t *testing.T) {
	c := bootCluster(t, 1)
	plain := c.NewClient()
	defer plain.Close()
	loadRows(t, plain, 40)
	want, err := plain.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}

	// Odd-numbered scan calls stall; the hedge (the next matching call)
	// lands on a fast slot.
	c.Net.SetFaultInjector(rpc.NewFaultInjector(1,
		&rpc.FaultRule{Method: MethodFused, ExtraLatency: 100 * time.Millisecond, LatencyEvery: 2},
	))
	hedged := c.NewClient(WithHedgedReads(3 * time.Millisecond))
	defer hedged.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := hedged.ScanTableContext(ctx, "t", &Scan{})
	if err != nil {
		t.Fatalf("hedged scan: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("hedged scan differs from baseline: %d rows vs %d", len(got), len(want))
	}
	if c.Meter.Get(metrics.RPCHedges) == 0 {
		t.Error("no hedges fired against the straggler")
	}
	if c.Meter.Get(metrics.RPCHedgeWins) == 0 {
		t.Error("no hedge won; the speculative duplicate should beat the 100ms stall")
	}
}

// TestHedgeNotFiredOnFastReads: a healthy cluster must not pay for hedging —
// responses beat the hedge delay, so no duplicates fire.
func TestHedgeNotFiredOnFastReads(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient(WithHedgedReads(time.Second))
	defer client.Close()
	loadRows(t, client, 10)
	if _, err := client.ScanTable("t", &Scan{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.RPCHedges); got != 0 {
		t.Errorf("hedges = %d on a fast cluster, want 0", got)
	}
}

// TestBreakerOpensOnDeadHostAndFailsFast wires the circuit breaker into a
// client: after the retry budget hammers a dead host, the circuit is open,
// further calls fail fast (no new transport attempts), and breaker.circuit_opens is
// counted.
func TestBreakerOpensOnDeadHostAndFailsFast(t *testing.T) {
	c := bootCluster(t, 1)
	br := conncache.NewBreaker(conncache.BreakerConfig{Threshold: 3, Cooldown: time.Hour}, c.Meter)
	client := c.NewClient(WithBreaker(br))
	defer client.Close()
	loadRows(t, client, 10)
	host := c.Servers[0].Host()
	if err := c.Net.SetDown(host, true); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ScanTable("t", &Scan{}); err == nil {
		t.Fatal("scan against a dead single-server cluster must fail")
	}
	if got := br.State(host); got != "open" {
		t.Fatalf("breaker state = %s after repeated transport failures, want open", got)
	}
	if got := c.Meter.Get(metrics.BreakerOpens); got == 0 {
		t.Error("breaker.circuit_opens = 0")
	}
	// With the circuit open, the failure is the breaker's synthetic error
	// (fail fast), not a fresh transport attempt against the dead host.
	_, err := client.GetContext(context.Background(), "t", []byte("row-01"), nil, 1, TimeRange{})
	if !errors.Is(err, rpc.ErrHostDown) || !strings.Contains(err.Error(), "circuit open") {
		t.Fatalf("err = %v, want ErrHostDown wrapped as circuit open", err)
	}
	if got := br.State(host); got != "open" {
		t.Fatalf("breaker state = %s after fail-fast call, want still open", got)
	}
}

// TestAdmissionGate unit-tests the gate: slots, bounded queue, FIFO grants,
// shed beyond the queue, and cancellation while parked.
func TestAdmissionGate(t *testing.T) {
	m := metrics.NewRegistry()
	a := newAdmission(ServerLimits{MaxInFlight: 1, MaxQueue: 1}, m)
	bg := context.Background()

	if err := a.enter(bg); err != nil {
		t.Fatal(err)
	}
	// Second caller parks in the queue.
	granted := make(chan error, 1)
	go func() { granted <- a.enter(bg) }()
	waitQueue := func(want int) {
		t.Helper()
		for i := 0; ; i++ {
			a.mu.Lock()
			n := a.waiting
			a.mu.Unlock()
			if n == want {
				return
			}
			if i > 1000 {
				t.Fatalf("queue depth never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitQueue(1)
	// Third caller is shed: queue full.
	if err := a.enter(bg); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("err = %v, want ErrServerBusy", err)
	}
	if got := m.Get(metrics.ServerShed); got != 1 {
		t.Errorf("server.requests_shed = %d, want 1", got)
	}
	if got := m.Get(metrics.ServerQueuePeak); got != 1 {
		t.Errorf("queue peak = %d, want 1", got)
	}
	// Releasing the slot hands it to the parked caller.
	a.leave()
	if err := <-granted; err != nil {
		t.Fatalf("queued caller got %v, want grant", err)
	}
	a.leave()

	// A parked caller whose context dies leaves the queue with its error.
	if err := a.enter(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	parked := make(chan error, 1)
	go func() { parked <- a.enter(ctx) }()
	waitQueue(1)
	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	a.leave()
	// The slot is free again: a fresh caller enters without queueing.
	if err := a.enter(bg); err != nil {
		t.Fatalf("slot leaked after cancelled waiter: %v", err)
	}
	a.leave()
}

// TestPingBypassesAdmission: liveness probes must land even on a saturated
// server, or overload would masquerade as death and trigger reassignment.
func TestPingBypassesAdmission(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	loadRows(t, client, 10)
	if _, err := client.Regions("t"); err != nil { // warm the meta cache
		t.Fatal(err)
	}
	c.Servers[0].SetLimits(ServerLimits{MaxInFlight: 1, MaxQueue: 0, ServiceTime: 60 * time.Millisecond})

	// Hold the only slot with a slow scan, then heartbeat mid-flight.
	done := make(chan error, 1)
	go func() {
		_, err := client.ScanTable("t", &Scan{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the scan claim the slot
	if dead, err := c.Master.CheckServers(); err != nil {
		t.Fatalf("heartbeat round against saturated server: %v", err)
	} else if len(dead) != 0 {
		t.Fatalf("saturated server declared dead: %v", dead)
	}
	if err := <-done; err != nil {
		t.Fatalf("scan holding the slot: %v", err)
	}
}
