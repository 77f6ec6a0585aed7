package metrics

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},       // exactly the first bound
		{time.Microsecond + 1, 1},   // just past it
		{2 * time.Microsecond, 1},   // exactly the second bound
		{2*time.Microsecond + 1, 2}, // just past it
		{4 * time.Microsecond, 2},   // power-of-two bounds are inclusive
		{3 * time.Microsecond, 2},   // interior of (2µs, 4µs]
		{time.Millisecond, 10},      // 1µs<<10 = 1024µs ≥ 1ms, 1µs<<9 = 512µs < 1ms
		{time.Second, 20},           // 1µs<<20 ≈ 1.05s
		{bucketBound(numBounds - 1), numBounds - 1},
		{bucketBound(numBounds-1) + 1, numBounds}, // overflow
		{time.Duration(1<<62 - 1), numBounds},     // huge → overflow
	}
	for _, tc := range cases {
		if got := bucketFor(tc.d); got != tc.want {
			t.Errorf("bucketFor(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestHistogramCountSumMax(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Sum() != 6*time.Millisecond {
		t.Fatalf("sum = %v, want 6ms", h.Sum())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("max = %v, want 3ms", h.Max())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", h.Mean())
	}
}

// Quantile estimates interpolate within a power-of-two bucket, so the
// estimate can never be off by more than a factor of two from the true
// value, and is exact at bucket boundaries.
func TestQuantileErrorBounds(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	vals := make([]time.Duration, 0, 2000)
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Int63n(int64(50*time.Millisecond))) + time.Microsecond
		vals = append(vals, d)
		h.Observe(d)
	}
	exact := func(q float64) time.Duration {
		sorted := append([]time.Duration(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		idx := int(q*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		got, want := h.Quantile(q), exact(q)
		if got < want/2 || got > want*2 {
			t.Errorf("q%.0f = %v, exact %v: outside 2x bucket error bound", q*100, got, want)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Errorf("q100 = %v, want max %v", h.Quantile(1.0), h.Max())
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	h.Observe(5 * time.Millisecond)
	got := h.Quantile(0.5)
	// One observation in the (4ms, 8ms] bucket, interpolation clamped to max.
	if got > 5*time.Millisecond || got <= 4*time.Millisecond {
		t.Fatalf("single-value q50 = %v, want in (4ms, 5ms]", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*each {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*each)
	}
	_, counts := h.Buckets()
	if counts[len(counts)-1] != goroutines*each {
		t.Fatalf("cumulative bucket total = %d, want %d", counts[len(counts)-1], goroutines*each)
	}
}

func TestRegistryHistogramAndReset(t *testing.T) {
	r := NewRegistry()
	r.Observe(HistTaskRun, 2*time.Millisecond)
	r.Observe(HistTaskRun, 4*time.Millisecond)
	if got := r.Histogram(HistTaskRun).Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	r.SetMax(ServerQueuePeak, 9)
	r.AddPeak(MemoryHeld, MemoryPeak, 100)

	r.Reset()
	if got := r.Histogram(HistTaskRun).Count(); got != 0 {
		t.Fatalf("histogram count after Reset = %d, want 0", got)
	}
	if got := r.Histogram(HistTaskRun).Max(); got != 0 {
		t.Fatalf("histogram max after Reset = %v, want 0", got)
	}
	for _, name := range []string{ServerQueuePeak, MemoryHeld, MemoryPeak} {
		if got := r.Get(name); got != 0 {
			t.Fatalf("%s after Reset = %d, want 0", name, got)
		}
	}
	// Gauge kinds survive Reset: the next exposition still labels peaks
	// as gauges even before they are written again.
	if !r.IsGauge(ServerQueuePeak) || !r.IsGauge(MemoryPeak) || !r.IsGauge(MemoryHeld) {
		t.Fatal("gauge kinds must survive Reset")
	}
	if r.IsGauge(RPCCalls) {
		t.Fatal("plain counters must not be labelled gauges")
	}
}

func TestScopedMeterDualSink(t *testing.T) {
	cluster := NewRegistry()
	scope := NewRegistry()
	ctx := WithScope(context.Background(), scope)

	m := Scoped(ctx, cluster)
	m.Inc(RPCCalls)
	m.Add(RPCBytesSent, 100)
	m.SetMax(ServerQueuePeak, 3)
	m.AddPeak(MemoryHeld, MemoryPeak, 50)
	m.Observe(HistTaskRun, time.Millisecond)

	for _, r := range []*Registry{cluster, scope} {
		if r.Get(RPCCalls) != 1 || r.Get(RPCBytesSent) != 100 ||
			r.Get(ServerQueuePeak) != 3 || r.Get(MemoryPeak) != 50 {
			t.Fatalf("sink missing writes: %v", r.Snapshot())
		}
		if r.Histogram(HistTaskRun).Count() != 1 {
			t.Fatal("sink missing histogram observation")
		}
	}
}

func TestScopedMeterNoScope(t *testing.T) {
	cluster := NewRegistry()
	m := Scoped(context.Background(), cluster)
	m.Inc(RPCCalls)
	if cluster.Get(RPCCalls) != 1 {
		t.Fatal("primary sink missed write")
	}
	// Scope == primary must not double count.
	ctx := WithScope(context.Background(), cluster)
	m = Scoped(ctx, cluster)
	m.Inc(RPCCalls)
	if got := cluster.Get(RPCCalls); got != 2 {
		t.Fatalf("RPCCalls = %d, want 2 (no double count)", got)
	}
	// Direct writes only to its registry; nil-safe throughout.
	Direct(nil).Inc(RPCCalls)
}

func TestWriteExposition(t *testing.T) {
	r := NewRegistry()
	r.Add(RPCCalls, 7)
	r.SetMax(ServerQueuePeak, 4)
	r.Observe(HistRPCLatencyPrefix+"Scan", 3*time.Millisecond)
	r.Observe(HistRPCLatencyPrefix+"Scan", 100*time.Microsecond)

	var b strings.Builder
	if err := r.WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE shc_rpc_calls counter",
		"shc_rpc_calls 7",
		"# TYPE shc_server_queue_depth_peak gauge",
		"shc_server_queue_depth_peak 4",
		"# TYPE shc_rpc_latency_Scan histogram",
		`shc_rpc_latency_Scan_bucket{le="+Inf"} 2`,
		"shc_rpc_latency_Scan_count 2",
		"shc_rpc_latency_Scan_sum 0.0031",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Cumulative buckets: the 128µs bound holds the 100µs observation.
	if !strings.Contains(out, `le="0.000128"} 1`) {
		t.Errorf("expected cumulative bucket at 128µs = 1 in:\n%s", out)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 100; i++ {
		r.Observe(HistQueueWait, time.Duration(i)*time.Millisecond)
	}
	out := r.SummaryString()
	if !strings.Contains(out, HistQueueWait) || !strings.Contains(out, "p95=") {
		t.Fatalf("summary missing fields:\n%s", out)
	}
}

func TestNilRegistryHistogramSafe(t *testing.T) {
	var r *Registry
	r.Observe(HistTaskRun, time.Millisecond)
	if r.Histogram(HistTaskRun) != nil {
		t.Fatal("nil registry must return nil histogram")
	}
	if err := r.WriteExposition(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}
