package main

import (
	"math"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/tpcds"
)

// small is a rig and op count that keep each test run under a second or two.
var small = func() sizes {
	sz := defaultSizes
	sz.Setups = 1
	sz.Warmup = 5
	sz.ProbeWrites = 50
	return sz
}()

func smallOps(w workload) int {
	if w.name == "analytic-join" {
		return 12
	}
	return 60
}

func mustRun(t *testing.T, name string, sz sizes, seed int64, n int, traced bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(w, sz, seed, n, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed > 0 {
		t.Fatalf("%s: %d of %d ops failed; first: %s", name, res.failed, res.attempted, res.firstFailure)
	}
	return res
}

func e2e(res *result, name string) float64 {
	for _, m := range res.e2e {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

func TestQ39SQLMatchesTPCDS(t *testing.T) {
	if got := q39SQL(1, 1.0); got != tpcds.Q39a() {
		t.Errorf("q39SQL(1, 1.0) differs from tpcds.Q39a:\n%s\nvs\n%s", got, tpcds.Q39a())
	}
	if got := q39SQL(1, 1.5); got != tpcds.Q39b() {
		t.Errorf("q39SQL(1, 1.5) differs from tpcds.Q39b")
	}
}

// The oracle must not be trivially satisfiable: q39 over the generated data
// has answer rows, and scan-agg ranges are never empty.
func TestOracleAnswersAreNonTrivial(t *testing.T) {
	data := tpcds.Generate(tpcds.Config{Scale: dataScale, Seed: tpcdsSeed})
	for moy := 1; moy <= 11; moy++ {
		if len(q39Answer(data, moy, 1.0)) == 0 {
			t.Errorf("q39a months %d-%d: empty answer", moy, moy+1)
		}
	}
	g := newGenerator(small, data, 1)
	for _, o := range g.scanAggs(50) {
		if n := o.want[0][0].(int64); n == 0 {
			t.Errorf("%s: empty range", o.sql)
		}
	}
}

// Two runs with one seed do the same work, count for count; another seed
// gives another op list.
func TestDeterminism(t *testing.T) {
	counters := []string{
		metrics.RPCCalls, metrics.RPCBytesSent, metrics.RPCBytesReceived,
		metrics.RowsScanned, metrics.MemstoreFlushes, metrics.Compactions,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := mustRun(t, w.name, small, 7, smallOps(w), false)
			b := mustRun(t, w.name, small, 7, smallOps(w), false)
			for _, c := range counters {
				if a.counts[c] != b.counts[c] {
					t.Errorf("%s: %d vs %d with the same seed", c, a.counts[c], b.counts[c])
				}
			}
			if x, y := e2e(a, "space_amp"), e2e(b, "space_amp"); x != y {
				t.Errorf("space_amp: %v vs %v with the same seed", x, y)
			}
			if a.opDigest != b.opDigest {
				t.Error("op lists differ with the same seed")
			}
			data := tpcds.Generate(tpcds.Config{Scale: dataScale, Seed: tpcdsSeed})
			other := w.gen(newGenerator(small, data, 8), small.Warmup+smallOps(w))[small.Warmup:]
			if digest(other) == a.opDigest {
				t.Error("seeds 7 and 8 give the same op list")
			}
		})
	}
}

// Doubling scan-agg's range doubles the rows the region servers scan and
// the bytes on the wire, and costs latency.
func TestScanAggWidthScales(t *testing.T) {
	wide := small
	wide.Width = 2 * small.Width
	a := mustRun(t, "scan-agg", small, 3, 200, false)
	b := mustRun(t, "scan-agg", wide, 3, 200, false)
	rows := float64(b.counts[metrics.RowsScanned]) / float64(a.counts[metrics.RowsScanned])
	net := e2e(b, "net_bytes_per_op") / e2e(a, "net_bytes_per_op")
	if rows < 1.6 || rows > 2.4 {
		t.Errorf("rows scanned grew %.2fx for a 2x range, want about 2x", rows)
	}
	if net < 1.5 || net > 2.5 {
		t.Errorf("net_bytes_per_op grew %.2fx for a 2x range, want about 2x", net)
	}
	if p50a, p50b := e2e(a, "query_p50_ms"), e2e(b, "query_p50_ms"); p50b <= p50a {
		t.Errorf("query_p50_ms %.4f at 2x range, not above %.4f", p50b, p50a)
	}
}

// mixed-rw's reads are slow because each follows a write that invalidates
// the region's cached view; without the writes they cost about what a
// point lookup does.
func TestMixedRWReadsNeedTheirWrites(t *testing.T) {
	noWrites := small
	noWrites.SkipWrites = true
	withW := e2e(mustRun(t, "mixed-rw", small, 5, 150, false), "query_p50_ms")
	without := e2e(mustRun(t, "mixed-rw", noWrites, 5, 150, false), "query_p50_ms")
	lookup := e2e(mustRun(t, "point-lookup", small, 5, 150, false), "query_p50_ms")
	if without > withW/2 {
		t.Errorf("reads without writes: p50 %.4f ms, with writes %.4f ms; want at most half", without, withW)
	}
	if without > 3*lookup || without < lookup/3 {
		t.Errorf("reads without writes: p50 %.4f ms, point-lookup %.4f ms; want the same order", without, lookup)
	}
}

// minCover is the share of a traced op's outer-timer time the layers must
// attribute (without unattributed_ms) on every workload.
const minCover = 0.75

// The budget's layers explain each traced op as an independent outer timer
// sees it: what they attribute never exceeds that time (nothing counted
// twice) and covers most of it, the rebuilt wall time lies within it, and
// no layer is negative.
func TestBudgetCoversOuterTime(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := mustRun(t, w.name, small, 11, smallOps(w), true)
			for _, m := range res.layers {
				if ms, ok := wallPart(m); ok && ms < 0 {
					t.Errorf("%s = %v", m.name, m.value)
				}
			}
			t.Logf("outer %.4f ms, rebuilt wall %.4f ms, attributed %.4f ms (%.1f%%)",
				res.outerMs, res.wallMs, res.attributedMs, 100*res.attributedMs/res.outerMs)
			if res.wallMs > res.outerMs {
				t.Errorf("rebuilt wall %.4f ms exceeds the outer timer's %.4f ms", res.wallMs, res.outerMs)
			}
			if res.attributedMs > res.outerMs {
				t.Errorf("layers attribute %.4f ms, more than the outer timer's %.4f ms", res.attributedMs, res.outerMs)
			}
			if res.attributedMs < minCover*res.outerMs {
				t.Errorf("layers attribute %.4f ms of the outer timer's %.4f ms, under %.0f%%", res.attributedMs, res.outerMs, 100*minCover)
			}
		})
	}
}

func TestAttributeSharesConcurrentTime(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	spans := []span{
		{name: "execute", start: 0, end: ms(10), parent: -1},
		{name: "task", start: ms(2), end: ms(8), parent: 0},
		{name: "task", start: ms(4), end: ms(10), parent: 0},
		{name: "rpc:Fused", start: ms(5), end: ms(7), parent: 2},
	}
	got := attribute(spans, 0)
	want := map[string]time.Duration{
		layerNone: ms(2), // execute alone, 0-2
		layerTask: ms(7), // 2-4 alone, 4-5 and 7-8 halved, 5-7 halved with rpc, 8-10 alone
		layerRPC:  ms(1), // 5-7 shared with the other task
	}
	for l, d := range want {
		if diff := got[l] - d; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s = %v, want %v", l, got[l], d)
		}
	}
}

// The calibrator's kernel allocates nothing, so it neither feeds the
// garbage collector nor depends on the program's heap.
func TestCalibratorKernelDoesNotAllocate(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(20, c.kernel); n != 0 {
		t.Errorf("kernel allocates %v times per call", n)
	}
	c.sample(5)
	if f := c.factor(0); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("factor %v from %v", f, c.samples)
	}
}
