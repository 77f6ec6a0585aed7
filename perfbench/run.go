package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/tpcds"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run of one workload.
type result struct {
	workload          string
	ops               int    // timed steps
	opDigest          uint64 // hash of the timed op list
	attempted, failed int
	firstFailure      string
	// reads and writes are the latencies of correct steps; they are
	// dropped before the heap is weighed, and nReads and nWrites keep
	// their counts for the report.
	reads, writes   []time.Duration
	nReads, nWrites int
	e2e             []metric // with tracing off, time metrics at reference speed
	raw             []metric // the time metrics of e2e as the clock read them
	tails           []metric // p95s at reference speed, printed only
	// speed and cpuSpeed are the calibrator's factors for the timed phase
	// (see calib.go).
	speed, cpuSpeed float64
	layers          []metric // traced run only
	counts          map[string]int64
	// Traced run only: per traced op, the mean wall time rebuilt from the
	// benchmark's timings and the engine's spans, the mean of an outer
	// timer around the whole op, and the mean time the layers attribute
	// (without unattributed_ms); the traced op count; and the query p50
	// of the traced and of the untraced ops.
	wallMs, outerMs, attributedMs float64
	tracedOps                     int
	tracedP50, plainP50           float64
}

// Set-up runs on one P per executor of the rig; the timed ops run on one
// P, so an op's latency is its work and its waits on one CPU. On the
// 2-vCPU VM the benchmark was tuned on, a second P made no op faster
// (three seeds each, interleaved: analytic-join query_p50_ms 12.1-12.9 ms
// on two Ps, 12.1-13.4 on one; point-lookup 0.106 against 0.066) while it
// cost a quarter more CPU per op and put a wake-up of another OS thread
// into every hand-off between goroutines; one run on two Ps took 15.1 ms
// at p50 with no steal time and less CPU than the runs beside it. Fixed
// counts also keep the figures apart from the machine's core count.
const (
	setupProcs = rigServers * rigExecutors
	timedProcs = 1
)

// runWorkload boots sz.Setups rigs (keeping the last), then runs n ops of
// workload w generated from seed: with tracing off for the end-to-end
// metrics, or, with traced, alternately untraced and traced for the
// per-layer budget. Every answer is checked as soon as its timer stops.
func runWorkload(w workload, sz sizes, seed int64, n int, traced bool) (*result, error) {
	data := tpcds.Generate(tpcds.Config{Scale: dataScale, Seed: tpcdsSeed})
	loadedRows := len(data.StoreSales)
	g := newGenerator(sz, data, seed)
	all := w.gen(g, sz.Warmup+n)
	warm, timed := all[:sz.Warmup], all[sz.Warmup:]
	res := &result{workload: w.name, ops: n, opDigest: digest(timed)}
	// A workload without writes of its own times a write probe, sent to
	// another table, on every rig it sets up.
	var probe []op
	if !traced && all[0].write == nil {
		probe = g.probe()
	}

	cal := newCalibrator()
	runtime.GOMAXPROCS(setupProcs)
	var setups, rawSetups []float64
	var probes []probeResult
	var s *setup
	for i := 0; i < sz.Setups; i++ {
		if s != nil {
			s.rig.Close()
		}
		runtime.GC()
		mark := cal.mark()
		cal.sample(setupSamples)
		var err error
		if s, err = bootRig(w, warm, probe != nil); err != nil {
			return nil, err
		}
		cal.sample(setupSamples)
		setups = append(setups, s.elapsed.Seconds()*cal.factor(mark))
		rawSetups = append(rawSetups, s.elapsed.Seconds())
		if probe != nil {
			share := probe[i*len(probe)/sz.Setups : (i+1)*len(probe)/sz.Setups]
			p, err := s.probeWrites(share, res, cal)
			if err != nil {
				return nil, err
			}
			probes = append(probes, p)
		}
	}
	defer s.rig.Close()
	res.attempted += len(warm)
	res.failed += s.warmFailed
	if s.warmFailed > 0 {
		res.firstFailure = fmt.Sprintf("%d warm-up ops failed", s.warmFailed)
	}

	steps, err := s.prepare(timed)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(timedProcs)
	runtime.GC()
	if traced {
		b := newBudget()
		gc := startGCPacer()
		for i, st := range steps {
			if i%2 == 0 {
				res.record(st, s.do(st))
			} else {
				o := s.traced(st, b)
				o.lat = 0 // kept in b.tracedLat, apart from the untraced reads
				res.record(st, o)
			}
			gc.between()
		}
		gc.stop()
		res.tracedOps = b.steps
		res.plainP50 = quantileMs(res.reads, 0.5)
		res.tracedP50 = quantileMs(b.tracedLat, 0.5)
		res.wallMs = meanMs(b.tracedLat)
		res.outerMs = float64(b.outer) / 1e6 / float64(max(b.steps, 1))
		res.attributedMs = float64(b.attributed) / 1e6 / float64(max(b.steps, 1))
		res.counts = b.counts
		res.layers = b.metrics(res, s.storeFilesPerRegion("store_sales"))
		return res, nil
	}

	mark, cpu0 := cal.mark(), cal.cpu
	ph := s.measure(steps, res, loadedRows, cal, every(w.opsPerSecond))
	f, fCPU := cal.factor(mark), cal.cpuFactor(mark, cpu0)
	res.speed, res.cpuSpeed = f, fCPU
	readP50, cpuMs := quantileMs(res.reads, 0.5), ph.cpu.Seconds()*1e3/float64(n)
	// The write figures come from the timed phase, or from the median rig
	// of the probe: how fast a rig takes writes varies from rig to rig
	// (one in five or so ran the probe 50% slower), so one rig would not
	// do.
	write := probeResult{
		p50: f * quantileMs(res.writes, 0.5), p95: f * quantileMs(res.writes, 0.95),
		rawP50: quantileMs(res.writes, 0.5),
	}
	if probes != nil {
		write = medianProbe(probes)
	}
	// The p95s are printed with their sample counts but are not among the
	// JSON metrics: on a host whose other tenants take CPU time they moved
	// far more than the p50s (see the README).
	res.tails = []metric{
		{"query_p95_ms", f * quantileMs(res.reads, 0.95), "ms"},
		{"write_ack_p95_ms", write.p95, "ms"},
	}
	res.raw = []metric{
		{"setup_s", median(rawSetups), "s"},
		{"query_p50_ms", readP50, "ms"},
		{"write_ack_p50_ms", write.rawP50, "ms"},
		{"cpu_ms_per_op", cpuMs, "ms"},
	}
	// The samples are the benchmark's, not the program's: drop them, and
	// the op lists, before weighing the heap.
	res.nReads, res.nWrites = len(res.reads), len(res.writes)
	res.reads, res.writes = nil, nil
	all, warm, timed, steps, probe = nil, nil, nil, nil, nil
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	nops := float64(n)
	res.e2e = []metric{
		{"setup_s", median(setups), "s"},
		{"query_p50_ms", f * readP50, "ms"},
		{"write_ack_p50_ms", write.p50, "ms"},
		{"cpu_ms_per_op", fCPU * cpuMs, "ms"},
		{"alloc_kb_per_op", float64(ph.alloc) / 1024 / nops, "KiB"},
		{"net_bytes_per_op", float64(ph.counts[metrics.RPCBytesSent]+ph.counts[metrics.RPCBytesReceived]) / nops, "bytes"},
		{"heap_live_mb", float64(m.HeapAlloc) / (1 << 20), "MiB"},
		{"space_amp", ph.spaceAmp, "ratio"},
		{"success_rate", float64(res.attempted-res.failed) / float64(res.attempted), "ratio"},
	}
	res.counts = ph.counts
	return res, nil
}

// digest hashes an op list, so runs can be compared without keeping it.
func digest(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%s|%v|%d\n", o.sql, o.write, o.writeTS)
	}
	return h.Sum64()
}

// record checks one step's answer against the oracle and keeps its
// latencies if it is correct; the answer itself is dropped.
func (res *result) record(st step, o outcome) {
	res.attempted++
	err := o.err
	if err == nil {
		err = checkAnswer(o.rows, st.want)
	}
	if err != nil {
		res.failed++
		if res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("%s: %v", st.sql, err)
		}
		return
	}
	if o.lat > 0 {
		res.reads = append(res.reads, o.lat)
	}
	if st.writer != nil {
		res.writes = append(res.writes, o.ack)
	}
}

// phase is what the untraced timed phase measured.
type phase struct {
	cpu      time.Duration
	alloc    uint64
	counts   map[string]int64
	spaceAmp float64
}

// measure runs the steps in one closed loop with tracing off, dropping
// each step once done. space_amp is store_sales' stored bytes over the
// oracle's live bytes, averaged over samples taken after every write (once
// at the end for a read-only workload), since flushes and compactions
// make it a sawtooth.
func (s *setup) measure(steps []step, res *result, loadedRows int, cal *calibrator, calEvery int) phase {
	ph := phase{counts: make(map[string]int64)}
	var ampSum float64
	var ampN int
	res.reads = make([]time.Duration, 0, len(steps))
	if steps[0].writer != nil {
		res.writes = make([]time.Duration, 0, len(steps))
	}
	gc := startGCPacer()
	before := s.rig.Meter.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	kernelCPU := cal.cpu
	cpu0 := cpuTime()
	for i, st := range steps {
		steps[i] = step{}
		res.record(st, s.do(st))
		if st.writer != nil {
			ampSum += float64(s.tableBytes("store_sales")) / float64(st.liveRows*salesRowBytes)
			ampN++
		}
		gc.between()
		cal.after(calEvery)
	}
	// The kernel's CPU time is the benchmark's, not the program's.
	ph.cpu = cpuTime() - cpu0 - (cal.cpu - kernelCPU)
	runtime.ReadMemStats(&m1)
	gc.stop()
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.counts = metrics.Diff(before, s.rig.Meter.Snapshot())
	if ampN == 0 {
		ampSum, ampN = float64(s.tableBytes("store_sales"))/float64(loadedRows*salesRowBytes), 1
	}
	ph.spaceAmp = ampSum / float64(ampN)
	return ph
}

// probeEvery is the probe writes between two kernel samples.
const probeEvery = 4

// probeResult is a write probe's ack latency at reference speed, and the
// clock's p50.
type probeResult struct{ p50, p95, rawP50 float64 }

// probeWrites times one rig's share of the write probe of a read-only
// workload, one insert at a time on the timed phase's Ps, outside the
// set-up time and the read phase's CPU, allocation and counter figures.
// A count(*) then checks the probe table, and the table is dropped so the
// reads that follow on this rig find store_sales the only table written.
func (s *setup) probeWrites(share []op, res *result, cal *calibrator) (probeResult, error) {
	steps, err := s.prepare(append(slices.Clone(share), op{
		sql: "SELECT count(*) FROM " + probeTable, want: []plan.Row{{int64(len(share) * batchRows)}},
	}))
	if err != nil {
		return probeResult{}, err
	}
	writes, check := steps[:len(share)], steps[len(share)]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(timedProcs))
	runtime.GC()
	gc := startGCPacer()
	first, mark := len(res.writes), cal.mark()
	for _, st := range writes {
		var o outcome
		t0 := time.Now()
		o.err = st.writer.Insert(st.write)
		o.ack = time.Since(t0)
		res.record(st, o)
		gc.between()
		cal.after(probeEvery)
	}
	gc.stop()
	f, acks := cal.factor(mark), res.writes[first:]
	p := probeResult{f * quantileMs(acks, 0.5), f * quantileMs(acks, 0.95), quantileMs(acks, 0.5)}
	o := s.do(check)
	o.lat = 0 // a check, not a sample
	res.record(check, o)
	if err := s.rig.Client.DeleteTable(probeTable); err != nil {
		return probeResult{}, fmt.Errorf("drop %s: %w", probeTable, err)
	}
	return p, nil
}

// medianProbe is the probe of the median rig, by ack p50.
func medianProbe(ps []probeResult) probeResult {
	s := append([]probeResult(nil), ps...)
	sort.Slice(s, func(i, j int) bool { return s[i].p50 < s[j].p50 })
	return s[len(s)/2]
}

// gcEvery is how many bytes the program may allocate between two
// collections while ops are timed.
const gcEvery = 64 << 20

// gcPacer keeps garbage collection out of the timed ops. While it runs,
// automatic collection is off, and between ops, outside every timer, it
// collects once gcEvery bytes have been allocated since the last
// collection. A collection then lands at the same op in every run instead
// of inside whichever op the runtime's pacer picks; its CPU time still
// counts in cpu_ms_per_op.
type gcPacer struct {
	allocs  []rtmetrics.Sample
	last    uint64
	percent int
}

func startGCPacer() *gcPacer {
	p := &gcPacer{allocs: []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
	p.percent = debug.SetGCPercent(-1)
	p.last = p.allocated()
	return p
}

func (p *gcPacer) allocated() uint64 {
	rtmetrics.Read(p.allocs)
	return p.allocs[0].Value.Uint64()
}

// between runs between two ops.
func (p *gcPacer) between() {
	if a := p.allocated(); a-p.last >= gcEvery {
		runtime.GC()
		p.last = a
	}
}

func (p *gcPacer) stop() { debug.SetGCPercent(p.percent) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileMs is the q-quantile of ds in milliseconds, interpolating
// between the two nearest ranks.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / 1e6
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(v)-1)
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func meanMs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / 1e6 / float64(max(len(ds), 1))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
