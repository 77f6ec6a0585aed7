package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// The benchmark runs on shared machines whose speed moves by more than the
// time metrics' bounds, between runs and within one. On the 2-vCPU VM the
// benchmark was tuned on, the median latency of analytic-join over 100-op
// windows of one run moved between 7.1 and 12.0 ms while a dependent chain
// of integer multiplies did not move at all: other tenants slow down code
// that works through caches and memory, not the arithmetic units. So a run
// also times a fixed reference computation (the calibrator's kernel),
// interleaved with its set-ups and its timed ops but outside every timer,
// and scales each time metric by refKernel ÷ the median kernel time of the
// same phase. A time metric then reads as if the host ran at reference
// speed. The kernel uses no program code and allocates nothing, so a change
// to the program moves the scaled figures as it moves the raw ones.
//
// The kernel's parts were chosen by how closely their time followed op
// latency over 100-op windows of one run of point-lookup, scan-agg and
// analytic-join. Timed beside each other, the residual spread of
// log(latency ÷ kernel) was 0.04-0.06 for these parts (at twice the sizes
// used here), against 0.05-0.14 for integer-keyed map lookups alone, and
// 0.16-0.21, no better than the raw latency, for the multiply chain or a
// pointer chase through 32 MiB.

// refKernel is the kernel's time on a quiet run of the reference host (a
// 2-vCPU VM, Go 1.24); it only sets the scale of the reported figures.
const refKernel = 250 * time.Microsecond

// refKernelCPU is the mean process CPU time of one kernel sample between
// the timed ops of a quiet point-lookup run on the reference host.
const refKernelCPU = 265 * time.Microsecond

// calibrateEvery is about how much op time passes between two kernel
// samples of a timed phase, so the kernel costs about a tenth of a run.
// The samples are placed by op count (see every), not by clock, so that a
// run's samples are spread over its ops as the latency samples are.
const calibrateEvery = 3 * time.Millisecond

// setupSamples is how many kernel samples run just before and just after
// each set-up.
const setupSamples = 40

// every is the op count between two kernel samples for a workload running
// about opsPerSecond ops a second.
func every(opsPerSecond float64) int {
	return max(1, int(opsPerSecond*calibrateEvery.Seconds()+0.5))
}

// calibrator holds the kernel's working set, built once before any timer
// starts, and the kernel times of the run.
type calibrator struct {
	// table and keys: integer-keyed hashed lookups over a table of a few
	// MiB, as region views and hash joins do.
	table map[uint64]uint64
	keys  []uint64
	// words go into names and are sorted in sorted: string-keyed map
	// inserts and string comparisons, as catalogs, group keys and sorts
	// do. names keeps its buckets between calls.
	words, sorted []string
	names         map[string]int
	// ints is sorted into scratch: integer comparisons and branches.
	ints, scratch []int32
	// bytes is scanned and hashed, as page encoding and decoding do.
	bytes []byte

	samples []time.Duration
	ops     int           // ops since the last sample in after
	cpu     time.Duration // process CPU time spent in after's samples
	sink    uint64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		table:   make(map[uint64]uint64, 1<<16),
		keys:    make([]uint64, 1<<16),
		names:   make(map[string]int, 1000),
		sorted:  make([]string, 1000),
		ints:    make([]int32, 1024),
		scratch: make([]int32, 1024),
		bytes:   make([]byte, 16<<10),
	}
	for i := range c.keys {
		c.keys[i] = rng.Uint64()
		c.table[c.keys[i]] = uint64(i)
	}
	for i := 0; i < len(c.sorted); i++ {
		c.words = append(c.words, strconv.Itoa(rng.Intn(1e9)))
	}
	for i := range c.ints {
		c.ints[i] = rng.Int31()
	}
	rng.Read(c.bytes)
	return c
}

// kernel is the reference computation: the same work on every call, with
// no allocation.
func (c *calibrator) kernel() {
	var acc uint64
	for i := 0; i < 1024; i++ {
		acc += c.table[c.keys[(i*40503)&(len(c.keys)-1)]]
	}
	clear(c.names)
	for i, w := range c.words {
		c.names[w] = i
	}
	copy(c.sorted, c.words)
	slices.Sort(c.sorted)
	acc += uint64(c.names[c.sorted[len(c.sorted)/2]])
	copy(c.scratch, c.ints)
	slices.Sort(c.scratch)
	acc += uint64(c.scratch[len(c.scratch)/2])
	h := uint64(14695981039346656037)
	for _, b := range c.bytes {
		h = (h ^ uint64(b)) * 1099511628211
	}
	c.sink += acc + h
}

// sample times the kernel n times.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c.kernel()
		c.samples = append(c.samples, time.Since(t0))
	}
}

// after runs once an op is done, outside its timer; it samples the kernel
// once every n ops and keeps the CPU time it spends.
func (c *calibrator) after(n int) {
	if c.ops++; c.ops >= n {
		c.ops = 0
		cpu0 := cpuTime()
		c.sample(1)
		c.cpu += cpuTime() - cpu0
	}
}

// mark is where a phase's samples start.
func (c *calibrator) mark() int { return len(c.samples) }

// factor is refKernel over the median kernel time of the samples taken
// since mark: multiplying a latency or a median of latencies measured in
// that phase by it gives it at reference speed.
func (c *calibrator) factor(mark int) float64 {
	if len(c.samples) <= mark {
		return 1
	}
	v := make([]float64, 0, len(c.samples)-mark)
	for _, d := range c.samples[mark:] {
		v = append(v, float64(d))
	}
	return float64(refKernel) / median(v)
}

// cpuFactor is factor for a CPU total: refKernelCPU over the mean process
// CPU time of the samples after took since mark, when c.cpu read cpu0.
// A median latency follows the median kernel time and a CPU total the
// kernel's total CPU time: over eight point-lookup runs whose median
// kernel time ranged from 241 to 385 µs, query p50 ÷ median kernel time
// stayed within ±4.5% and CPU per op ÷ mean kernel CPU time within ±2.5%,
// while the crossed pairs moved ±9% and ±10%.
func (c *calibrator) cpuFactor(mark int, cpu0 time.Duration) float64 {
	n := len(c.samples) - mark
	if n <= 0 || c.cpu <= cpu0 {
		return 1
	}
	return float64(refKernelCPU) * float64(n) / float64(c.cpu-cpu0)
}
