package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram names used across the stack. RPC latency histograms are
// per-method: HistRPCLatencyPrefix + method ("rpc.latency.Scan").
const (
	HistRPCLatencyPrefix = "rpc.latency."
	HistQueueWait        = "exec.queue_wait"
	HistTaskRun          = "exec.task_runtime"
	HistQueryLatency     = "engine.query_latency"
)

// numBounds exponential buckets starting at 1µs and doubling: bucket i
// holds observations ≤ 1µs<<i, the last covers ~9.5 hours, and one
// overflow bucket catches the rest. Fixed bounds keep recording to two
// atomic adds — no allocation, no locks — which is what lets tracing-on
// runs stay within the <5% overhead gate.
const numBounds = 36

// Histogram is a fixed-bucket latency histogram safe for concurrent
// recording. The zero value is ready to use. Quantiles are estimated by
// linear interpolation within the containing bucket, so the relative
// error is bounded by the 2× bucket width.
type Histogram struct {
	buckets [numBounds + 1]atomic.Int64 // +1 = overflow
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration { return time.Microsecond << i }

// bucketFor returns the index of the bucket containing d.
func bucketFor(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	// Index of the highest set bit relative to 1µs, rounding up to the
	// covering power of two.
	us := (d + time.Microsecond - 1) / time.Microsecond
	idx := bits.Len64(uint64(us)) - 1
	if bucketBound(idx) < d {
		idx++
	}
	if idx > numBounds {
		return numBounds // overflow
	}
	return idx
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old {
			return
		}
		if h.max.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by locating the
// containing bucket and interpolating linearly inside it. Returns 0 when
// the histogram is empty. The estimate for the overflow bucket is clamped
// to the observed max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for i := 0; i <= numBounds; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			if i == numBounds {
				return h.Max()
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if m := h.Max(); m < hi {
				hi = m // no observation exceeds the max
			}
			if hi < lo {
				return lo
			}
			frac := float64(rank-seen) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += n
	}
	return h.Max()
}

// reset zeroes the histogram in place.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Buckets returns (upper bound, cumulative count) pairs for every
// non-empty prefix of the bucket array, ending with the +Inf bucket —
// the shape the exposition format wants.
func (h *Histogram) Buckets() ([]time.Duration, []int64) {
	if h == nil {
		return nil, nil
	}
	bounds := make([]time.Duration, 0, numBounds+1)
	counts := make([]int64, 0, numBounds+1)
	var cum int64
	for i := 0; i <= numBounds; i++ {
		cum += h.buckets[i].Load()
		if i == numBounds {
			bounds = append(bounds, -1) // sentinel for +Inf
		} else {
			bounds = append(bounds, bucketBound(i))
		}
		counts = append(counts, cum)
	}
	return bounds, counts
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hists.get(&r.mu, name)
}

// Observe records d into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Histogram(name).Observe(d)
}

// Histograms returns the registered histograms (live references, not
// copies) keyed by name.
func (r *Registry) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists.read())+len(r.hists.dirty))
	r.hists.each(func(name string, h *Histogram) { out[name] = h })
	return out
}
