package hbase

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

// ErrServerBusy reports that a region server shed a request because its
// in-flight limit and wait queue were both full. It is retryable — the
// client backs off and resends — but unlike a crash it does NOT invalidate
// region locations or trigger reassignment: the server is alive, just
// saturated, and the region still lives there.
var ErrServerBusy = errors.New("hbase: server busy")

// ErrMemstoreFull reports a write rejected because the server's aggregate
// MemStore size is above its high watermark: accepting more would risk
// unbounded buffering while flushes catch up. It is retryable and, like
// ErrServerBusy, does NOT invalidate region locations — the region is
// exactly where the client thinks, the server just needs to drain.
var ErrMemstoreFull = errors.New("hbase: memstore above high watermark")

// ServerLimits bounds the concurrent work one region server accepts — the
// admission-control half of workload management. Zero values mean
// unlimited (the default, matching the pre-overload-protection behaviour).
type ServerLimits struct {
	// MaxInFlight caps the data RPCs executing concurrently; 0 = unlimited.
	MaxInFlight int
	// MaxQueue caps the callers allowed to wait for an execution slot once
	// MaxInFlight is reached. Arrivals beyond it are shed with
	// ErrServerBusy. 0 = nobody queues (shed as soon as slots are full).
	MaxQueue int
	// ServiceTime is simulated per-RPC server-side work, spent while holding
	// an execution slot. The network's CallLatency models the wire, which is
	// why it cannot contend for slots; ServiceTime is what makes a bounded
	// server actually saturate under concurrent load. 0 = instant service.
	ServiceTime time.Duration
	// MemstoreLowWatermarkBytes is the aggregate MemStore size (across every
	// region the server hosts) above which writes are delayed: the server
	// flushes its largest MemStore and sleeps MemstoreDelay before applying
	// the write, pacing ingest to flush throughput. 0 disables the delay
	// watermark.
	MemstoreLowWatermarkBytes int
	// MemstoreHighWatermarkBytes is the aggregate MemStore size above which
	// writes are rejected with the retryable ErrMemstoreFull (after one
	// forced flush of the largest MemStore fails to bring the total back
	// under). This is the hard bound that keeps a write burst from buffering
	// unbounded memory. 0 disables the reject watermark.
	MemstoreHighWatermarkBytes int
	// MemstoreDelay is the pause imposed on each write while the server is
	// between the low and high watermarks (default 1ms when a low watermark
	// is set).
	MemstoreDelay time.Duration
}

// admission is the gate every data RPC passes through when limits are set.
// Heartbeats bypass it: liveness probes must land even on a saturated
// server, or overload would masquerade as death and trigger reassignment.
type admission struct {
	limits ServerLimits
	meter  *metrics.Registry

	mu      sync.Mutex
	inUse   int             // RPCs currently executing
	waiting int             // RPCs queued for a slot
	waiters []chan struct{} // FIFO queue of parked callers
}

func newAdmission(limits ServerLimits, meter *metrics.Registry) *admission {
	return &admission{limits: limits, meter: meter}
}

// enter claims an execution slot, queueing (bounded) when none is free.
// It returns ErrServerBusy when the queue is full and ctx's error when the
// caller gives up while parked.
func (a *admission) enter(ctx context.Context) error {
	if a == nil || a.limits.MaxInFlight <= 0 {
		return nil
	}
	a.mu.Lock()
	if a.inUse < a.limits.MaxInFlight {
		a.inUse++
		a.mu.Unlock()
		return nil
	}
	if a.waiting >= a.limits.MaxQueue {
		a.mu.Unlock()
		metrics.Scoped(ctx, a.meter).Inc(metrics.ServerShed)
		return fmt.Errorf("%w: %d in flight, %d queued", ErrServerBusy, a.limits.MaxInFlight, a.limits.MaxQueue)
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.waiting++
	a.meter.SetMax(metrics.ServerQueuePeak, int64(a.waiting))
	metrics.ScopeFrom(ctx).SetMax(metrics.ServerQueuePeak, int64(a.waiting))
	a.mu.Unlock()

	select {
	case <-ch:
		// leave() granted us the slot (inUse already counts us).
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		// Remove ourselves unless a grant raced the cancellation.
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.waiting--
				a.mu.Unlock()
				return ctx.Err()
			}
		}
		a.mu.Unlock()
		// Slot was granted concurrently; hand it back.
		a.leave()
		return ctx.Err()
	}
}

// leave releases an execution slot, handing it to the oldest waiter if any.
func (a *admission) leave() {
	if a == nil || a.limits.MaxInFlight <= 0 {
		return
	}
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.waiting--
		// The slot transfers directly: inUse stays constant.
		a.mu.Unlock()
		close(ch)
		return
	}
	a.inUse--
	a.mu.Unlock()
}
