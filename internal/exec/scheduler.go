// Package exec is the physical execution layer: a locality-aware task
// scheduler with per-node executor pools (the Spark analogue, paper
// §III-A), physical operators compiled from logical plans, and a metered
// shuffle. The scheduler honours each partition's preferred host exactly
// the way SHC's getPreferredLocations contract expects (paper §VI-A.2):
// a task whose data lives on a host with executors runs on that host.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// Task is one schedulable unit of work.
type Task struct {
	// PreferredHost names where the task's data lives; "" means anywhere.
	PreferredHost string
	// Run does the work. The context is cancelled when the run aborts —
	// the caller gave up or another task failed permanently — so tasks
	// should pass it down to their RPCs and stop early when it is done.
	Run func(ctx context.Context) error
}

// RetryableTransport classifies the transport-level failures worth
// re-executing a task for: the host it talked to died or dropped the
// connection. Anything else (bad plans, decode errors, server-side logic
// errors) is deterministic and would fail identically elsewhere. Context
// errors are never retryable — a cancelled or timed-out task would only be
// cancelled again.
func RetryableTransport(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrConnClosed) || errors.Is(err, rpc.ErrUnknownHost)
}

// Scheduler distributes tasks over a set of hosts, each with a fixed
// number of executor slots. It is the simulator's stand-in for Spark's
// task scheduler + YARN executor allocation; the Fig. 6 experiment sweeps
// ExecutorsPerHost.
type Scheduler struct {
	hosts    []string
	slots    int
	meter    *metrics.Registry
	hostIdx  map[string]int
	rrCursor int
	mu       sync.Mutex
}

// maxTaskAttempts caps a task's attempts: a task failing with an error
// RetryableTransport accepts is re-queued on a different host until it has
// run this many times, the lineage-based recovery contract of Spark-style
// engines, before its error surfaces.
const maxTaskAttempts = 3

// NewScheduler creates a scheduler over hosts with slots executors each.
func NewScheduler(hosts []string, slotsPerHost int, meter *metrics.Registry) *Scheduler {
	if slotsPerHost <= 0 {
		slotsPerHost = 1
	}
	idx := make(map[string]int, len(hosts))
	for i, h := range hosts {
		idx[h] = i
	}
	return &Scheduler{hosts: hosts, slots: slotsPerHost, meter: meter, hostIdx: idx}
}

// Hosts returns the scheduler's host list.
func (s *Scheduler) Hosts() []string { return s.hosts }

// TotalSlots returns the cluster-wide executor count.
func (s *Scheduler) TotalSlots() int { return s.slots * len(s.hosts) }

// runTask is one task's mutable scheduling state within a Run call.
type runTask struct {
	task     Task
	attempts int       // attempts started
	enqueued time.Time // when the task last entered a queue (for queue-wait)
}

// hostQueue is one host's share of a Run call: the tasks queued on it and
// its workers.
type hostQueue struct {
	tasks   []*runTask
	workers int // workers started, the caller included
	parked  int // workers waiting in take
}

// runState coordinates one Run call: per-host queues fed to workers, a
// remaining-task count, and the abort flag that stops dispatch after a
// permanent failure or caller cancellation.
type runState struct {
	s      *Scheduler
	ctx    context.Context    // the run's derived context, handed to tasks
	cancel context.CancelFunc // cancels in-flight tasks when the run aborts
	meter  metrics.Meter      // scheduler registry + the query's scope
	wg     sync.WaitGroup     // the workers started besides the caller

	mu        sync.Mutex
	cond      sync.Cond
	queues    []hostQueue
	perHost   int // the most workers a host gets: its slots, at most one per task
	remaining int // tasks not yet finished (succeeded, failed, or dropped)
	aborted   bool
	errs      []error
	done      bool
}

// Run executes all tasks with no caller deadline.
func (s *Scheduler) Run(tasks []Task) error {
	return s.RunContext(context.Background(), tasks)
}

// RunContext executes all tasks, placing each on its preferred host when
// that host has executors and falling back to round-robin otherwise. A task
// failing with a retryable transport error is re-executed on a different
// host (up to maxTaskAttempts attempts).
//
// The calling goroutine is one of the run's workers: it serves the first
// host with queued work, and each host gets further goroutines only for
// tasks that could run beside it — as many workers as it has queued
// tasks, up to its slots, with one started later when a retry lands on a
// host whose workers are all busy. A one-task run, every point lookup,
// therefore runs on the caller's goroutine and starts none.
//
// The run stops early two ways, both counted in exec.tasks_cancelled for every
// queued task dropped unstarted. A permanent task failure aborts the run:
// queued tasks are dropped, in-flight ones see their context cancelled, and
// every permanent error comes back joined. Cancelling ctx does the same
// from the outside, and the run returns ctx's error — the uniform signal a
// caller that gave up expects, regardless of which task noticed first.
func (s *Scheduler) RunContext(ctx context.Context, tasks []Task) error {
	if len(s.hosts) == 0 {
		return fmt.Errorf("exec: scheduler has no hosts")
	}
	if len(tasks) == 0 {
		return ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runState{
		s: s, ctx: runCtx, cancel: cancel, meter: metrics.Scoped(ctx, s.meter),
		queues: make([]hostQueue, len(s.hosts)), perHost: min(s.slots, len(tasks)), remaining: len(tasks),
	}
	r.cond.L = &r.mu
	now := time.Now()
	slab := make([]runTask, len(tasks))
	for j, t := range tasks {
		i, local := s.hostIdx[t.PreferredHost]
		if !local {
			s.mu.Lock()
			i = s.rrCursor % len(s.hosts)
			s.rrCursor++
			s.mu.Unlock()
		} else {
			r.meter.Inc(metrics.TasksLocal)
		}
		r.meter.Inc(metrics.TasksLaunched)
		slab[j] = runTask{task: t, attempts: 1, enqueued: now}
		r.queues[i].tasks = append(r.queues[i].tasks, &slab[j])
	}

	// Caller cancellation aborts the run: queued tasks drop, parked workers
	// wake and exit. In-flight tasks see runCtx cancelled directly.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			r.mu.Lock()
			r.abortLocked()
			r.mu.Unlock()
		})
		defer stop()
	}

	caller := -1
	r.mu.Lock()
	for h := range r.queues {
		for w := min(r.perHost, len(r.queues[h].tasks)); w > 0; w-- {
			if caller < 0 {
				caller = h
				r.queues[h].workers++
				continue
			}
			r.startLocked(h)
		}
	}
	r.mu.Unlock()
	if caller >= 0 { // else an abort already dropped every task
		r.work(caller)
	}
	r.wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		// The caller cancelled; its context error is the story, not the
		// pile of per-task cancellation errors it caused.
		return cerr
	}
	return errors.Join(r.errs...)
}

// startLocked (r.mu held) starts one more worker goroutine on host.
func (r *runState) startLocked(host int) {
	r.queues[host].workers++
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.work(host)
	}()
}

// work drains one host's queue until the run completes. Each attempt runs
// under its own "task" span (host, attempt, outcome) with its queue wait
// and runtime recorded in the scheduler histograms; the span's context is
// what the task passes to its RPCs, so per-call and server-side spans nest
// under the attempt that issued them.
func (r *runState) work(host int) {
	for {
		t := r.take(host)
		if t == nil {
			return
		}
		r.meter.Observe(metrics.HistQueueWait, time.Since(t.enqueued))
		tctx, sp := trace.StartSpan(r.ctx, "task")
		sp.SetTag("host", r.s.hosts[host])
		sp.SetAttr("attempt", int64(t.attempts))
		start := time.Now()
		// Label the attempt's goroutine so CPU profiles attribute samples to
		// the executor host (nesting under the engine's query_fingerprint
		// label, which rode in on r.ctx).
		var err error
		pprof.Do(tctx, pprof.Labels("host", r.s.hosts[host]), func(tctx context.Context) {
			err = t.task.Run(tctx)
		})
		r.meter.Observe(metrics.HistTaskRun, time.Since(start))
		sp.SetError(err)
		r.finish(host, t, err, sp)
		sp.End()
	}
}

// take pops the next task queued on host, blocking until one arrives or the
// run is done.
func (r *runState) take(host int) *runTask {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := &r.queues[host]
	for len(q.tasks) == 0 && !r.done {
		q.parked++
		r.cond.Wait()
		q.parked--
	}
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t
}

// abortLocked (r.mu held) stops dispatch: queued-but-unstarted tasks are
// dropped and counted as cancelled, in-flight tasks get their context
// cancelled, and parked workers wake. Idempotent.
func (r *runState) abortLocked() {
	if r.aborted {
		return
	}
	r.aborted = true
	dropped := 0
	for i := range r.queues {
		dropped += len(r.queues[i].tasks)
		r.queues[i].tasks = nil
	}
	if dropped > 0 {
		r.meter.Add(metrics.TasksCancelled, int64(dropped))
		r.remaining -= dropped
	}
	if r.remaining == 0 {
		r.done = true
	}
	r.cancel()
	r.cond.Broadcast()
}

// finish records a task attempt's outcome: success retires the task, a
// retryable failure re-queues it on the next host, and a permanent failure
// aborts the run — queued-but-unstarted tasks are dropped and in-flight
// ones cancelled, so a failed query stops consuming the cluster.
func (r *runState) finish(host int, t *runTask, err error, sp *trace.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil && !r.aborted && RetryableTransport(err) && t.attempts < maxTaskAttempts {
		t.attempts++
		t.enqueued = time.Now()
		target := (host + 1) % len(r.queues) // a different host when one exists
		q := &r.queues[target]
		q.tasks = append(q.tasks, t)
		if len(q.tasks) > q.parked && q.workers < r.perHost {
			// Every worker on target is busy or spoken for: the retry
			// gets one of the host's unused slots.
			r.startLocked(target)
		}
		r.meter.Inc(metrics.TasksRetried)
		sp.SetTag("outcome", "retried")
		r.cond.Broadcast()
		return
	}
	if err != nil {
		r.errs = append(r.errs, err)
		r.abortLocked()
	}
	r.remaining--
	if r.remaining == 0 {
		r.done = true
	}
	r.cond.Broadcast()
}
