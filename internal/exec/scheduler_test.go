package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

func TestRunAggregatesEveryPermanentError(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 2, m)
	errA := errors.New("task A failed")
	errB := errors.New("task B failed")
	// Both failing tasks start before either finishes, so both errors are
	// permanent outcomes and both must surface.
	var barrier sync.WaitGroup
	barrier.Add(2)
	fail := func(err error) func(context.Context) error {
		return func(context.Context) error {
			barrier.Done()
			barrier.Wait()
			return err
		}
	}
	err := s.Run([]Task{
		{PreferredHost: "h1", Run: fail(errA)},
		{PreferredHost: "h2", Run: fail(errB)},
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error %v must contain both task errors", err)
	}
}

func TestRunStopsDispatchAfterFailure(t *testing.T) {
	m := metrics.NewRegistry()
	// One worker on one host: strictly serial execution, so everything
	// queued behind the failing task must be dropped, not run.
	s := NewScheduler([]string{"h1"}, 1, m)
	var ran int32
	boom := errors.New("boom")
	tasks := []Task{
		{PreferredHost: "h1", Run: func(context.Context) error { return boom }},
	}
	for i := 0; i < 10; i++ {
		tasks = append(tasks, Task{PreferredHost: "h1", Run: func(context.Context) error {
			atomic.AddInt32(&ran, 1)
			return nil
		}})
	}
	if err := s.Run(tasks); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n != 0 {
		t.Errorf("%d tasks ran after the failure; dispatch must stop", n)
	}
}

func TestRunRetriesTransportFailureOnDifferentHost(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2", "h3"}, 2, m)
	var mu sync.Mutex
	attempts := make(map[int][]string) // task -> hosts it ran on (via queue identity)
	// Tasks report the attempt count; the first attempt fails like a dead
	// region server would.
	var tasks []Task
	for i := 0; i < 6; i++ {
		i := i
		tasks = append(tasks, Task{
			PreferredHost: fmt.Sprintf("h%d", i%3+1),
			Run: func(context.Context) error {
				mu.Lock()
				attempts[i] = append(attempts[i], "run")
				n := len(attempts[i])
				mu.Unlock()
				if n == 1 {
					return fmt.Errorf("scan: %w", rpc.ErrHostDown)
				}
				return nil
			},
		})
	}
	if err := s.Run(tasks); err != nil {
		t.Fatalf("retried run failed: %v", err)
	}
	for i, a := range attempts {
		if len(a) != 2 {
			t.Errorf("task %d ran %d times, want 2", i, len(a))
		}
	}
	if got := m.Get(metrics.TasksRetried); got != 6 {
		t.Errorf("tasks retried = %d, want 6", got)
	}
}

func TestRunRetryExhaustionSurfacesError(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 1, m)
	var runs int32
	err := s.Run([]Task{{Run: func(context.Context) error {
		atomic.AddInt32(&runs, 1)
		return rpc.ErrHostDown
	}}})
	if !errors.Is(err, rpc.ErrHostDown) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&runs); n != 3 {
		t.Errorf("task ran %d times, want 3 (attempt cap)", n)
	}
	if got := m.Get(metrics.TasksRetried); got != 2 {
		t.Errorf("tasks retried = %d, want 2", got)
	}
}

func TestRunDoesNotRetryDeterministicErrors(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 1, m)
	var runs int32
	logic := errors.New("decode failed")
	if err := s.Run([]Task{{Run: func(context.Context) error {
		atomic.AddInt32(&runs, 1)
		return logic
	}}}); !errors.Is(err, logic) {
		t.Fatal("logic error must surface")
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Errorf("deterministic failure ran %d times, want 1", n)
	}
}

func TestRetryableTransportClassifier(t *testing.T) {
	for _, err := range []error{rpc.ErrHostDown, rpc.ErrConnClosed, rpc.ErrUnknownHost} {
		if !RetryableTransport(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("%v must be retryable", err)
		}
	}
	if RetryableTransport(errors.New("plan error")) {
		t.Error("arbitrary errors must not be retryable")
	}
	if RetryableTransport(nil) {
		t.Error("nil must not be retryable")
	}
}

func TestRunManyTasksWithRetriesCompletes(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2", "h3", "h4"}, 4, m)
	var failed int32
	var done int32
	var tasks []Task
	for i := 0; i < 200; i++ {
		i := i
		var once sync.Once
		tasks = append(tasks, Task{
			PreferredHost: fmt.Sprintf("h%d", i%4+1),
			Run: func(context.Context) error {
				if i%7 == 0 {
					var fresh bool
					once.Do(func() { fresh = true })
					if fresh {
						atomic.AddInt32(&failed, 1)
						return rpc.ErrConnClosed
					}
				}
				atomic.AddInt32(&done, 1)
				return nil
			},
		})
	}
	if err := s.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&done) != 200 {
		t.Errorf("completed = %d, want 200", done)
	}
	if got, want := m.Get(metrics.TasksRetried), int64(failed); got != want {
		t.Errorf("retries = %d, want %d", got, want)
	}
	if got := m.Get(metrics.TasksLaunched); got != 200 {
		t.Errorf("launched = %d, want 200 (retries are not fresh launches)", got)
	}
}

// TestRunOneTaskRetriesOnNextHost: a one-task run starts on the caller's
// goroutine, and a transport failure there still re-runs the task on the
// next host, under a task span of its own that records the attempt.
func TestRunOneTaskRetriesOnNextHost(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 1, m)
	tr := trace.New("query")
	runs := 0
	err := s.RunContext(trace.NewContext(context.Background(), tr), []Task{{PreferredHost: "h1", Run: func(context.Context) error {
		runs++
		if runs == 1 {
			return fmt.Errorf("get: %w", rpc.ErrHostDown)
		}
		return nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Find("task")
	if runs != 2 || len(spans) != 2 {
		t.Fatalf("%d runs, %d task spans; want 2 and 2", runs, len(spans))
	}
	for i, want := range []struct {
		host, outcome string
	}{{"h1", "retried"}, {"h2", ""}} {
		sp := spans[i]
		if sp.Tag("host") != want.host || sp.Attr("attempt") != int64(i+1) || sp.Tag("outcome") != want.outcome {
			t.Errorf("span %d: host %q attempt %d outcome %q; want %q, %d, %q",
				i, sp.Tag("host"), sp.Attr("attempt"), sp.Tag("outcome"), want.host, i+1, want.outcome)
		}
	}
	if got := m.Get(metrics.TasksRetried); got != 1 {
		t.Errorf("tasks retried = %d, want 1", got)
	}
}

// TestRunCancelledContextDropsQueuedTasks: cancelling the caller's context
// while the caller's own goroutine runs the first task cancels that task,
// drops the queued ones unstarted, and returns the context's error.
func TestRunCancelledContextDropsQueuedTasks(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1"}, 1, m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	tasks := []Task{{PreferredHost: "h1", Run: func(tctx context.Context) error {
		cancel()
		<-tctx.Done()
		return tctx.Err()
	}}}
	for i := 0; i < 4; i++ {
		tasks = append(tasks, Task{PreferredHost: "h1", Run: func(context.Context) error {
			atomic.AddInt32(&ran, 1)
			return nil
		}})
	}
	if err := s.RunContext(ctx, tasks); err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context's %v", err, ctx.Err())
	}
	if n := atomic.LoadInt32(&ran); n != 0 {
		t.Errorf("%d queued tasks ran after the cancel", n)
	}
	if got := m.Get(metrics.TasksCancelled); got != 4 {
		t.Errorf("tasks cancelled = %d, want 4", got)
	}
}

// TestRunPermanentErrorAbortsCallerTask: a permanent failure on another
// host cancels the task the caller's goroutine is running and drops the
// task queued behind it.
func TestRunPermanentErrorAbortsCallerTask(t *testing.T) {
	m := metrics.NewRegistry()
	s := NewScheduler([]string{"h1", "h2"}, 1, m)
	boom := errors.New("boom")
	started := make(chan struct{})
	var cancelled, ran atomic.Bool
	err := s.Run([]Task{
		{PreferredHost: "h1", Run: func(tctx context.Context) error {
			close(started)
			<-tctx.Done()
			cancelled.Store(true)
			return tctx.Err()
		}},
		{PreferredHost: "h2", Run: func(context.Context) error {
			<-started
			return boom
		}},
		{PreferredHost: "h1", Run: func(context.Context) error {
			ran.Store(true)
			return nil
		}},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !cancelled.Load() || ran.Load() {
		t.Errorf("in-flight task cancelled = %v, queued task ran = %v; want true, false", cancelled.Load(), ran.Load())
	}
	if got := m.Get(metrics.TasksCancelled); got != 1 {
		t.Errorf("tasks cancelled = %d, want 1", got)
	}
}

// oneTaskRunAllocs bounds a no-op one-task run's allocations: the run's
// context, its state, queues and task, and the profiler labels. Starting a
// worker goroutine would add its closure to them.
const oneTaskRunAllocs = 9

// TestRunOneTaskStartsNoGoroutine: a one-task run, every point lookup, runs
// its task on the caller's goroutine.
func TestRunOneTaskStartsNoGoroutine(t *testing.T) {
	s := NewScheduler([]string{"h1", "h2"}, 2, metrics.NewRegistry())
	before := runtime.NumGoroutine()
	during := 0
	tasks := []Task{{PreferredHost: "h1", Run: func(context.Context) error {
		during = runtime.NumGoroutine()
		return nil
	}}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := s.Run(tasks); err != nil {
			t.Fatal(err)
		}
	})
	if during > before {
		t.Errorf("%d goroutines while the task ran, %d before the run; a one-task run must start none", during, before)
	}
	if allocs > oneTaskRunAllocs {
		t.Errorf("one-task run: %.0f allocs, want at most %d", allocs, oneTaskRunAllocs)
	}
}

// BenchmarkSchedulerOneTask times the scheduler's fixed cost: one no-op
// task, the shape of every point lookup.
func BenchmarkSchedulerOneTask(b *testing.B) {
	s := NewScheduler([]string{"h1", "h2"}, 2, metrics.NewRegistry())
	tasks := []Task{{PreferredHost: "h1", Run: func(context.Context) error { return nil }}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Run(tasks); err != nil {
			b.Fatal(err)
		}
	}
}
