package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
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
