package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

func TestNewSessionRejectsOutOfRangeConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative executors", Config{ExecutorsPerHost: -1}, "ExecutorsPerHost"},
		{"negative shuffle partitions", Config{ShufflePartitions: -4}, "ShufflePartitions"},
		{"negative broadcast threshold", Config{BroadcastThreshold: -10}, "BroadcastThreshold"},
		{"negative query timeout", Config{QueryTimeout: -time.Second}, "QueryTimeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(tc.cfg)
			if err == nil {
				t.Fatalf("NewSession(%+v) accepted invalid config", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the bad field %s", err, tc.want)
			}
			if s != nil {
				t.Error("invalid config still returned a session")
			}
		})
	}
}

func TestNewSessionDefaults(t *testing.T) {
	s, err := NewSession(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if len(cfg.Hosts) != 1 || cfg.Hosts[0] != "local" {
		t.Errorf("default Hosts = %v, want [local]", cfg.Hosts)
	}
	if cfg.ExecutorsPerHost != 2 {
		t.Errorf("default ExecutorsPerHost = %d, want 2", cfg.ExecutorsPerHost)
	}
	if cfg.Meter == nil {
		t.Error("default Meter is nil")
	}
	if cfg.TaskRetries != 3 {
		t.Errorf("default TaskRetries = %d, want 3", cfg.TaskRetries)
	}
	if cfg.QueryTimeout != 0 {
		t.Errorf("default QueryTimeout = %v, want 0 (none)", cfg.QueryTimeout)
	}
}

// TestCollectContextCancelledQuery: a dead context aborts the query with the
// context's error and the cancellation is counted.
func TestCollectContextCancelledQuery(t *testing.T) {
	m := metrics.NewRegistry()
	s := newTestSession(t)
	s.meter = m
	s.cfg.Meter = m
	df, err := s.SQL(`SELECT id FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := df.CollectContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := m.Get(metrics.QueriesCancelled); got != 1 {
		t.Errorf("engine.queries_cancelled = %d, want 1", got)
	}
}

// TestQueryTimeoutExpires: an unmeetable QueryTimeout turns into
// DeadlineExceeded through the whole stack.
func TestQueryTimeoutExpires(t *testing.T) {
	s := newTestSession(t)
	s.cfg.QueryTimeout = time.Nanosecond
	df, err := s.SQL(`SELECT id FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.CollectContext(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := s.meter.Get(metrics.QueriesCancelled); got == 0 {
		t.Error("timed-out query not counted in engine.queries_cancelled")
	}
}

// TestCountContextHonorsContext: the Count action takes the same context
// plumbing as Collect.
func TestCountContextHonorsContext(t *testing.T) {
	s := newTestSession(t)
	df, err := s.SQL(`SELECT id FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := df.CountContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("count = %d, want 40", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := df.CountContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled count err = %v, want context.Canceled", err)
	}
}
