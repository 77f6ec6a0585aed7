package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/trace"
)

// TestExplainAnalyzeAnnotatesActualsMatchingMetrics: the analyzed report
// carries per-operator actuals, and the root operator's annotated row
// count equals both the collected row count and the query-scoped
// rows_returned-style counters captured during the same run.
func TestExplainAnalyzeAnnotatesActualsMatchingMetrics(t *testing.T) {
	s := newTestSession(t)
	df, err := s.SQL("SELECT id, age FROM users WHERE age < 30")
	if err != nil {
		t.Fatal(err)
	}
	rows, tr, scope, phys, err := df.AnalyzeContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("query returned no rows")
	}
	st, ok := exec.OpStatsOf(phys)
	if !ok {
		t.Fatal("root plan is not instrumented")
	}
	if st.Rows != int64(len(rows)) {
		t.Errorf("root annotated rows = %d, Collect returned %d", st.Rows, len(rows))
	}
	if scope.Histogram(metrics.HistQueryLatency).Count() != 1 {
		t.Errorf("scoped query-latency histogram count = %d, want 1",
			scope.Histogram(metrics.HistQueryLatency).Count())
	}
	for _, phase := range []string{"optimize", "compile", "execute"} {
		if len(tr.Find(phase)) != 1 {
			t.Errorf("trace missing %q span:\n%s", phase, tr.Render())
		}
	}
	if len(tr.Find("parse")) != 1 {
		t.Errorf("SQL-built frame missing back-dated parse span:\n%s", tr.Render())
	}

	report, err := df.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"== Optimized Logical Plan ==",
		"== Physical Plan (actual) ==",
		"(actual rows=",
		"== Query Trace ==",
		"== Query Metrics ==",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// TestCollectContextHonorsCallerTrace: a caller-provided trace on a plain
// Collect picks up the phase spans without ExplainAnalyze.
func TestCollectContextHonorsCallerTrace(t *testing.T) {
	s := newTestSession(t)
	df, err := s.SQL("SELECT COUNT(*) AS n FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("collect")
	if _, err := df.CollectContext(trace.NewContext(context.Background(), tr)); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for _, phase := range []string{"optimize", "compile", "execute"} {
		if len(tr.Find(phase)) != 1 {
			t.Errorf("trace missing %q span:\n%s", phase, tr.Render())
		}
	}
	if len(tr.Find("task")) == 0 {
		t.Errorf("no task spans under traced collect:\n%s", tr.Render())
	}
}

// TestSlowQueryLogEmitsStructuredRecord: a threshold below any real
// query's wall time makes every action leave one slow-query line with the
// plan shape and slowest spans on the injected writer.
func TestSlowQueryLogEmitsStructuredRecord(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewSession(Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	mem := newTestSession(t)
	s.Register(mem.tables["users"])

	df, err := s.SQL("SELECT id FROM users WHERE age < 25")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasPrefix(line, "slow-query fingerprint=") {
		t.Fatalf("slow log = %q, want slow-query record", line)
	}
	for _, want := range []string{"dur=", "shape=", "ScanExec", "slowest=[", "execute="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log missing %q: %q", want, line)
		}
	}
	if strings.Count(line, "\n") != 1 {
		t.Errorf("slow log not a single line: %q", line)
	}
}

// TestSlowQueryLogQuietBelowThreshold: a generous threshold emits nothing.
func TestSlowQueryLogQuietBelowThreshold(t *testing.T) {
	var buf bytes.Buffer
	s := newTestSession(t)
	s.cfg.SlowQueryThreshold = time.Hour
	s.cfg.SlowQueryLog = &buf
	if _, err := mustCollect(t, s, "SELECT id FROM users"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("slow log wrote below threshold: %q", buf.String())
	}
}

// TestValidateRejectsNegativeSlowQueryThreshold guards the config seam.
func TestValidateRejectsNegativeSlowQueryThreshold(t *testing.T) {
	if _, err := NewSession(Config{SlowQueryThreshold: -time.Second}); err == nil {
		t.Fatal("negative SlowQueryThreshold accepted")
	}
}

func mustCollect(t *testing.T, s *Session, q string) ([]interface{}, error) {
	t.Helper()
	df, err := s.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		return nil, err
	}
	out := make([]interface{}, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out, nil
}

// TestQueryStatsAggregateByFingerprint: runs differing only in literals
// fold into one fingerprint entry, and the slow-query log keys into it.
func TestQueryStatsAggregateByFingerprint(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewSession(Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	if err != nil {
		t.Fatal(err)
	}
	mem := newTestSession(t)
	s.Register(mem.tables["users"])

	for _, q := range []string{
		"SELECT id FROM users WHERE age < 25",
		"SELECT id FROM users WHERE age < 70",
	} {
		if _, err := mustCollect(t, s, q); err != nil {
			t.Fatal(err)
		}
	}
	top := s.QueryStats().Top(0)
	if len(top) != 1 {
		t.Fatalf("fingerprint entries = %d, want 1 (literals must not fragment): %+v", len(top), top)
	}
	st := top[0]
	if st.Count != 2 {
		t.Errorf("count = %d, want 2", st.Count)
	}
	if st.Rows == 0 {
		t.Error("no rows recorded")
	}
	if !strings.Contains(st.Shape, "?") || strings.Contains(st.Shape, "25") {
		t.Errorf("shape not normalized: %q", st.Shape)
	}
	if st.SlowCount != 2 {
		t.Errorf("slow count = %d, want 2 (threshold is 1ns)", st.SlowCount)
	}
	if !strings.Contains(st.LastSlow, "fingerprint="+st.Fingerprint) {
		t.Errorf("last slow line %q does not reference fingerprint %s", st.LastSlow, st.Fingerprint)
	}

	// A structurally different statement lands in its own entry.
	if _, err := mustCollect(t, s, "SELECT id FROM users"); err != nil {
		t.Fatal(err)
	}
	if n := s.QueryStats().Len(); n != 2 {
		t.Errorf("fingerprint entries after new shape = %d, want 2", n)
	}
}
