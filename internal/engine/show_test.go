package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestShowRendersTable(t *testing.T) {
	s := joinSession(t)
	df, err := s.SQL("SELECT id, city FROM users ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.Show(3)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// border, header, border, 3 rows, border = 7 lines.
	if len(lines) != 7 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "id") || !strings.Contains(lines[1], "city") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(out, "| u1") {
		t.Errorf("rows missing:\n%s", out)
	}
	// NULL rendering.
	full, err := df.Show(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full, "NULL") {
		t.Errorf("NULL cell not rendered:\n%s", full)
	}
}

// TestShowContextCancelled: a cancelled context stops Show's query, and
// the context's error comes back.
func TestShowContextCancelled(t *testing.T) {
	s := joinSession(t)
	df, err := s.SQL("SELECT id, city FROM users ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := df.ShowContext(ctx, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("ShowContext under a cancelled context: %q, %v; want context.Canceled", out, err)
	}
}
