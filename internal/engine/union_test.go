package engine

import (
	"strings"
	"testing"
)

func TestUnionAll(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT id FROM users WHERE city = 'sf'
		UNION ALL
		SELECT id FROM users WHERE city = 'sf'
		ORDER BY id`)
	if len(rows) != 4 { // 2 sf users × 2
		t.Fatalf("union all rows = %v", rows)
	}
	if rows[0][0] != "u1" || rows[1][0] != "u1" {
		t.Errorf("duplicates must survive UNION ALL: %v", rows)
	}
}

func TestUnionDeduplicates(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT city FROM users
		UNION
		SELECT city FROM users
		ORDER BY city`)
	if len(rows) != 3 { // NULL, nyc, sf
		t.Fatalf("union rows = %v", rows)
	}
}

func TestUnionPositionalRenameAndLimit(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT id AS who FROM users WHERE id = 'u1'
		UNION ALL
		SELECT uid FROM orders WHERE uid = 'u2'
		ORDER BY who LIMIT 2`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "u1" || rows[1][0] != "u2" {
		t.Errorf("positional union = %v", rows)
	}
	df, err := s.SQL(`SELECT id AS who FROM users UNION ALL SELECT uid FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if df.Schema()[0].Name != "who" {
		t.Errorf("union schema takes the head's names: %s", df.Schema())
	}
}

func TestUnionWidthMismatchRejected(t *testing.T) {
	s := joinSession(t)
	if _, err := s.SQL(`SELECT id FROM users UNION ALL SELECT uid, amount FROM orders`); err == nil {
		t.Error("width mismatch must be rejected")
	}
}

func TestUnionInDerivedTable(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT count(*) FROM (
			SELECT id FROM users UNION ALL SELECT uid FROM orders
		) both`)
	if rows[0][0].(int64) != 10 {
		t.Errorf("derived union count = %v", rows[0][0])
	}
}

func TestUnionPushdownReachesBothSides(t *testing.T) {
	s := joinSession(t)
	df, err := s.SQL(`
		SELECT id FROM users WHERE age IS NULL
		UNION ALL
		SELECT id FROM users WHERE city = 'sf'`)
	// users has no "age" — expect resolution failure; use valid predicate.
	if err == nil {
		if _, err2 := df.Collect(); err2 == nil {
			t.Skip("schema has age?")
		}
	}
	df, err = s.SQL(`
		SELECT id FROM users WHERE city = 'sf'
		UNION ALL
		SELECT id FROM users WHERE city = 'nyc'`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `pushed=[(city = "sf")]`) || !strings.Contains(out, `pushed=[(city = "nyc")]`) {
		t.Errorf("filters should push into both union branches:\n%s", out)
	}
}
