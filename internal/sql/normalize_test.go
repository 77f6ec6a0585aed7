package sql

import (
	"fmt"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/plan"
)

func mustNormalize(t *testing.T, q string) *Normalized {
	t.Helper()
	n, err := Normalize(q)
	if err != nil {
		t.Fatalf("Normalize(%q): %v", q, err)
	}
	return n
}

// TestNormalizeKeyMasksLiterals: queries that differ only in expression
// literals, whitespace or comments share a key; the literal kind, the
// LIMIT count, the LIKE pattern and every other token are part of it.
func TestNormalizeKeyMasksLiterals(t *testing.T) {
	same := [][2]string{
		{"SELECT a FROM t WHERE k = 1 AND s = 'x'", "SELECT a FROM t WHERE k = 22 AND s = 'yy'"},
		{"SELECT a FROM t WHERE k = 1", "SELECT  a\nFROM t -- comment\n WHERE k =\t7"},
		{"SELECT a FROM t WHERE k > -5", "SELECT a FROM t WHERE k > -6"},
		{"SELECT a FROM t WHERE k IN (1, 2)", "SELECT a FROM t WHERE k IN (3, 4)"},
	}
	for _, p := range same {
		if a, b := string(mustNormalize(t, p[0]).Key()), string(mustNormalize(t, p[1]).Key()); a != b {
			t.Errorf("%q and %q have different keys", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"SELECT a FROM t WHERE k = 1", "SELECT a FROM t WHERE k = 1.0"},
		{"SELECT a FROM t WHERE k = 1", "SELECT a FROM t WHERE k = '1'"},
		{"SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT 5"},
		{"SELECT a FROM t WHERE s LIKE 'a%'", "SELECT a FROM t WHERE s LIKE 'b%'"},
		{"SELECT a FROM t WHERE k = 1", "SELECT b FROM t WHERE k = 1"},
		{"SELECT a FROM t WHERE k IN (1, 2)", "SELECT a FROM t WHERE k IN (1, 2, 3)"},
		{"SELECT a FROM t WHERE k > -5", "SELECT a FROM t WHERE k > 5"},
	}
	for _, p := range differ {
		if a, b := string(mustNormalize(t, p[0]).Key()), string(mustNormalize(t, p[1]).Key()); a == b {
			t.Errorf("%q and %q share a key", p[0], p[1])
		}
	}
	if got := mustNormalize(t, "SELECT a FROM t WHERE s LIKE 'a%' AND k = 3 LIMIT 9").NumSlots(); got != 1 {
		t.Errorf("slots = %d, want 1 (LIKE pattern and LIMIT count stay verbatim)", got)
	}
	if _, err := Normalize("SELECT 'open"); err == nil || !strings.Contains(err.Error(), "unterminated string") {
		t.Errorf("lex error = %v", err)
	}
}

// TestNormalizedBuildTagsSlots: the normalized build equals Build's
// plan, with each literal tagged by its slot (and a folded unary minus
// recorded), and Values reads the slot values the way the parser does.
func TestNormalizedBuildTagsSlots(t *testing.T) {
	q := "SELECT id FROM users WHERE age > -5 AND city = 'sf' AND age < 2.5"
	n := mustNormalize(t, q)
	lp, err := n.Build(testResolver())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(q, testResolver())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Format(lp) != plan.Format(ref) {
		t.Fatalf("normalized build differs:\n%s\nvs\n%s", plan.Format(lp), plan.Format(ref))
	}
	if got := plan.Slots(lp); len(got) != 3 {
		t.Fatalf("slots = %v, want [1 2 3]", got)
	}
	vals, err := n.Values()
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int64(5) || vals[1] != "sf" || vals[2] != 2.5 {
		t.Fatalf("values = %v", vals)
	}
	// Rebinding to the same values reproduces the plan; the unary minus
	// applies to the rebound value.
	if got := plan.Format(plan.Bind(lp, vals)); got != plan.Format(ref) {
		t.Fatalf("bind to own values:\n%s", got)
	}
	other := mustNormalize(t, "SELECT id FROM users WHERE age > -7 AND city = 'nyc' AND age < 9.5")
	ovals, _ := other.Values()
	want, _ := Build("SELECT id FROM users WHERE age > -7 AND city = 'nyc' AND age < 9.5", testResolver())
	if got := plan.Format(plan.Bind(lp, ovals)); got != plan.Format(want) {
		t.Fatalf("bind to other values:\n%s\nwant\n%s", got, plan.Format(want))
	}
	if _, err := mustNormalize(t, "SELECT id FROM users WHERE age > 99999999999999999999").Values(); err == nil {
		t.Fatal("out-of-range int bound without error")
	}
}

// TestSentinelsAreDistinct: every sentinel differs from the others and
// from the query's own values, and keeps its slot's kind.
func TestSentinelsAreDistinct(t *testing.T) {
	n := mustNormalize(t, "SELECT a FROM t WHERE k = 1000000008 AND j = 1000000008 AND f = 1.5 AND s = 'x'")
	sn, err := n.Sentinels()
	if err != nil {
		t.Fatal(err)
	}
	if string(sn.Key()) != string(n.Key()) {
		t.Fatal("sentinels changed the key")
	}
	vals, _ := n.Values()
	svals, err := sn.Values()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[any]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	for i, v := range svals {
		if seen[v] {
			t.Errorf("sentinel %d = %v repeats a value", i+1, v)
		}
		seen[v] = true
		switch vals[i].(type) {
		case int64:
			if _, ok := v.(int64); !ok {
				t.Errorf("sentinel %d = %T, want int64", i+1, v)
			}
		case float64:
			if _, ok := v.(float64); !ok {
				t.Errorf("sentinel %d = %T, want float64", i+1, v)
			}
		case string:
			if _, ok := v.(string); !ok {
				t.Errorf("sentinel %d = %T, want string", i+1, v)
			}
		}
	}
}

// TestAggregateClausesLoseSlots: in an aggregate statement, literals in
// GROUP BY expressions and aggregate-call arguments, which the builder
// matches by rendering, lose their slot; those in WHERE, HAVING and a
// select item outside any aggregate call keep it.
func TestAggregateClausesLoseSlots(t *testing.T) {
	// Slots in lexing order: 1 the select's age + 1 (replaced by the
	// group's output), 2 and 7 the sum arguments, 3 and 4 the CASE's
	// literals, 5 'sf', 6 the GROUP BY's 1, 8 the HAVING threshold, 9 the
	// count bound.
	n := mustNormalize(t, `SELECT age + 1, sum(age * 3) AS s, CASE WHEN count(*) > 5 THEN 'many' END AS c
		FROM users WHERE city = 'sf' GROUP BY age + 1 HAVING sum(age * 3) > 2 AND count(*) < 9`)
	lp, err := n.Build(testResolver())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Slots(lp); fmt.Sprint(got) != "[3 4 5 8 9]" {
		t.Fatalf("slots = %v, want [3 4 5 8 9] (CASE, WHERE and HAVING literals)", got)
	}
}
