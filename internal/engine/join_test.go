package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// joinSession has users u1..u5 and orders referencing only u1..u3, plus a
// NULL-keyed order, to exercise outer-join edges.
func joinSession(t *testing.T) *Session {
	t.Helper()
	s, _ := NewSession(Config{Hosts: []string{"h1"}, ExecutorsPerHost: 3})
	users := datasource.NewMemRelation("users", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "city", Type: plan.TypeString},
	}, 2)
	if err := users.Insert([]plan.Row{
		{"u1", "sf"}, {"u2", "sf"}, {"u3", "nyc"}, {"u4", "nyc"}, {"u5", nil},
	}); err != nil {
		t.Fatal(err)
	}
	s.Register(users)
	orders := datasource.NewMemRelation("orders", plan.Schema{
		{Name: "uid", Type: plan.TypeString},
		{Name: "amount", Type: plan.TypeFloat64},
	}, 2)
	if err := orders.Insert([]plan.Row{
		{"u1", 10.0}, {"u1", 20.0}, {"u2", 30.0}, {"u3", 40.0}, {nil, 99.0},
	}); err != nil {
		t.Fatal(err)
	}
	s.Register(orders)
	return s
}

func TestLeftOuterJoinSQL(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT u.id, o.amount FROM users u
		LEFT OUTER JOIN orders o ON u.id = o.uid
		ORDER BY u.id, o.amount`)
	// u1×2, u2, u3 matched; u4, u5 NULL-extended = 6 rows.
	if len(rows) != 6 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "u1" || rows[0][1] != 10.0 {
		t.Errorf("first = %v", rows[0])
	}
	for _, r := range rows {
		if r[0] == "u4" || r[0] == "u5" {
			if r[1] != nil {
				t.Errorf("unmatched row %v must be NULL-extended", r)
			}
		}
	}
}

func TestLeftJoinKeywordVariants(t *testing.T) {
	s := joinSession(t)
	a := mustSQL(t, s, "SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid ORDER BY u.id")
	b := mustSQL(t, s, "SELECT u.id FROM users u LEFT OUTER JOIN orders o ON u.id = o.uid ORDER BY u.id")
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("LEFT JOIN and LEFT OUTER JOIN must agree")
	}
}

func TestLeftJoinNullKeysNeverMatch(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, `
		SELECT u.id, o.amount FROM users u
		LEFT JOIN orders o ON u.id = o.uid
		WHERE u.id = 'u5'`)
	if len(rows) != 1 || rows[0][1] != nil {
		t.Errorf("NULL-keyed left row must NULL-extend, got %v", rows)
	}
	// The NULL-keyed order never appears through the join.
	all := mustSQL(t, s, `
		SELECT o.amount FROM users u JOIN orders o ON u.id = o.uid`)
	for _, r := range all {
		if r[0] == 99.0 {
			t.Error("NULL-keyed right row must not match")
		}
	}
}

func TestLeftJoinRightFilterStaysAboveJoin(t *testing.T) {
	s := joinSession(t)
	// WHERE on the right side of a left join drops NULL-extended rows —
	// the filter must evaluate above the join.
	rows := mustSQL(t, s, `
		SELECT u.id, o.amount FROM users u
		LEFT JOIN orders o ON u.id = o.uid
		WHERE o.amount > 15
		ORDER BY u.id, o.amount`)
	if len(rows) != 3 { // u1/20, u2/30, u3/40
		t.Fatalf("rows = %v", rows)
	}
	// And the plan keeps that filter above the join (no pushdown).
	df, err := s.SQL(`SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid WHERE o.amount > 15`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	scanIdx := strings.Index(out, "Scan orders")
	filterIdx := strings.Index(out, "Filter (o.amount > 15)")
	if filterIdx < 0 {
		// The predicate may have been pushed into the orders scan, which
		// would be wrong for a left join.
		if strings.Contains(out[scanIdx:], "pushed=[(o.amount > 15)]") {
			t.Errorf("right-side predicate pushed below left join:\n%s", out)
		}
	}
	// Left-side predicates still push.
	df2, _ := s.SQL(`SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid WHERE u.city = 'sf'`)
	out2, err := df2.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, `pushed=[(u.city = "sf")]`) {
		t.Errorf("left-side predicate should push into the users scan:\n%s", out2)
	}
}

func TestLeftJoinRejectsNonEquiOn(t *testing.T) {
	s := joinSession(t)
	if _, err := s.SQL(`SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid AND o.amount > 5`); err == nil {
		t.Error("non-equi ON in LEFT JOIN must be rejected")
	}
}

func TestLeftJoinDataFrameAPI(t *testing.T) {
	s := joinSession(t)
	users, _ := s.Table("users")
	orders, _ := s.Table("orders")
	joined, err := users.LeftJoin(orders, []string{"id"}, []string{"uid"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := joined.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("left join count = %d", n)
	}
}

func TestSelectDistinct(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, "SELECT DISTINCT city FROM users ORDER BY city")
	// NULL, nyc, sf — distinct over 5 rows.
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %v", rows)
	}
	if rows[0][0] != nil || rows[1][0] != "nyc" || rows[2][0] != "sf" {
		t.Errorf("distinct order = %v", rows)
	}
	// DISTINCT with aggregates is rejected.
	if _, err := s.SQL("SELECT DISTINCT count(*) FROM users"); err == nil {
		t.Error("DISTINCT + aggregate must be rejected")
	}
}

func TestDataFrameDistinct(t *testing.T) {
	s := joinSession(t)
	users, _ := s.Table("users")
	n, err := users.Select("city").Distinct().Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("distinct cities = %d", n)
	}
}

func TestInnerJoinUnaffectedByTypePlumbing(t *testing.T) {
	s := joinSession(t)
	rows := mustSQL(t, s, "SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.uid ORDER BY u.id, o.amount")
	if len(rows) != 4 {
		t.Fatalf("inner join rows = %v", rows)
	}
}
