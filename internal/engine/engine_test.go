package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

func newTestSession(t testing.TB) *Session {
	t.Helper()
	s, _ := NewSession(Config{Hosts: []string{"h1", "h2"}, ExecutorsPerHost: 2})

	users := datasource.NewMemRelation("users", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
		{Name: "city", Type: plan.TypeString},
	}, 3)
	var urows []plan.Row
	for i := 0; i < 40; i++ {
		urows = append(urows, plan.Row{fmt.Sprintf("u%02d", i), int32(18 + i%50), []string{"sf", "nyc"}[i%2]})
	}
	if err := users.Insert(urows); err != nil {
		t.Fatal(err)
	}
	s.Register(users)

	orders := datasource.NewMemRelation("orders", plan.Schema{
		{Name: "oid", Type: plan.TypeString},
		{Name: "uid", Type: plan.TypeString},
		{Name: "amount", Type: plan.TypeFloat64},
	}, 3)
	var orows []plan.Row
	for i := 0; i < 80; i++ {
		orows = append(orows, plan.Row{fmt.Sprintf("o%02d", i), fmt.Sprintf("u%02d", i%40), float64(i) + 0.5})
	}
	if err := orders.Insert(orows); err != nil {
		t.Fatal(err)
	}
	s.Register(orders)
	return s
}

func mustSQL(t *testing.T, s *Session, q string) []plan.Row {
	t.Helper()
	df, err := s.SQL(q)
	if err != nil {
		t.Fatalf("SQL(%q): %v", q, err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("Collect(%q): %v", q, err)
	}
	return rows
}

func TestSQLSelectWhere(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, "SELECT id FROM users WHERE age < 20")
	if len(rows) != 2 { // ages 18,19 for i=0,1 then repeat at 50,51 (out of range)
		t.Errorf("rows = %d: %v", len(rows), rows)
	}
}

func TestSQLCountStar(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, "select count(1) from users")
	if rows[0][0].(int64) != 40 {
		t.Errorf("count = %v", rows[0][0])
	}
	rows = mustSQL(t, s, "select count(*) from orders")
	if rows[0][0].(int64) != 80 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestSQLJoinGroupOrder(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `
		SELECT u.city, count(*) AS n, sum(o.amount) AS total
		FROM users u JOIN orders o ON u.id = o.uid
		GROUP BY u.city
		ORDER BY n DESC, u.city`)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	var n int64
	for _, r := range rows {
		n += r[1].(int64)
	}
	if n != 80 {
		t.Errorf("total joined rows = %d", n)
	}
	// Equal group sizes: tie broken by city asc.
	if rows[0][0] != "nyc" || rows[1][0] != "sf" {
		t.Errorf("order = %v, %v", rows[0][0], rows[1][0])
	}
}

func TestSQLHaving(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `
		SELECT city, count(*) AS n FROM users
		GROUP BY city HAVING count(*) > 100`)
	if len(rows) != 0 {
		t.Errorf("having should filter all groups: %v", rows)
	}
}

func TestSQLDerivedTable(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `
		SELECT big.city FROM (
			SELECT city, count(*) AS n FROM users GROUP BY city
		) big WHERE big.n >= 20`)
	if len(rows) != 2 {
		t.Errorf("derived table rows = %v", rows)
	}
}

func TestSQLCaseWhenAndArithmetic(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `
		SELECT id, CASE WHEN age >= 60 THEN 'senior' WHEN age >= 30 THEN 'adult' ELSE 'young' END AS bracket
		FROM users WHERE age * 2 > 50 LIMIT 5`)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		b := r[1].(string)
		if b != "senior" && b != "adult" && b != "young" {
			t.Errorf("bracket = %q", b)
		}
	}
}

func TestSQLBetweenInLike(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `SELECT id FROM users WHERE age BETWEEN 18 AND 20 AND city IN ('sf','nyc') AND id LIKE 'u%'`)
	if len(rows) != 3 {
		t.Errorf("rows = %d", len(rows))
	}
	rows = mustSQL(t, s, `SELECT id FROM users WHERE city NOT IN ('sf') LIMIT 3`)
	if len(rows) != 3 {
		t.Errorf("not-in rows = %d", len(rows))
	}
}

func TestSQLStddevAndAvg(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `SELECT avg(amount) AS m, stddev_samp(amount) AS sd FROM orders`)
	m := rows[0][0].(float64)
	if math.Abs(m-40.0) > 1e-9 { // amounts 0.5..79.5 mean 40
		t.Errorf("avg = %v", m)
	}
	if rows[0][1].(float64) <= 0 {
		t.Errorf("stddev = %v", rows[0][1])
	}
}

func TestSQLOrderByUnprojectedColumn(t *testing.T) {
	s := newTestSession(t)
	rows := mustSQL(t, s, `SELECT id FROM users ORDER BY age DESC, id LIMIT 1`)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSQLErrors(t *testing.T) {
	s := newTestSession(t)
	for _, q := range []string{
		"SELECT * FROM missing",
		"SELECT ghost FROM users",
		"SELECT sum(amount) FROM users WHERE sum(amount) > 1",
		"SELECT nosuchfunc(age) FROM users GROUP BY age",
		"SELECT * FROM users u JOIN orders o ON u.age > o.amount",
		"SELECT FROM users",
		"SELECT * users",
	} {
		df, err := s.SQL(q)
		if err == nil {
			_, err = df.Collect()
		}
		if err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestDataFrameAPI(t *testing.T) {
	s := newTestSession(t)
	users, err := s.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	got, err := users.
		Filter(&plan.Comparison{Op: plan.OpGe, L: plan.Col("age"), R: plan.Lit(60)}).
		Select("id", "age").
		OrderBy(plan.SortOrder{Expr: plan.Col("age"), Desc: true}).
		Limit(3).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 3 {
		t.Errorf("limit violated: %d", len(got))
	}
	for _, r := range got {
		if r[1].(int32) < 60 {
			t.Errorf("filter violated: %v", r)
		}
	}
}

func TestDataFrameJoinAndGroupBy(t *testing.T) {
	s := newTestSession(t)
	users, _ := s.Table("users")
	orders, _ := s.Table("orders")
	joined, err := users.Join(orders, []string{"id"}, []string{"uid"})
	if err != nil {
		t.Fatal(err)
	}
	agg := joined.GroupBy("city").Agg(
		plan.AggExpr{Kind: plan.AggCount, Name: "n"},
		plan.AggExpr{Kind: plan.AggMax, Arg: plan.Col("amount"), Name: "max_amount"},
	)
	rows, err := agg.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("groups = %v", rows)
	}
	if _, err := users.Join(orders, nil, nil); err == nil {
		t.Error("empty join keys must fail")
	}
}

func TestDataFrameCountAndRepeatedCollect(t *testing.T) {
	s := newTestSession(t)
	users, _ := s.Table("users")
	young := users.Filter(&plan.Comparison{Op: plan.OpLt, L: plan.Col("age"), R: plan.Lit(20)})
	n1, err := young.Count()
	if err != nil {
		t.Fatal(err)
	}
	// Re-running the same DataFrame must not change results (Optimize
	// clones, so pushed filters do not accumulate).
	n2, err := young.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Errorf("repeated count differs: %d vs %d", n1, n2)
	}
	rows, err := young.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows)) != n1 {
		t.Errorf("Collect/Count mismatch: %d vs %d", len(rows), n1)
	}
}

func TestTempView(t *testing.T) {
	s := newTestSession(t)
	users, _ := s.Table("users")
	seniors := users.Filter(&plan.Comparison{Op: plan.OpGe, L: plan.Col("age"), R: plan.Lit(40)})
	seniors.CreateOrReplaceTempView("seniors")
	rows := mustSQL(t, s, "SELECT count(1) FROM seniors")
	want, _ := seniors.Count()
	if rows[0][0].(int64) != want {
		t.Errorf("view count = %v, want %d", rows[0][0], want)
	}
}

func TestWriteToRelation(t *testing.T) {
	s := newTestSession(t)
	users, _ := s.Table("users")
	target := datasource.NewMemRelation("copy", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
	}, 1)
	if err := users.Select("id", "age").Write(target); err != nil {
		t.Fatal(err)
	}
	if target.Count() != 40 {
		t.Errorf("written rows = %d", target.Count())
	}
	if err := users.Write(target); err == nil {
		t.Error("width mismatch write must fail")
	}
}

func TestExplain(t *testing.T) {
	s := newTestSession(t)
	df, err := s.SQL("SELECT id FROM users WHERE age > 30")
	if err != nil {
		t.Fatal(err)
	}
	out, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Optimized Logical Plan", "Physical Plan", "ScanExec", "pushed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
