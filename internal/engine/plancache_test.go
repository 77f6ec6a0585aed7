package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/core"
	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/sql"
	"github.com/shc-go/shc/internal/tpcds"
)

// uncached answers q the way Session.SQL did before it had a plan cache:
// sql.Build, then Optimize, Fingerprint and execution of the built plan.
func uncached(t *testing.T, s *Session, q string) (built, opt plan.LogicalPlan, fp string, rows []plan.Row, err error) {
	t.Helper()
	built, err = sql.Build(q, s.resolve)
	if err != nil {
		return nil, nil, "", nil, err
	}
	opt = plan.Optimize(built)
	fp, _ = plan.Fingerprint(opt)
	rows, err = (&DataFrame{sess: s, lp: built}).Collect()
	return built, opt, fp, rows, err
}

// sortedRows renders rows one per string, sorted, so results compare
// regardless of partition order.
func sortedRows(rows []plan.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

// checkAgainstUncached runs q through Session.SQL and fails unless the
// frame's built plan, the plan its actions compile, its fingerprint and
// its rows are those of the uncached path. It reports whether the frame
// was served from a template.
func checkAgainstUncached(t *testing.T, s *Session, q string) (hit bool) {
	t.Helper()
	built, opt, fp, want, wantErr := uncached(t, s, q)
	hits := s.meter.Get(metrics.PlanCacheHits)
	df, err := s.SQL(q)
	if wantErr != nil || err != nil {
		if err == nil {
			_, err = df.Collect()
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s:\n  error %v, uncached %v", q, err, wantErr)
		}
		return false
	}
	if got, want := plan.Format(df.LogicalPlan()), plan.Format(built); got != want {
		t.Fatalf("%s: LogicalPlan\n%s\nuncached\n%s", q, got, want)
	}
	if df.tmpl != nil {
		if got, want := plan.Format(plan.Bind(df.tmpl.opt, df.vals)), plan.Format(opt); got != want {
			t.Fatalf("%s: bound template\n%s\nuncached optimize\n%s", q, got, want)
		}
		if df.tmpl.fp != fp {
			t.Fatalf("%s: template fingerprint %s, uncached %s", q, df.tmpl.fp, fp)
		}
		if pp := df.tmpl.phys.Load(); pp != nil {
			// The prepared physical plan, bound to this query's values, is
			// the plan a fresh compile of the optimized plan gives.
			bound, ok, err := pp.Bind(df.vals)
			if err != nil {
				t.Fatalf("%s: binding the prepared plan: %v", q, err)
			}
			fresh, err := exec.CompileWith(opt, s.compileConfig())
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if ok && exec.Explain(bound) != exec.Explain(fresh) {
				t.Fatalf("%s: prepared plan bound\n%s\ncompiled\n%s", q, exec.Explain(bound), exec.Explain(fresh))
			}
		}
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if got, want := sortedRows(rows), sortedRows(want); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: rows\n%v\nuncached\n%v", q, got, want)
	}
	return s.meter.Get(metrics.PlanCacheHits) > hits
}

// TestPlanCacheDifferential: for the SQL this package's tests run, each
// with new literals on every run, the cached path gives the uncached
// path's plans, fingerprint and rows; shapes that can be prepared are
// served from their template from the second run on.
func TestPlanCacheDifferential(t *testing.T) {
	corpus := []struct {
		format    string
		args      [][]any
		cacheable bool
	}{
		{"SELECT id FROM users WHERE age < %d", [][]any{{20}, {30}, {45}}, true},
		{"SELECT id, age FROM users WHERE age < %d", [][]any{{30}, {19}}, true},
		{"SELECT id FROM users WHERE age BETWEEN %d AND %d AND city IN ('%s','%s') AND id LIKE 'u%%'",
			[][]any{{18, 20, "sf", "nyc"}, {25, 40, "nyc", "la"}, {0, 99, "x", "sf"}}, true},
		{"SELECT id FROM users WHERE city NOT IN ('%s') LIMIT 3", [][]any{{"sf"}, {"nyc"}}, true},
		{"SELECT id FROM users ORDER BY age DESC, id LIMIT 1", [][]any{{}, {}}, true},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.uid WHERE o.amount > %.1f ORDER BY u.id, o.amount",
			[][]any{{15.0}, {40.5}}, true},
		{"SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid WHERE u.city = '%s'", [][]any{{"sf"}, {"nyc"}}, true},
		{"SELECT u.id FROM users u LEFT JOIN orders o ON u.id = o.uid WHERE o.amount > %d", [][]any{{15}, {60}}, true},
		{"SELECT city, count(*) AS n FROM users WHERE age > %d GROUP BY city ORDER BY city", [][]any{{20}, {50}}, true},
		{`SELECT u.city, count(*) AS n, sum(o.amount) AS total FROM users u JOIN orders o ON u.id = o.uid
			WHERE o.amount < %.2f GROUP BY u.city ORDER BY n DESC, u.city`, [][]any{{30.25}, {70.75}}, true},
		{"SELECT city, count(*) AS n FROM users GROUP BY city HAVING count(*) > %d", [][]any{{100}, {5}}, true},
		// An aggregate argument's literal decides which calls are one, so
		// it keeps the statement uncached, wherever else literals sit.
		{"SELECT city, sum(age + %d) AS s FROM users GROUP BY city HAVING sum(age + %d) > %d",
			[][]any{{1, 1, 100}, {2, 3, 50}, {4, 4, 10}}, false},
		{"SELECT big.city FROM (SELECT city, count(*) AS n FROM users GROUP BY city) big WHERE big.n >= %d",
			[][]any{{20}, {21}}, true},
		{`SELECT id, CASE WHEN age >= %d THEN '%s' WHEN age >= %d THEN 'adult' ELSE 'young' END AS bracket
			FROM users WHERE age * %d > %d LIMIT 5`, [][]any{{60, "senior", 30, 2, 50}, {40, "old", 20, 3, 90}}, true},
		{"SELECT DISTINCT city FROM users WHERE age >= %d ORDER BY city", [][]any{{18}, {60}}, true},
		{"SELECT id AS who FROM users WHERE age < %d UNION ALL SELECT uid FROM orders WHERE amount > %.1f",
			[][]any{{20, 70.5}, {25, 10.0}}, true},
		{"SELECT id FROM users WHERE age < %d UNION SELECT uid FROM orders WHERE amount > %.1f ORDER BY id LIMIT 4",
			[][]any{{20, 70.5}, {30, 1.5}}, true},
		{"SELECT count(*) FROM (SELECT id FROM users WHERE age > %d) s", [][]any{{30}, {40}}, true},
		{"SELECT avg(amount) AS m, stddev_samp(amount) AS sd FROM orders WHERE amount > %d", [][]any{{3}, {9}}, true},
		{"SELECT count(%d) FROM users", [][]any{{1}, {2}}, false},
		{"SELECT id FROM users WHERE age > -%d AND id = '%s'", [][]any{{5, "u01"}, {7, "u02"}}, true},
	}
	for _, c := range corpus {
		s := newTestSession(t)
		hits := 0
		for _, args := range c.args {
			if checkAgainstUncached(t, s, fmt.Sprintf(c.format, args...)) {
				hits++
			}
		}
		want := 0
		if c.cacheable {
			want = len(c.args) - 1
		}
		if hits != want {
			t.Errorf("%s: %d of %d runs served from a template, want %d", c.format, hits, len(c.args), want)
		}
	}
}

// TestPlanCacheGuards: shapes whose literals reach the plan other than
// through a slot, or that decide structure, answer exactly as uncached in
// either order.
func TestPlanCacheGuards(t *testing.T) {
	sequences := [][]string{
		// A literal in a default column name.
		{"SELECT age + 1 FROM users WHERE age < 20", "SELECT age + 2 FROM users WHERE age < 20"},
		// A select item that repeats a GROUP BY expression matches it by
		// rendering; a different literal makes it a bare column (an error).
		{"SELECT age + 1 AS a, count(*) AS n FROM users GROUP BY age + 1 ORDER BY a",
			"SELECT age + 1 AS a, count(*) AS n FROM users GROUP BY age + 2 ORDER BY a",
			"SELECT age + 3 AS a, count(*) AS n FROM users GROUP BY age + 3 ORDER BY a"},
		{"SELECT age + 1 AS a, count(*) AS n FROM users GROUP BY age + 2 ORDER BY a",
			"SELECT age + 1 AS a, count(*) AS n FROM users GROUP BY age + 1 ORDER BY a"},
		// Two aggregate calls are one when they render alike.
		{"SELECT sum(age + 1) AS a, sum(age + 2) AS b FROM users",
			"SELECT sum(age + 1) AS a, sum(age + 1) AS b FROM users"},
		// Structural literals stay in the key.
		{"SELECT id FROM users ORDER BY id LIMIT 1", "SELECT id FROM users ORDER BY id LIMIT 5"},
		{"SELECT id FROM users WHERE id LIKE 'u1%'", "SELECT id FROM users WHERE id LIKE 'u2%'"},
		// A folded unary minus.
		{"SELECT id FROM users WHERE age > -5", "SELECT id FROM users WHERE age > -50", "SELECT id FROM users WHERE age > 50"},
		// Constant folding consumes the literals.
		{"SELECT id FROM users WHERE age > 10 + 40", "SELECT id FROM users WHERE age > 10 + 20"},
		// An int out of range fails with the parser's error, cached or not.
		{"SELECT id FROM users WHERE age > 5", "SELECT id FROM users WHERE age > 99999999999999999999",
			"SELECT id FROM users WHERE age > 6"},
		{"SELECT id FROM users WHERE age > 99999999999999999999", "SELECT id FROM users WHERE age > 5"},
	}
	for _, seq := range sequences {
		s := newTestSession(t)
		for _, q := range seq {
			checkAgainstUncached(t, s, q)
		}
	}
	// The out-of-range error text is the parser's, byte for byte.
	s := newTestSession(t)
	mustSQL(t, s, "SELECT id FROM users WHERE age > 5")
	_, err := s.SQL("SELECT id FROM users WHERE age > 99999999999999999999")
	if err == nil || err.Error() != `sql: bad number "99999999999999999999"` {
		t.Fatalf("out-of-range int: %v", err)
	}
}

// TestPlanCacheOneEntryPerShape: point lookups with distinct keys share
// one template — one miss, then hits — and one fingerprint.
func TestPlanCacheOneEntryPerShape(t *testing.T) {
	s, _ := NewSession(Config{})
	kv := datasource.NewMemRelation("kv", plan.Schema{
		{Name: "k", Type: plan.TypeInt64},
		{Name: "v", Type: plan.TypeString},
	}, 2)
	rows := make([]plan.Row, 1000)
	for i := range rows {
		rows[i] = plan.Row{int64(i), fmt.Sprintf("v%d", i)}
	}
	if err := kv.Insert(rows); err != nil {
		t.Fatal(err)
	}
	s.Register(kv)
	for i := 0; i < 1000; i++ {
		got := mustSQL(t, s, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i))
		if len(got) != 1 || got[0][0] != fmt.Sprintf("v%d", i) {
			t.Fatalf("k = %d: %v", i, got)
		}
	}
	m := s.Meter()
	if hits, misses := m.Get(metrics.PlanCacheHits), m.Get(metrics.PlanCacheMisses); misses != 1 || hits != 999 {
		t.Fatalf("hits = %d, misses = %d; want 999 and 1", hits, misses)
	}
	if n := m.Get(metrics.PlanCacheUncacheable); n != 0 {
		t.Fatalf("uncacheable = %d", n)
	}
	if stats := s.QueryStats().Top(0); len(stats) != 1 || stats[0].Count != 1000 {
		t.Fatalf("statement stats = %+v, want one fingerprint with 1000 calls", stats)
	}
}

// TestPlanCacheSeesCatalogChanges: re-registering a name and replacing a
// temp view invalidate the cache, so the next SQL reads the new relation
// or view.
func TestPlanCacheSeesCatalogChanges(t *testing.T) {
	s := newTestSession(t)
	count := func(q string) int64 { return mustSQL(t, s, q)[0][0].(int64) }
	if n := count("SELECT count(*) FROM users WHERE age > 0"); n != 40 {
		t.Fatalf("users = %d", n)
	}
	small := datasource.NewMemRelation("users", plan.Schema{
		{Name: "id", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
		{Name: "city", Type: plan.TypeString},
	}, 1)
	if err := small.Insert([]plan.Row{{"x", int32(70), "sf"}}); err != nil {
		t.Fatal(err)
	}
	s.RegisterAs("users", small)
	if n := count("SELECT count(*) FROM users WHERE age > 1"); n != 1 {
		t.Fatalf("after RegisterAs, users = %d, want 1", n)
	}
	if got := s.Meter().Get(metrics.PlanCacheInvalidations); got != 1 {
		t.Fatalf("invalidations = %d, want 1", got)
	}

	view := func(q string) {
		df, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		df.CreateOrReplaceTempView("recent")
	}
	view("SELECT oid, amount FROM orders WHERE amount < 10.0")
	if n := count("SELECT count(*) FROM recent WHERE amount > 0.0"); n != 10 {
		t.Fatalf("view rows = %d, want 10", n)
	}
	view("SELECT oid, amount FROM orders WHERE amount < 20.0")
	if n := count("SELECT count(*) FROM recent WHERE amount > 0.5"); n != 19 {
		t.Fatalf("replaced view rows = %d, want 19", n)
	}
}

// tpcdsSession registers the generated TPC-DS tables (scale 1) as memory
// relations.
func tpcdsSession(t testing.TB) (*Session, *tpcds.Data) {
	t.Helper()
	s, err := NewSession(Config{Hosts: []string{"h1", "h2"}})
	if err != nil {
		t.Fatal(err)
	}
	data := tpcds.Generate(tpcds.Config{Scale: 1, Seed: 42})
	for _, table := range tpcds.TableNames {
		doc, err := tpcds.Catalog(table, "")
		if err != nil {
			t.Fatal(err)
		}
		cat, err := core.ParseCatalog(doc)
		if err != nil {
			t.Fatal(err)
		}
		rel := datasource.NewMemRelation(table, cat.Schema(), 3)
		if err := rel.Insert(data.Rows(table)); err != nil {
			t.Fatal(err)
		}
		s.Register(rel)
	}
	return s, data
}

// TestPlanCacheDifferentialTPCDS: the paper's queries and the benchmark's
// query shapes — a store_sales point lookup by full rowkey, a 30-day
// scan aggregate, q39a/q39b — with seeded random literals answer on the
// cached path exactly as uncached, and each is served from its template
// after its first run: q39's HAVING and CASE literals keep their slots.
func TestPlanCacheDifferentialTPCDS(t *testing.T) {
	s, data := tpcdsSession(t)
	rng := rand.New(rand.NewSource(1))
	sales := data.Rows("store_sales")
	// q39a over months 1 and 3: the template rebinds the second month's
	// date window and d_moy.
	q39aMonths13 := strings.NewReplacer("BETWEEN 31 AND 60", "BETWEEN 61 AND 90", "d_moy = 2", "d_moy = 3").Replace(tpcds.Q39a())
	if q39aMonths13 == tpcds.Q39a() {
		t.Fatal("q39a's second month not found in its text")
	}
	for _, q := range []string{tpcds.Q38(), tpcds.Q39a(), tpcds.Q39b(), tpcds.Q38(), tpcds.Q39a(), q39aMonths13, tpcds.Q39b()} {
		checkAgainstUncached(t, s, q)
	}
	// q39b's threshold 1.5 is a float and q39a's 1 an int: two shapes.
	if hits, n := s.meter.Get(metrics.PlanCacheHits), s.meter.Get(metrics.PlanCacheUncacheable); hits != 4 || n != 0 {
		t.Errorf("paper queries: hits = %d, uncacheable = %d; want 4 (q38, q39a twice, q39b) and 0", hits, n)
	}
	before := s.meter.Get(metrics.PlanCacheHits)
	for i := 0; i < 6; i++ {
		r := sales[rng.Intn(len(sales))]
		date := r[0].(int32)
		if i%3 == 2 {
			date = date%360 + 1 // the ticket under another date: no row
		}
		checkAgainstUncached(t, s, fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "+
			"WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", date, r[1]))
		lo := 1 + rng.Intn(330)
		checkAgainstUncached(t, s, fmt.Sprintf("SELECT count(*) AS n, sum(ss_sales_price) AS revenue, min(ss_quantity) AS qmin, "+
			"max(ss_quantity) AS qmax FROM store_sales WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, lo+30))
	}
	if hits := s.meter.Get(metrics.PlanCacheHits) - before; hits != 10 {
		t.Errorf("benchmark shapes: %d hits, want 10 (each shape misses once)", hits)
	}
}

// frontEndSink and compileSink keep BenchmarkSQLFrontEnd's results alive.
var (
	frontEndSink plan.LogicalPlan
	compileSink  exec.PhysicalPlan
)

// BenchmarkSQLFrontEnd times the front end of a point lookup: on a
// template hit, Session.SQL alone (a hit has no optimize step), and with
// the compile step of an action (binding the template's prepared physical
// plan, which plans the scan) — everything a warm lookup pays before it
// executes; the same for q39a on a hit; on a miss (the cache emptied before each query: build,
// optimize, the sentinel check and fingerprint); and on the uncached path
// (sql.Build, Optimize, Fingerprint).
func BenchmarkSQLFrontEnd(b *testing.B) {
	s := newTestSession(b)
	query := func(i int) string {
		return fmt.Sprintf("SELECT id, age, city FROM users WHERE id = 'u%02d' AND age = %d", i%40, 18+i%50)
	}
	optimized := func(df *DataFrame) plan.LogicalPlan {
		if df.tmpl != nil {
			return df.tmpl.opt
		}
		return plan.Optimize(df.lp)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			df, err := s.SQL(query(i))
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink = optimized(df)
		}
	})
	b.Run("hit+compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			df, err := s.SQL(query(i))
			if err != nil {
				b.Fatal(err)
			}
			if compileSink, err = df.tmpl.compile(df.vals, s.compileConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	// q39a on a template hit: Session.SQL and the compile of the bound
	// plan, which it has no prepared physical plan for (its HAVING and
	// CASE literals reach beyond the scans) — all a warm q39 pays before
	// it executes.
	q39, _ := tpcdsSession(b)
	if _, err := q39.SQL(tpcds.Q39a()); err != nil {
		b.Fatal(err)
	}
	b.Run("q39-hit+compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			df, err := q39.SQL(tpcds.Q39a())
			if err != nil {
				b.Fatal(err)
			}
			if df.tmpl == nil {
				b.Fatal("q39a was not served from a template")
			}
			if compileSink, err = df.tmpl.compile(df.vals, q39.compileConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.plans.invalidate()
			df, err := s.SQL(query(i))
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink = optimized(df)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lp, err := sql.Build(query(i), s.resolve)
			if err != nil {
				b.Fatal(err)
			}
			frontEndSink = plan.Optimize(lp)
			plan.Fingerprint(frontEndSink)
		}
	})
}

// TestPlanCacheConcurrent: queries of one shape from several goroutines,
// while the catalog changes under them, all answer correctly (run it
// with -race).
func TestPlanCacheConcurrent(t *testing.T) {
	s := newTestSession(t)
	users, err := s.resolve("users")
	if err != nil {
		t.Fatal(err)
	}
	rel := users.(*plan.ScanNode).Relation
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("u%02d", (g*100+i)%40)
				df, err := s.SQL(fmt.Sprintf("SELECT id FROM users WHERE id = '%s' AND age > %d", id, i%3))
				if err != nil {
					errs <- err
					return
				}
				rows, err := df.Collect()
				if err != nil || len(rows) != 1 || rows[0][0] != id {
					errs <- fmt.Errorf("%s: rows %v, err %v", id, rows, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		s.RegisterAs("users", rel)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.meter.Get(metrics.PlanCacheHits) == 0 {
		t.Error("no query was served from the plan cache")
	}
}

// scanCounter counts a relation's BuildScan calls and records the most
// goroutines any of its partitions saw while computing. Its partitions
// offer only Compute, so every read goes through it.
type scanCounter struct {
	*datasource.MemRelation
	builds     atomic.Int64
	goroutines atomic.Int64
}

func (r *scanCounter) BuildScan(cols []string, filters []datasource.Filter) ([]datasource.Partition, []int, error) {
	r.builds.Add(1)
	parts, unhandled, err := r.MemRelation.BuildScan(cols, filters)
	for i, p := range parts {
		parts[i] = countedPartition{Partition: p, rel: r}
	}
	return parts, unhandled, err
}

type countedPartition struct {
	datasource.Partition
	rel *scanCounter
}

func (p countedPartition) Compute(ctx context.Context) ([]plan.Row, error) {
	n := int64(runtime.NumGoroutine())
	for {
		seen := p.rel.goroutines.Load()
		if n <= seen || p.rel.goroutines.CompareAndSwap(seen, n) {
			break
		}
	}
	return p.Partition.Compute(ctx)
}

// TestWarmLookupPlansOnceOnCaller: every execution of a point-lookup
// template plans its scan exactly once — the source's one pushdown pass,
// which also reports what it left unhandled — and a warm lookup runs its
// one task on the calling goroutine, starting none.
func TestWarmLookupPlansOnceOnCaller(t *testing.T) {
	s, err := NewSession(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel := &scanCounter{MemRelation: datasource.NewMemRelation("kv", plan.Schema{
		{Name: "k", Type: plan.TypeString},
		{Name: "v", Type: plan.TypeInt64},
	}, 1)}
	var rows []plan.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, plan.Row{fmt.Sprintf("k%02d", i), int64(i * i)})
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	s.Register(rel)
	const runs = 10
	for i := 0; i < runs; i++ {
		df, err := s.SQL(fmt.Sprintf("SELECT v FROM kv WHERE k = 'k%02d'", i))
		if err != nil {
			t.Fatal(err)
		}
		rel.goroutines.Store(0)
		before := int64(runtime.NumGoroutine())
		got, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0][0] != int64(i*i) {
			t.Fatalf("k%02d: rows %v, want [[%d]]", i, got, i*i)
		}
		if during := rel.goroutines.Load(); i > 0 && during > before {
			t.Errorf("warm lookup %d: %d goroutines while its partition computed, %d before; want none started", i, during, before)
		}
	}
	if n := rel.builds.Load(); n != runs {
		t.Errorf("%d BuildScan calls for %d lookups, want one each", n, runs)
	}
	if hits := s.meter.Get(metrics.PlanCacheHits); hits != runs-1 {
		t.Errorf("plan-cache hits = %d, want %d", hits, runs-1)
	}
}
