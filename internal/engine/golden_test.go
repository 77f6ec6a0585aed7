package engine

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/sql"
	"github.com/shc-go/shc/internal/tpcds"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// goldenQueries are the paper's queries, the point lookup, one query
// holding each masked expression kind (IN, NOT IN, LIKE, IS NULL, CASE)
// under a LIMIT, fused pipelines below joins with an IN list that holds a
// column, and aggregate pipelines under a UNION ALL.
var goldenQueries = []struct{ name, sql string }{
	{"q39a", tpcds.Q39a()},
	{"q39b", tpcds.Q39b()},
	{"q38", tpcds.Q38()},
	{"point", tpcds.PointLookup(5)},
	{"exprs", `SELECT i_item_id,
        CASE WHEN i_price > 50 THEN 'hi' WHEN i_price IS NULL THEN 'none' ELSE 'lo' END AS band,
        i_price * 2
    FROM item
    WHERE i_item_sk IN (1, 2, 3, 4) AND i_category NOT IN ('Books', 'Music')
        AND i_item_id LIKE 'AAA%' AND i_item_id NOT LIKE '%Z_' AND i_category IS NOT NULL
    ORDER BY i_item_id DESC LIMIT 10`},
	{"join-pipelines", `SELECT i_item_id, w_state, inv_quantity_on_hand
    FROM inventory
    JOIN item ON inv_item_sk = i_item_sk
    JOIN warehouse ON inv_warehouse_sk = w_warehouse_sk
    WHERE inv_date_sk BETWEEN 1 AND 7 AND i_item_id NOT LIKE '%9'
        AND inv_quantity_on_hand IN (inv_item_sk, 3, 5) AND w_state IS NOT NULL`},
	{"union-agg", `SELECT count(*) AS n, sum(i_price) AS s FROM item WHERE i_category NOT IN ('Books')
    UNION ALL SELECT count(*) AS n, max(i_price) AS s FROM item WHERE i_item_sk < 100`},
}

// TestPlanGolden: each golden query's statement shape (plan.Shape, the
// input of its fingerprint), optimized logical plan and physical EXPLAIN
// match testdata/plans.golden byte for byte, so a planner refactor that
// moves a fingerprint or an EXPLAIN line fails here. Run with -update to
// rewrite the file after an intended change.
func TestPlanGolden(t *testing.T) {
	s, _ := tpcdsSession(t)
	var b strings.Builder
	for _, q := range goldenQueries {
		built, err := sql.Build(q.sql, s.resolve)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		opt := plan.Optimize(built)
		phys, err := exec.CompileWith(opt, s.compileConfig())
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		b.WriteString("== " + q.name + " ==\n")
		b.WriteString(plan.Shape(opt) + "\n")
		b.WriteString(plan.Format(opt))
		b.WriteString(exec.Explain(phys))
	}
	got := b.String()
	path := filepath.Join("testdata", "plans.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
