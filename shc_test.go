package shc_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/shc-go/shc"
	"github.com/shc-go/shc/internal/security"
)

const testCatalog = `{
  "table":{"name":"people", "tableCoder":"PrimitiveType"},
  "rowkey":"id",
  "columns":{
    "id":{"cf":"rowkey", "col":"id", "type":"string"},
    "age":{"cf":"p", "col":"a", "type":"int"},
    "city":{"cf":"p", "col":"c", "type":"string"}
  }
}`

func bootFacade(t *testing.T) (*shc.Cluster, *shc.Session, *shc.HBaseRelation) {
	t.Helper()
	cluster, err := shc.NewCluster(shc.ClusterConfig{NumServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient(shc.WithConnPool(shc.NewConnCache(cluster)))
	cat, err := shc.ParseCatalog(testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := shc.NewHBaseRelation(client, cat, shc.Options{NewTableRegions: 3}, cluster.Meter)
	if err != nil {
		t.Fatal(err)
	}
	var rows []shc.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, shc.Row{fmt.Sprintf("p%02d", i), int32(20 + i), []string{"sf", "nyc"}[i%2]})
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	sess, _ := shc.NewSession(shc.SessionConfig{Hosts: cluster.Hosts(), Meter: cluster.Meter})
	sess.Register(rel)
	return cluster, sess, rel
}

func TestFacadeEndToEnd(t *testing.T) {
	_, sess, _ := bootFacade(t)
	df, err := sess.SQL("SELECT id, age FROM people WHERE city = 'sf' AND age < 30 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // ages 20,22,24,26,28 in sf
		t.Errorf("rows = %v", rows)
	}
}

func TestFacadeExpressionHelpers(t *testing.T) {
	_, sess, _ := bootFacade(t)
	df, err := sess.Table("people")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		expr shc.Expr
		want int
	}{
		{shc.Eq(shc.Col("city"), shc.Lit("sf")), 15},
		{shc.Ne(shc.Col("city"), shc.Lit("sf")), 15},
		{shc.Lt(shc.Col("age"), shc.Lit(25)), 5},
		{shc.Le(shc.Col("age"), shc.Lit(25)), 6},
		{shc.Gt(shc.Col("age"), shc.Lit(47)), 2},
		{shc.Ge(shc.Col("age"), shc.Lit(47)), 3},
		{shc.And(shc.Eq(shc.Col("city"), shc.Lit("sf")), shc.Lt(shc.Col("age"), shc.Lit(25))), 3},
		{shc.Or(shc.Lt(shc.Col("age"), shc.Lit(21)), shc.Gt(shc.Col("age"), shc.Lit(48))), 2},
	}
	for i, c := range cases {
		got, err := df.Filter(c.expr).Count()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != int64(c.want) {
			t.Errorf("case %d: count = %d, want %d", i, got, c.want)
		}
	}
}

func TestFacadeBaselineRelation(t *testing.T) {
	cluster, err := shc.NewCluster(shc.ClusterConfig{NumServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := shc.ParseCatalog(testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rel := shc.NewBaselineRelation(cluster.NewClient(), cat, shc.Options{}, cluster.Meter)
	if err := rel.Insert([]shc.Row{{"a", int32(1), "sf"}}); err != nil {
		t.Fatal(err)
	}
	sess, _ := shc.NewSession(shc.SessionConfig{Hosts: cluster.Hosts()})
	sess.Register(rel)
	df, err := sess.SQL("SELECT count(1) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].(int64) != 1 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestFacadeSecureCluster(t *testing.T) {
	meter := shc.NewMetrics()
	kdc := security.NewKDC()
	kdc.AddPrincipal("user", "keytab")
	svc := security.NewTokenService("secure", kdc, time.Hour, nil, meter)
	cluster, err := shc.NewCluster(shc.ClusterConfig{
		Name: "secure", NumServers: 1, Meter: meter, Validate: svc.Validator(),
	})
	if err != nil {
		t.Fatal(err)
	}
	creds := shc.NewCredentialsManager(shc.CredentialsConfig{
		Enabled: true, Principal: "user", Keytab: "keytab",
	}, meter)
	creds.RegisterCluster(svc)
	client := cluster.NewClient(shc.WithTokenProvider(creds))
	if err := client.CreateTable(shc.TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatalf("authenticated create failed: %v", err)
	}
	anon := cluster.NewClient()
	if _, err := anon.ListTables(); err == nil {
		t.Error("anonymous access must be rejected")
	}
}

func TestFacadeTracingAndExplainAnalyze(t *testing.T) {
	_, sess, _ := bootFacade(t)
	df, err := sess.SQL("SELECT id, age FROM people WHERE age < 30")
	if err != nil {
		t.Fatal(err)
	}

	// A caller-installed trace records spans from the facade down to the
	// server-side region scans.
	ctx, tr := shc.StartTrace(context.Background(), "facade-query")
	if _, err := df.CollectContext(ctx); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(tr.Find("region.scan"))+len(tr.Find("region.get")) == 0 {
		t.Fatalf("no server-side spans recorded:\n%s", tr.Render())
	}

	rep, err := df.ExplainAnalyze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== Physical Plan (actual) ==", "(actual rows=", "== Query Trace =="} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestGroupByOutputOrderIsDeterministic runs one GROUP BY 30 times in one
// process and requires a single row order: the aggregate's groups follow
// first-seen input order, never Go map iteration order.
func TestGroupByOutputOrderIsDeterministic(t *testing.T) {
	_, sess, _ := bootFacade(t)
	orders := map[string]int{}
	for i := 0; i < 30; i++ {
		df, err := sess.SQL("SELECT age, count(*) AS n FROM people GROUP BY age")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 30 {
			t.Fatalf("groups = %d, want 30", len(rows))
		}
		orders[fmt.Sprint(rows)]++
	}
	if len(orders) != 1 {
		t.Errorf("30 runs returned %d distinct row orders, want 1", len(orders))
	}
}
