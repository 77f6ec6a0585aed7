package core

import (
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/engine"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

func newBaselineRig(t *testing.T, n int) (*BaselineRelation, *metrics.Registry) {
	t.Helper()
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "b", NumServers: 3, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ParseCatalog(usersCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rel := NewBaselineRelation(cluster.NewClient(), cat, Options{}, meter)
	var rows []plan.Row
	for i := 0; i < n; i++ {
		rows = append(rows, plan.Row{
			fmt.Sprintf("user-%04d", i), int32(18 + i%60),
			[]string{"sf", "nyc", "la"}[i%3], float64(i) / 10,
		})
	}
	if n > 0 {
		if err := rel.Insert(rows); err != nil {
			t.Fatal(err)
		}
	}
	return rel, meter
}

func TestBaselineRoundTrip(t *testing.T) {
	rel, _ := newBaselineRig(t, 40)
	parts, _, err := rel.BuildScan([]string{"id", "age", "city", "score"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 40 {
		t.Fatalf("rows = %d", len(got))
	}
	sortRows(got)
	if got[7][0] != "user-0007" || got[7][1] != int32(25) || got[7][2] != "nyc" || got[7][3] != 0.7 {
		t.Errorf("row 7 = %v", got[7])
	}
}

func TestBaselineIgnoresFiltersAndLocality(t *testing.T) {
	rel, meter := newBaselineRig(t, 60)
	filters := []datasource.Filter{datasource.EqualTo{Column: "id", Value: "user-0001"}}
	if un := unhandledOf(t, rel, filters); len(un) != 1 {
		t.Error("baseline must hand every filter back")
	}
	before := meter.Get(metrics.RowsReturned)
	parts, _, err := rel.BuildScan([]string{"id"}, filters)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if p.PreferredHost() != "" {
			t.Error("baseline has no locality")
		}
	}
	got := scanAll(t, parts)
	if len(got) != 60 {
		t.Errorf("baseline must return everything, rows = %d", len(got))
	}
	if meter.Get(metrics.RowsReturned)-before != 60 {
		t.Errorf("server returned %d rows", meter.Get(metrics.RowsReturned)-before)
	}
}

func TestBaselineUnknownColumn(t *testing.T) {
	rel, _ := newBaselineRig(t, 5)
	if _, _, err := rel.BuildScan([]string{"ghost"}, nil); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestBaselineCompositeRowkey(t *testing.T) {
	meter := metrics.NewRegistry()
	cluster, err := hbase.NewCluster(hbase.ClusterConfig{Name: "bc", NumServers: 1, Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ParseCatalog(compositeCatalog)
	if err != nil {
		t.Fatal(err)
	}
	rel := NewBaselineRelation(cluster.NewClient(), cat, Options{}, meter)
	rows := []plan.Row{
		{"us", "h1", int64(5), "msg-a"},
		{"eu", "h2", int64(9), "msg-b"},
	}
	if err := rel.Insert(rows); err != nil {
		t.Fatal(err)
	}
	parts, _, err := rel.BuildScan([]string{"region", "host", "ts", "msg"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	sortRows(got)
	if got[0][0] != "eu" || got[0][2] != int64(9) || got[1][3] != "msg-a" {
		t.Errorf("rows = %v", got)
	}
}

// TestSHCAndBaselineAgreeThroughEngine is the correctness backbone of every
// benchmark: the two relations must produce identical query answers, with
// SHC doing strictly less work.
func TestSHCAndBaselineAgreeThroughEngine(t *testing.T) {
	const n = 120
	shcRig := newRig(t, Options{}, n)
	baseRel, baseMeter := newBaselineRig(t, n)

	shcSess, _ := engine.NewSession(engine.Config{
		Hosts: shcRig.cluster.Hosts(), ExecutorsPerHost: 2, Meter: shcRig.meter,
	})
	shcSess.RegisterAs("users", shcRig.rel)
	baseSess, _ := engine.NewSession(engine.Config{
		Hosts: []string{"w1", "w2", "w3"}, ExecutorsPerHost: 2, Meter: baseMeter,
	})
	baseSess.RegisterAs("users", baseRel)

	queries := []string{
		"SELECT id, age FROM users WHERE id >= 'user-0100' ORDER BY id",
		"SELECT city, count(*) AS n FROM users WHERE age > 30 GROUP BY city ORDER BY city",
		"SELECT id FROM users WHERE city = 'sf' AND score < 3.0 ORDER BY id",
		"SELECT id FROM users WHERE city NOT IN ('sf','la') ORDER BY id",
		"SELECT count(1) FROM users",
		"SELECT id FROM users WHERE id = 'user-0042'",
		"SELECT max(score), min(age) FROM users WHERE id BETWEEN 'user-0020' AND 'user-0060'",
	}
	for _, q := range queries {
		sdf, err := shcSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		srows, err := sdf.Collect()
		if err != nil {
			t.Fatalf("%s (shc): %v", q, err)
		}
		bdf, err := baseSess.SQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		brows, err := bdf.Collect()
		if err != nil {
			t.Fatalf("%s (baseline): %v", q, err)
		}
		if fmt.Sprint(srows) != fmt.Sprint(brows) {
			t.Errorf("query %q disagrees:\nshc:  %v\nbase: %v", q, srows, brows)
		}
	}
	// SHC moved strictly fewer bytes over the wire for the same answers.
	if shcRig.meter.Get(metrics.RPCBytesReceived) >= baseMeter.Get(metrics.RPCBytesReceived) {
		t.Errorf("SHC should receive fewer bytes: %d vs %d",
			shcRig.meter.Get(metrics.RPCBytesReceived), baseMeter.Get(metrics.RPCBytesReceived))
	}
	if shcRig.meter.Get(metrics.RowsReturned) >= baseMeter.Get(metrics.RowsReturned) {
		t.Errorf("SHC should fetch fewer rows: %d vs %d",
			shcRig.meter.Get(metrics.RowsReturned), baseMeter.Get(metrics.RowsReturned))
	}
	// Locality: SHC tasks land on region hosts; the baseline's cannot.
	if shcRig.meter.Get(metrics.TasksLocal) == 0 {
		t.Error("SHC scan tasks should be locality-scheduled")
	}
	if baseMeter.Get(metrics.TasksLocal) != 0 {
		t.Error("baseline tasks should not be local")
	}
}
