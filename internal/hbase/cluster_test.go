package hbase

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

func bootCluster(t testing.TB, servers int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Name: "test", NumServers: servers})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterCreateTableAndRegions(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	defer client.Close()

	desc := TableDescriptor{Name: "users", Families: []string{"cf"}}
	splits := [][]byte{[]byte("g"), []byte("p")}
	if err := client.CreateTable(desc, splits); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("users")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(regions))
	}
	if regions[0].StartKey != nil || string(regions[0].EndKey) != "g" {
		t.Errorf("first region = %s", regions[0].String())
	}
	if regions[2].EndKey != nil {
		t.Errorf("last region = %s", regions[2].String())
	}
	// Regions spread across the three servers (least-loaded assignment).
	hosts := map[string]bool{}
	for _, ri := range regions {
		hosts[ri.Host] = true
	}
	if len(hosts) != 3 {
		t.Errorf("regions on %d hosts, want 3", len(hosts))
	}
	names, err := client.ListTables()
	if err != nil || len(names) != 1 || names[0] != "users" {
		t.Errorf("ListTables = %v, %v", names, err)
	}
}

func TestClusterCreateTableErrors(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	desc := TableDescriptor{Name: "t", Families: []string{"cf"}}
	if err := client.CreateTable(desc, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateTable(desc, nil); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := client.CreateTable(TableDescriptor{Name: "bad"}, nil); err == nil {
		t.Error("descriptor without families must fail")
	}
	unsorted := [][]byte{[]byte("p"), []byte("g")}
	if err := client.CreateTable(TableDescriptor{Name: "x", Families: []string{"cf"}}, unsorted); err == nil {
		t.Error("unsorted split keys must fail")
	}
}

func TestClientPutScanAcrossRegions(t *testing.T) {
	c := bootCluster(t, 3)
	client := c.NewClient()
	defer client.Close()
	desc := TableDescriptor{Name: "t", Families: []string{"cf"}}
	if err := client.CreateTable(desc, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, cell(fmt.Sprintf("%c-row", 'a'+i), "cf", "q", 1, fmt.Sprintf("v%d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("scan rows = %d", len(results))
	}
	// Results come back in key order because regions are visited in order.
	for i := 1; i < len(results); i++ {
		if strings.Compare(string(results[i-1].Row), string(results[i].Row)) >= 0 {
			t.Fatal("scan results must be ordered across regions")
		}
	}
	// Range scan touching only the second region.
	results, err = client.ScanTable("t", &Scan{StartRow: []byte("n"), StopRow: []byte("q")})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if string(r.Row) < "n" || string(r.Row) >= "q" {
			t.Errorf("row %q outside requested range", r.Row)
		}
	}
}

func TestClientGetAndBulkGet(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	if err := client.Put("t", []Cell{cell("a", "cf", "q", 1, "va"), cell("z", "cf", "q", 1, "vz")}); err != nil {
		t.Fatal(err)
	}
	res, err := client.Get("t", []byte("a"), nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value("cf", "q"); string(v) != "va" {
		t.Errorf("Get = %q", v)
	}
	results, err := client.BulkGetContext(context.Background(), "t", [][]byte{[]byte("a"), []byte("z"), []byte("missing")}, nil, 1, TimeRange{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Errorf("BulkGet rows = %d (missing row must be dropped)", len(results))
	}
	missing, err := client.Get("t", []byte("nope"), nil, 1, TimeRange{})
	if err != nil || !missing.Empty() {
		t.Errorf("missing Get = %v, %v", missing, err)
	}
}

func TestClientScanRegionAndFused(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 10; i++ {
		cells = append(cells, cell(fmt.Sprintf("%c", 'a'+i), "cf", "q", 1, "x"))
		cells = append(cells, cell(fmt.Sprintf("%c", 'n'+i), "cf", "q", 1, "y"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	one, err := client.ScanRegion(regions[0], &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 10 {
		t.Errorf("region scan = %d rows", len(one))
	}
	// Fused: scan + bulk get bound for the same server in one RPC.
	m := c.Meter
	before := m.Get(metrics.RPCCalls)
	ops := []ScanOp{
		{RegionID: regions[0].ID, Scan: &Scan{StartRow: []byte("a"), StopRow: []byte("c")}},
		{RegionID: regions[0].ID, Rows: [][]byte{[]byte("d")}},
	}
	resp, err := client.FusedExecPage(context.Background(), regions[0].Host, &FusedRequest{Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Errorf("fused results = %d", len(resp.Results))
	}
	if got := m.Get(metrics.RPCCalls) - before; got != 1 {
		t.Errorf("fused exec used %d RPCs, want 1", got)
	}
}

func TestClusterSecurityValidation(t *testing.T) {
	validator := func(token string) error {
		if token != "valid-token" {
			return errors.New("auth failed")
		}
		return nil
	}
	c, err := NewCluster(ClusterConfig{Name: "secure", NumServers: 1, Validate: validator})
	if err != nil {
		t.Fatal(err)
	}
	anon := c.NewClient()
	defer anon.Close()
	if err := anon.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err == nil {
		t.Fatal("unauthenticated create must fail")
	}
	authed := c.NewClient(WithTokenProvider(staticToken("valid-token")))
	defer authed.Close()
	if err := authed.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := authed.Put("t", []Cell{cell("r", "cf", "q", 1, "x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := anon.ScanTable("t", &Scan{}); err == nil {
		t.Error("unauthenticated scan must fail")
	}
}

type staticToken string

func (s staticToken) Token(string) (string, error) { return string(s), nil }

func TestMasterSplitAndClientInvalidation(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 50; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, "abcdefgh"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	regions, _ := client.Regions("t")
	if err := c.Master.SplitRegion("t", regions[0].ID); err != nil {
		t.Fatal(err)
	}
	// Cached map is stale; refresh shows two regions.
	client.InvalidateRegions("t")
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions after split = %d", len(regions))
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != 50 {
		t.Errorf("scan after split = %d rows, %v", len(results), err)
	}
}

func TestMasterSplitOvergrownAndBalance(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Name: "t", NumServers: 2, Store: StoreConfig{SplitThresholdBytes: 200}})
	if err != nil {
		t.Fatal(err)
	}
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 40; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, "0123456789abcdef"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	n, err := c.Master.SplitOvergrownRegions()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("expected at least one split")
	}
	moved := c.Master.Balance()
	counts := []int{c.Servers[0].RegionCount(), c.Servers[1].RegionCount()}
	if diff := counts[0] - counts[1]; diff < -1 || diff > 1 {
		t.Errorf("unbalanced after Balance (moved %d): %v", moved, counts)
	}
	client.InvalidateRegions("t")
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != 40 {
		t.Errorf("scan after split+balance = %d rows, %v", len(results), err)
	}
}

func TestMasterDeleteTable(t *testing.T) {
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Regions("t"); err == nil {
		t.Error("regions of deleted table must error")
	}
	if err := client.DeleteTable("t"); err == nil {
		t.Error("double delete must fail")
	}
	if c.Servers[0].RegionCount() != 0 {
		t.Error("regions must be unhosted on delete")
	}
	// A dropped region's epoch znode goes with it.
	sess := c.ZK.NewSession()
	defer sess.Close()
	left, err := sess.Children(zkEpochRegions)
	if err != nil {
		t.Fatal(err)
	}
	for _, ri := range regions {
		for _, id := range left {
			if id == ri.ID {
				t.Errorf("%s/%s survived DeleteTable", zkEpochRegions, id)
			}
		}
	}
}

func TestSecondMasterLosesElection(t *testing.T) {
	c := bootCluster(t, 1)
	_, err := NewMaster("test-master2", c.Net, c.ZK, StoreConfig{}, metrics.NewRegistry(), nil)
	if err == nil {
		t.Error("second master must lose the election")
	}
}

func TestSplitRowRange(t *testing.T) {
	ri := &RegionInfo{StartKey: []byte("g"), EndKey: []byte("p")}
	lo, hi, ok := SplitRowRange(ri, []byte("a"), []byte("z"))
	if !ok || string(lo) != "g" || string(hi) != "p" {
		t.Errorf("clip = %q %q %v", lo, hi, ok)
	}
	lo, hi, ok = SplitRowRange(ri, []byte("h"), []byte("k"))
	if !ok || string(lo) != "h" || string(hi) != "k" {
		t.Errorf("inner clip = %q %q %v", lo, hi, ok)
	}
	if _, _, ok = SplitRowRange(ri, []byte("q"), nil); ok {
		t.Error("non-overlapping range must not clip")
	}
	unbounded := &RegionInfo{}
	lo, hi, ok = SplitRowRange(unbounded, nil, nil)
	if !ok || lo != nil || hi != nil {
		t.Errorf("unbounded clip = %q %q %v", lo, hi, ok)
	}
}

func TestRegionInfoPredicates(t *testing.T) {
	ri := &RegionInfo{StartKey: []byte("g"), EndKey: []byte("p")}
	if ri.ContainsRow([]byte("a")) || !ri.ContainsRow([]byte("g")) || ri.ContainsRow([]byte("p")) {
		t.Error("ContainsRow boundary behaviour wrong")
	}
	if !ri.OverlapsRange(nil, nil) || ri.OverlapsRange([]byte("p"), nil) || ri.OverlapsRange(nil, []byte("g")) {
		t.Error("OverlapsRange boundary behaviour wrong")
	}
}

func TestTableDescriptorValidate(t *testing.T) {
	cases := []TableDescriptor{
		{},
		{Name: "t"},
		{Name: "t", Families: []string{""}},
		{Name: "t", Families: []string{"cf", "cf"}},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d must fail validation", i)
		}
	}
	good := TableDescriptor{Name: "t", Families: []string{"cf"}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid descriptor rejected: %v", err)
	}
}
