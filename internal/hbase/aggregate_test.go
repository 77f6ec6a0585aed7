package hbase

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/bytesutil"
)

// aggFixture loads one region of n rows: n:i an int32 (NULL every 7th row),
// n:f a float64 (NULL every 5th) and n:s a string. It returns the server
// hosting the region and a whole-region scan op over the numeric columns.
// The cells' column names are allocated apart from the literals requests
// name them by, as a writer's catalog parse is apart from a reader's, so
// no string comparison of the two can succeed on pointer identity.
func aggFixture(tb testing.TB, n int) (*RegionServer, ScanOp) {
	tb.Helper()
	c, err := NewCluster(ClusterConfig{Name: "agg", NumServers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	client := c.NewClient()
	tb.Cleanup(client.Close)
	if err := client.CreateTable(TableDescriptor{Name: "a", Families: []string{"n"}}, nil); err != nil {
		tb.Fatal(err)
	}
	fam, qi, qf, qs := strings.Clone("n"), strings.Clone("i"), strings.Clone("f"), strings.Clone("s")
	var cells []Cell
	for i := 0; i < n; i++ {
		row := []byte(fmt.Sprintf("r%05d", i))
		if i%7 != 0 {
			cells = append(cells, Cell{Row: row, Family: fam, Qualifier: qi, Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeInt32(int32(i*7919%10007 - 5000))})
		}
		if i%5 != 0 {
			cells = append(cells, Cell{Row: row, Family: fam, Qualifier: qf, Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeFloat64(float64(i)*0.1 - 3.7)})
		}
		cells = append(cells, Cell{Row: row, Family: fam, Qualifier: qs, Timestamp: 1, Type: TypePut, Value: []byte("payload-0123456789")})
	}
	if err := client.Put("a", cells); err != nil {
		tb.Fatal(err)
	}
	regions, err := client.Regions("a")
	if err != nil {
		tb.Fatal(err)
	}
	op := ScanOp{RegionID: regions[0].ID, Epoch: regions[0].Epoch, Scan: &Scan{Columns: []Column{{Family: "n", Qualifier: "i"}, {Family: "n", Qualifier: "f"}}}}
	// Build the region's read view now, so a benchmark times the scan and
	// not the first read's rebuild.
	if _, err := c.Servers[0].fusedPage(context.Background(), &FusedRequest{Ops: []ScanOp{op}}); err != nil {
		tb.Fatal(err)
	}
	return c.Servers[0], op
}

var fixtureAggs = []AggSpec{
	{Kind: AggCountRows},
	{Kind: AggCountColumn, Family: "n", Qualifier: "i", Type: ValueInt32},
	{Kind: AggSum, Family: "n", Qualifier: "f", Type: ValueFloat64},
	{Kind: AggMin, Family: "n", Qualifier: "i", Type: ValueInt32},
	{Kind: AggMax, Family: "n", Qualifier: "f", Type: ValueFloat64},
}

// foldResults is the client-side reference: the same aggregates folded
// over returned rows in order, by the name-search oracle.
func foldResults(t *testing.T, results []Result) []AggPartial {
	t.Helper()
	rows := make([][]Cell, len(results))
	for i := range results {
		rows[i] = results[i].Cells
	}
	state, err := oracleFold(fixtureAggs, nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestFusedAggregateMatchesRowFold(t *testing.T) {
	rs, op := aggFixture(t, 300)
	ctx := context.Background()
	rows, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{op}})
	if err != nil {
		t.Fatal(err)
	}
	want := foldResults(t, rows.Results)
	// Rows with neither numeric cell have nothing projected: not counted.
	if want[0].Count != 300-9 || want[1].Count >= want[0].Count || !want[3].Has {
		t.Fatalf("reference fold is vacuous: %+v", want)
	}

	got, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{op}, Aggs: fixtureAggs})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 0 || got.Block != nil || got.More {
		t.Fatalf("aggregate response carries rows or a cursor: %+v", got)
	}
	if !reflect.DeepEqual(got.Aggs, want) {
		t.Fatalf("pushed partials %+v, want %+v", got.Aggs, want)
	}

	// Two runs — the first half of the range, then the second half seeded
	// with the first run's partials — equal one run over both. The
	// request's state is left as sent.
	lo, hi := op, op
	lo.Scan = &Scan{Columns: op.Scan.Columns, StopRow: []byte("r00150")}
	hi.Scan = &Scan{Columns: op.Scan.Columns, StartRow: []byte("r00150")}
	first, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{lo}, Aggs: fixtureAggs})
	if err != nil {
		t.Fatal(err)
	}
	seed := append([]AggPartial(nil), first.Aggs...)
	second, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{hi}, Aggs: fixtureAggs, State: first.Aggs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Aggs, seed) {
		t.Fatal("the server wrote into the request's state")
	}
	if !reflect.DeepEqual(second.Aggs, want) {
		t.Fatalf("two chained runs %+v, want %+v", second.Aggs, want)
	}

	// Bulk-get ops and per-op limits fold exactly the rows they return.
	get := ScanOp{RegionID: op.RegionID, Epoch: op.Epoch, Scan: op.Scan, Rows: [][]byte{[]byte("r00003"), []byte("r00014"), []byte("nope")}}
	limited := op
	limited.Scan = &Scan{Columns: op.Scan.Columns, Limit: 40}
	for _, o := range []ScanOp{get, limited} {
		rows, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{o}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{o}, Aggs: fixtureAggs})
		if err != nil {
			t.Fatal(err)
		}
		if want := foldResults(t, rows.Results); !reflect.DeepEqual(got.Aggs, want) {
			t.Errorf("op %+v: partials %+v, want %+v", o, got.Aggs, want)
		}
	}

	if _, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{op}, Aggs: fixtureAggs, State: make([]AggPartial, 2)}); err == nil {
		t.Error("a state that does not match the specs must be rejected")
	}
	bad := []AggSpec{{Kind: AggSum, Family: "n", Qualifier: "s", Type: ValueInt64}}
	if _, err := rs.fusedPage(ctx, &FusedRequest{Ops: []ScanOp{op}, Aggs: bad}); err == nil || IsRetryable(err) {
		t.Errorf("a value that does not decode: err = %v, want a non-retryable error", err)
	}
}

// encodeAggSpec and encodeAggPartial are a real byte encoding of the new
// message fields: kind and type bytes plus uvarint-length-prefixed names;
// a flag byte, uvarint Count, fixed 8-byte Sum and Float, zigzag-varint Int.
func encodeAggSpec(b []byte, s AggSpec) []byte {
	b = append(b, byte(s.Kind), byte(s.Type))
	b = binary.AppendUvarint(b, uint64(len(s.Family)))
	b = append(b, s.Family...)
	b = binary.AppendUvarint(b, uint64(len(s.Qualifier)))
	return append(b, s.Qualifier...)
}

func encodeAggPartial(b []byte, p AggPartial) []byte {
	flags := byte(0)
	if p.Has {
		flags = 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(p.Count))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Sum))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Float))
	return binary.AppendVarint(b, p.Int)
}

// TestAggregateWireSizeMatchesEncoding pins the byte model of the
// aggregate fields: what they add to FusedRequest.WireSize and what an
// aggregate ScanResponse weighs stay within 5% of a real encoding.
func TestAggregateWireSizeMatchesEncoding(t *testing.T) {
	specs := append([]AggSpec{{Kind: AggMin, Family: "family", Qualifier: "a-long-qualifier-name", Type: ValueInt64}}, fixtureAggs...)
	states := []AggPartial{
		{}, {Count: 1}, {Count: 300, Sum: 1234.5}, {Has: true, Float: -5000, Int: -5000},
		{Has: true, Float: math.MaxInt64, Int: math.MaxInt64}, {Count: math.MaxInt64, Sum: math.Inf(1)},
	}
	within := func(what string, model, real int) {
		t.Helper()
		if d := math.Abs(float64(model-real)) / float64(real); d > 0.05 {
			t.Errorf("%s: WireSize models %d bytes, encoding is %d (%.1f%% off)", what, model, real, 100*d)
		}
	}

	var enc []byte
	enc = binary.AppendUvarint(enc, uint64(len(specs)))
	for _, s := range specs {
		enc = encodeAggSpec(enc, s)
	}
	enc = binary.AppendUvarint(enc, uint64(len(states)))
	for _, p := range states {
		enc = encodeAggPartial(enc, p)
	}
	ops := []ScanOp{{RegionID: "a-1", Scan: &Scan{Columns: []Column{{Family: "n", Qualifier: "i"}}}}}
	plain := (&FusedRequest{Ops: ops}).WireSize()
	withAggs := (&FusedRequest{Ops: ops, Aggs: specs, State: states}).WireSize()
	within("FusedRequest aggregate fields", withAggs-plain, len(enc))

	enc = binary.AppendUvarint(enc[:0], uint64(len(states)))
	for _, p := range states {
		enc = encodeAggPartial(enc, p)
	}
	within("aggregate ScanResponse", (&ScanResponse{Aggs: states}).WireSize(), len(enc))
}

// BenchmarkFusedAggregate folds one loaded region into partials — the
// pushed aggregate's whole server-side cost for the region.
func BenchmarkFusedAggregate(b *testing.B) {
	rs, op := aggFixture(b, 2000)
	ctx := context.Background()
	req := &FusedRequest{Ops: []ScanOp{op}, Aggs: fixtureAggs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.handleFused(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFusedAggregateAllocs pins the pushed aggregate's allocations per
// request over one region: they must not grow with the rows folded or the
// columns bound.
func TestFusedAggregateAllocs(t *testing.T) {
	rs, op := aggFixture(t, 300)
	ctx := context.Background()
	req := &FusedRequest{Ops: []ScanOp{op}, Aggs: fixtureAggs}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := rs.handleFused(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("a fused aggregate over one region made %.1f allocations, want at most 6", allocs)
	}
}

// BenchmarkFusedScanRows returns one loaded region's rows through a
// non-aggregate fused scan (RunScanWith under the fused op) — the path an
// unpushed region scan takes.
func BenchmarkFusedScanRows(b *testing.B) {
	rs, op := aggFixture(b, 2000)
	ctx := context.Background()
	req := &FusedRequest{Ops: []ScanOp{op}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.handleFused(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusedPageColumnar pages the same region out column-major, 256
// rows a page — what the server does for the same aggregate unpushed.
func BenchmarkFusedPageColumnar(b *testing.B) {
	rs, op := aggFixture(b, 2000)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := &FusedRequest{Ops: []ScanOp{op}, BatchLimit: 256, Columnar: true}
		for {
			resp, err := rs.handleFused(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			page := resp.(*ScanResponse)
			if !page.More {
				break
			}
			req.Cursor = page.Next
		}
	}
}
