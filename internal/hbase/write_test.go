package hbase

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// twoServerTable creates table "t" split at "m" on a two-server cluster and
// returns its two regions, checking that they live on different servers.
func twoServerTable(t testing.TB) (*Cluster, *Client, []RegionInfo) {
	t.Helper()
	c := bootCluster(t, 2)
	client := c.NewClient()
	t.Cleanup(client.Close)
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 || regions[0].Host == regions[1].Host {
		t.Fatalf("regions = %+v, want two regions on two servers", regions)
	}
	return c, client, regions
}

// spreadCells returns n cells whose rows cycle through the letters a-z, so
// they fall on both sides of the "m" split.
func spreadCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = cell(fmt.Sprintf("%c-%03d", 'a'+i%26, i), "cf", "q", 1, "v")
	}
	return cells
}

// regionOf returns the live region with the given ID, wherever it is hosted.
func regionOf(t *testing.T, c *Cluster, id string) *Region {
	t.Helper()
	for _, rs := range c.Servers {
		if r := rs.Region(id); r != nil {
			return r
		}
	}
	t.Fatalf("region %s is hosted nowhere", id)
	return nil
}

// requireEachRowOnce scans every version of the table and requires exactly
// want rows, each holding exactly one cell.
func requireEachRowOnce(t *testing.T, client *Client, want int) {
	t.Helper()
	client.InvalidateRegions("t")
	results, err := client.ScanTable("t", &Scan{MaxVersions: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != want {
		t.Fatalf("rows = %d, want %d", len(results), want)
	}
	for _, r := range results {
		if len(r.Cells) != 1 {
			t.Fatalf("row %s holds %d cells, want 1", r.Row, len(r.Cells))
		}
	}
}

func TestClientPutSendsOneMultiPutPerServer(t *testing.T) {
	c, client, _ := twoServerTable(t)
	const n = 200
	if err := client.Put("t", spreadCells(n)); err != nil {
		t.Fatal(err)
	}
	// Two regions on two servers: one MultiPut each, and no other write RPC.
	if got := c.Meter.Get(metrics.MultiPuts); got != 2 {
		t.Errorf("multi-puts = %d, want 2", got)
	}
	if got := c.Meter.Histogram(metrics.HistRPCLatencyPrefix + MethodMultiPut).Count(); got != 2 {
		t.Errorf("MultiPut RPCs = %d, want 2", got)
	}
	if got := c.Meter.Histogram(metrics.HistRPCLatencyPrefix + MethodPut).Count(); got != 0 {
		t.Errorf("Put RPCs = %d, want 0", got)
	}
	requireEachRowOnce(t, client, n)
}

func TestClientPutRetriesOnlyTheFailedServer(t *testing.T) {
	c, client, regions := twoServerTable(t)
	// The second server's first MultiPut fails before it is applied. The
	// round still delivers the first server's piece, and the retry re-sends
	// only the second server's.
	c.Net.SetFaultInjector(rpc.NewFaultInjector(1, &rpc.FaultRule{
		Host: regions[1].Host, Method: MethodMultiPut, FailNext: 1, Err: rpc.ErrConnClosed,
	}))
	const n = 200
	cells := spreadCells(n)
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.MultiPuts); got != 3 {
		t.Errorf("multi-puts = %d, want 3 (two, then one retry)", got)
	}
	// Each region wrote each of its cells once: nothing was re-sent to the
	// server that succeeded.
	for _, ri := range regions {
		want := 0
		for _, cl := range cells {
			if ri.ContainsRow(cl.Row) {
				want++
			}
		}
		if got := regionOf(t, c, ri.ID).WriteLoad(); got != int64(want) {
			t.Errorf("region %s wrote %d cells, want %d", ri.ID, got, want)
		}
	}
	requireEachRowOnce(t, client, n)
}

// TestIngestPutAppliesOnceAcrossLostReply: the first server applies
// Client.Put's piece but its reply is lost. The retry re-sends the piece
// under its original stamp, so the region deduplicates it instead of
// writing and logging its cells a second time.
func TestIngestPutAppliesOnceAcrossLostReply(t *testing.T) {
	c, client, regions := twoServerTable(t)
	inj := rpc.NewFaultInjector(1, &rpc.FaultRule{
		Host: regions[0].Host, Method: MethodMultiPut, FailNext: 1, DropReply: true, Err: rpc.ErrConnClosed,
	})
	c.Net.SetFaultInjector(inj)
	cells := spreadCells(40)
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("faults fired = %d, want 1: the lost reply was vacuous", inj.Fired())
	}
	want := 0
	for _, cl := range cells {
		if regions[0].ContainsRow(cl.Row) {
			want++
		}
	}
	if got := regionOf(t, c, regions[0].ID).WriteLoad(); got != int64(want) {
		t.Errorf("first region wrote %d cells, want its %d once", got, want)
	}
	if got := c.Meter.Get(metrics.WALAppends); got != 2 {
		t.Errorf("WAL records = %d, want 2: one per region", got)
	}
	if got := c.Meter.Get(metrics.BatchesDeduped); got < 1 {
		t.Error("the re-sent piece whose reply was lost must have been deduplicated")
	}
	requireEachRowOnce(t, client, len(cells))
}

// BenchmarkClientPut times one 8-row Client.Put over the two-server table:
// one stamped MultiPut to each server, the shape of perfbench's mixed-rw
// insert.
func BenchmarkClientPut(b *testing.B) {
	_, client, _ := twoServerTable(b)
	cells := spreadCells(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Put("t", cells); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMultiPutWireSizeMatchesEncoding holds the write request's stamp model
// to an encoding of the stamp fields: the writer length-prefixed, the
// low-water mark and each batch's Seq as uvarints. The fixed-width Ping and
// TableStats are held to their encodings too.
func TestMultiPutWireSizeMatchesEncoding(t *testing.T) {
	within := func(what string, model, real int) {
		t.Helper()
		if d := math.Abs(float64(model-real)) / float64(real); d > 0.05 {
			t.Errorf("%s: WireSize models %d bytes, encoding is %d (%.1f%% off)", what, model, real, 100*d)
		}
	}
	one := cell("row", "cf", "q", 1, "value")
	for _, tc := range []struct {
		writer string
		low    uint64
		seqs   []uint64
	}{
		{"7", 1, []uint64{1}},
		{"12", 120, []uint64{127, 128, 300}},
		{"40961", 1 << 40, []uint64{1 << 40, 1<<40 + 1, math.MaxUint64}},
	} {
		var enc []byte
		enc = binary.AppendUvarint(enc, uint64(len(tc.writer)))
		enc = append(enc, tc.writer...)
		enc = binary.AppendUvarint(enc, tc.low)
		batches := make([]RegionBatch, len(tc.seqs))
		for i, seq := range tc.seqs {
			enc = binary.AppendUvarint(enc, seq)
			batches[i] = RegionBatch{RegionID: "t-0001", Epoch: 3, Seq: seq, Cells: []Cell{one}}
		}
		// Region IDs, epochs and cells are outside this check; only the
		// stamp fields are under test.
		rest := len(tc.seqs) * (len("t-0001") + 8 + one.WireSize())
		req := &MultiPutRequest{Writer: tc.writer, LowWater: tc.low, Batches: batches}
		within(fmt.Sprintf("MultiPutRequest stamp fields %+v", tc), req.WireSize()-rest, len(enc))
	}

	for _, master := range []string{"", "m", "cluster-master-standby-1"} {
		p := Ping{Master: master, MasterEpoch: 9}
		enc := binary.AppendUvarint(nil, uint64(len(master)))
		enc = append(enc, master...)
		enc = binary.BigEndian.AppendUint64(enc, p.MasterEpoch)
		within("Ping "+master, p.WireSize(), len(enc))
	}
	st := TableStats{Bytes: 1 << 30, Cells: 1 << 20, Regions: 12}
	enc := binary.BigEndian.AppendUint64(nil, uint64(st.Bytes))
	enc = binary.BigEndian.AppendUint64(enc, uint64(st.Cells))
	enc = binary.BigEndian.AppendUint32(enc, uint32(st.Regions))
	within("TableStats", st.WireSize(), len(enc))
}

// TestWriteRoundSplitMidRoundKeepsOneSnapshot lands a split in the middle of
// one delivery round: the first server's MultiPut applies but loses its
// reply, and the rule's hook splits the second server's region before the
// round reaches it. The round's remaining piece goes out against the
// round's own snapshot and is refused; the retry regroups every unacked cell
// against a fresh map. Every cell must land once, and every stamp must be
// applied at most once per region, through Client.Put and through a mutator.
func TestWriteRoundSplitMidRoundKeepsOneSnapshot(t *testing.T) {
	for _, viaMutator := range []bool{false, true} {
		name := "put"
		if viaMutator {
			name = "mutator"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			c, client, regions := twoServerTable(t)
			// Rows in the second region give it a split point.
			var seed []Cell
			for i := 0; i < 30; i++ {
				seed = append(seed, cell(fmt.Sprintf("seed-%03d", i), "cf", "q", 1, "0123456789abcdef"))
			}
			if err := client.Put("t", seed); err != nil {
				t.Fatal(err)
			}
			counter := newAppliedCounter()
			for _, rs := range c.Servers {
				rs.SetBatchAppliedHook(counter.hook())
			}
			split := false
			inj := rpc.NewFaultInjector(1, &rpc.FaultRule{
				Host: regions[0].Host, Method: MethodMultiPut, FailNext: 1, DropReply: true, Err: rpc.ErrConnClosed,
				OnFire: func() {
					if err := c.Master.SplitRegion("t", regions[1].ID); err != nil {
						t.Errorf("split: %v", err)
					}
					split = true
				},
			})
			c.Net.SetFaultInjector(inj)

			const n = 40
			cells := spreadCells(n)
			var m *BufferedMutator
			if viaMutator {
				m = client.NewMutator("t", MutatorConfig{FlushBytes: 1 << 20})
				if err := m.Mutate(ctx, cells...); err != nil {
					t.Fatal(err)
				}
				if err := m.Close(ctx); err != nil {
					t.Fatal(err)
				}
			} else if err := client.Put("t", cells); err != nil {
				t.Fatal(err)
			}
			if !split || inj.Fired() != 1 {
				t.Fatalf("split = %v, faults fired = %d: the schedule was vacuous", split, inj.Fired())
			}
			if got, _ := client.Regions("t"); len(got) != 3 {
				t.Fatalf("regions after split = %d, want 3", len(got))
			}
			requireEachRowOnce(t, client, len(seed)+n)
			if got := counter.maxApplies(); got > 1 {
				t.Fatalf("a stamped batch applied %d times in one region — exactly-once violated", got)
			}
			if got := c.Meter.Get(metrics.BatchesDeduped); got == 0 {
				t.Error("the resent piece whose reply was lost must have been deduplicated")
			}
			if !viaMutator {
				return
			}
			acked := m.AckedBatches()
			if len(acked) != 2 {
				t.Fatalf("acked batches = %d, want 2", len(acked))
			}
			// Each acked stamp was applied somewhere; maxApplies above
			// bounds every region's count at one.
			counter.mu.Lock()
			defer counter.mu.Unlock()
			for _, st := range acked {
				prefix := fmt.Sprintf("%s/%d@", st.Writer, st.Seq)
				applied := 0
				for key, k := range counter.counts {
					if strings.HasPrefix(key, prefix) {
						applied += k
					}
				}
				if applied == 0 {
					t.Errorf("acked stamp %+v was never applied", st)
				}
			}
		})
	}
}
