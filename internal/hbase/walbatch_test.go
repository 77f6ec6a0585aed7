package hbase

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/shc-go/shc/internal/metrics"
)

// rowsBatch builds one batch of len(rows) rows with four cells each, the
// shape of an 8-row Insert's piece for one region.
func rowsBatch(tag string, rows ...string) []Cell {
	var cells []Cell
	for _, row := range rows {
		for q := 0; q < 4; q++ {
			cells = append(cells, cell(row, "cf", fmt.Sprintf("q%d", q), 1, tag+row))
		}
	}
	return cells
}

// rowSet lists the rows a read returned, each with its cell count.
func rowSet(results []Result) map[string]int {
	out := make(map[string]int, len(results))
	for _, res := range results {
		out[string(res.Row)] = len(res.Cells)
	}
	return out
}

// A region batch is one WAL record: it takes one sequence number and one
// append however many cells and rows it carries.
func TestRegionBatchIsOneWALRecord(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if err := putCells(r, rowsBatch("v", "a", "b", "c", "d", "e", "f", "g", "h")...); err != nil {
		t.Fatal(err)
	}
	if got := r.meter.Get(metrics.WALAppends); got != 1 {
		t.Errorf("an 8-row, 32-cell batch made %d WAL appends, want 1", got)
	}
	if got := r.log.NextSeq(); got != 2 {
		t.Errorf("next sequence = %d, want 2 (one record)", got)
	}
	if got := rowSet(r.RunScan(&Scan{})); len(got) != 8 || got["h"] != 4 {
		t.Errorf("rows = %v, want 8 rows of 4 cells", got)
	}
}

// A held replica applies a shipped batch whole: ApplyPending(1) moves it
// from none of the batch's rows to all of them, and a timeline read never
// sees part of a batch.
func TestReplicaAppliesOneWholeBatch(t *testing.T) {
	primary := newTestRegion(t, StoreConfig{})
	rep := primary.NewReplica(1)
	rep.HoldApply(true)
	first := rowsBatch("1-", "a", "b", "c")
	second := rowsBatch("2-", "b", "d", "e", "f")
	for i := range second {
		second[i].Timestamp = 2 // a newer version of row b
	}
	for _, batch := range [][]Cell{first, second} {
		if err := putCells(primary, batch...); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.RunScan(&Scan{}); len(got) != 0 {
		t.Fatalf("held replica serves %v before any apply", rowSet(got))
	}
	if n := rep.ApplyPending(1); n != 1 {
		t.Fatalf("ApplyPending(1) applied %d records, want 1", n)
	}
	got := rowSet(rep.RunScan(&Scan{}))
	if len(got) != 3 || got["a"] != 4 || got["b"] != 4 || got["c"] != 4 {
		t.Fatalf("after one apply the replica serves %v, want all of the first batch and nothing of the second", got)
	}
	if res := rep.Get([]byte("b"), nil, 1, TimeRange{}); string(res.Cells[0].Value) != "1-b" {
		t.Errorf("row b reads %q after one apply, want the first batch's value", res.Cells[0].Value)
	}
	if got := rep.AppliedSeq(); got != 1 {
		t.Errorf("applied sequence = %d, want 1 (one record per batch)", got)
	}
	if n := rep.ApplyPending(1); n != 1 {
		t.Fatalf("second ApplyPending(1) applied %d records, want 1", n)
	}
	got = rowSet(rep.RunScan(&Scan{}))
	if len(got) != 6 {
		t.Fatalf("after two applies the replica serves %v, want 6 rows", got)
	}
	if res := rep.Get([]byte("b"), nil, 1, TimeRange{}); string(res.Cells[0].Value) != "2-b" {
		t.Errorf("row b reads %q after both applies, want the second batch's value", res.Cells[0].Value)
	}
	if n := rep.ApplyPending(1); n != 0 {
		t.Errorf("a third ApplyPending(1) applied %d records of two batches", n)
	}
}

// A torn newest record drops exactly its batch on recovery: the earlier
// batches come back whole, and the rebuilt dedup window covers exactly the
// stamps that were kept.
func TestRecoverDropsExactlyTheCorruptBatch(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	stamped := func(seq uint64, rows ...string) {
		t.Helper()
		if applied, err := r.PutBatchStamped("w", seq, 0, rowsBatch(fmt.Sprint(seq), rows...)); err != nil || !applied {
			t.Fatalf("batch %d: applied=%v err=%v", seq, applied, err)
		}
	}
	stamped(1, "a", "b")
	r.Flush() // stamp 1 becomes durable with the store file
	stamped(2, "c", "d")
	stamped(3, "e", "f")
	stamped(4, "g", "h", "a")
	if got := r.log.Len(); got != 3 {
		t.Fatalf("log holds %d records after the flush, want 3", got)
	}
	r.log.CorruptRecord(r.log.Len() - 1)
	if err := r.RecoverFromWAL(); err != nil {
		t.Fatal(err)
	}
	got := rowSet(r.RunScan(&Scan{}))
	if len(got) != 6 || got["g"] != 0 || got["h"] != 0 {
		t.Fatalf("recovered rows = %v, want a..f and nothing of the torn batch", got)
	}
	if res := r.Get([]byte("a"), nil, 1, TimeRange{}); string(res.Cells[0].Value) != "1a" {
		t.Errorf("row a reads %q, want the flushed batch's value: the torn batch must not half-apply", res.Cells[0].Value)
	}
	if got := r.meter.Get(metrics.WALEntriesReplayed); got != 2 {
		t.Errorf("records replayed = %d, want 2", got)
	}
	if got := r.meter.Get(metrics.WALCorruptEntries); got != 1 {
		t.Errorf("corrupt records = %d, want 1", got)
	}
	for seq, want := range map[uint64]bool{1: true, 2: true, 3: true, 4: false} {
		if has := r.dedup.has("w", seq); has != want {
			t.Errorf("dedup window holds stamp %d = %v, want %v", seq, has, want)
		}
	}
	// The dropped batch was never acknowledged as durable; its retry applies.
	if applied, err := r.PutBatchStamped("w", 4, 0, rowsBatch("4", "g", "h", "a")); err != nil || !applied {
		t.Errorf("retry of the torn batch: applied=%v err=%v, want applied", applied, err)
	}
	if applied, err := r.PutBatchStamped("w", 3, 0, rowsBatch("3", "e", "f")); err != nil || applied {
		t.Errorf("retry of a recovered batch: applied=%v err=%v, want deduplicated", applied, err)
	}
}

// A fenced region rejects a batch whole: no cell reaches the MemStore, no
// record reaches the log, and the stamp stays out of the dedup window.
func TestFencedRegionRejectsWholeBatch(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if _, err := r.PutBatchStamped("w", 1, 0, rowsBatch("1", "a")); err != nil {
		t.Fatal(err)
	}
	memBefore, recordsBefore, nextBefore := r.MemBytes(), r.log.Len(), r.log.NextSeq()
	r.log.Fence(r.Epoch() + 1)
	applied, err := r.PutBatchStamped("w", 2, 0, rowsBatch("2", "b", "c", "d"))
	if !errors.Is(err, ErrFenced) || applied {
		t.Fatalf("fenced batch: applied=%v err=%v, want ErrFenced", applied, err)
	}
	if r.MemBytes() != memBefore || r.log.Len() != recordsBefore || r.log.NextSeq() != nextBefore {
		t.Errorf("fenced batch left a trace: memstore %d -> %d bytes, log %d -> %d records, next seq %d -> %d",
			memBefore, r.MemBytes(), recordsBefore, r.log.Len(), nextBefore, r.log.NextSeq())
	}
	if got := rowSet(r.RunScan(&Scan{})); len(got) != 1 || got["a"] != 4 {
		t.Errorf("rows after the fenced batch = %v, want only a", got)
	}
	if r.dedup.has("w", 2) {
		t.Error("a fenced batch's stamp entered the dedup window")
	}
	if got := r.meter.Get(metrics.WALFencedAppends); got != 1 {
		t.Errorf("fenced appends = %d, want 1", got)
	}
}

// BenchmarkRegionPutBatch writes 8-row, 4-cell batches into a region of
// ~1,300 hot rows that flushes at 12 KiB and compacts at 4 files: the
// region half of an Insert on the mixed read/write workload. Every hot row
// is written as many times as the region keeps versions before the timer
// starts, so the timed batches update a region of its steady size and the
// figures do not depend on b.N.
func BenchmarkRegionPutBatch(b *testing.B) {
	const hotRows, batches = 1300, 256
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0001"}, testDesc(), StoreConfig{FlushThresholdBytes: 12 << 10, CompactThresholdFiles: 4}, metrics.NewRegistry())
	rng := rand.New(rand.NewSource(1))
	ring := make([][]Cell, batches)
	for i := range ring {
		rows := make([]string, 8)
		for k := range rows {
			rows[k] = fmt.Sprintf("row%05d", rng.Intn(hotRows))
		}
		ring[i] = rowsBatch("v", rows...)
	}
	var w ackedWriter
	for pass := 0; pass < testDesc().MaxVersions; pass++ {
		for lo := 0; lo < hotRows; lo += 8 {
			rows := make([]string, 0, 8)
			for k := lo; k < lo+8 && k < hotRows; k++ {
				rows = append(rows, fmt.Sprintf("row%05d", k))
			}
			if err := w.put(r, rowsBatch("v", rows...)...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.put(r, ring[i%batches]...); err != nil {
			b.Fatal(err)
		}
	}
}
