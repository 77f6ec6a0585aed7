package hbase

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

func TestDedupWindowBasics(t *testing.T) {
	w := newDedupWindow()
	if w.has("a", 1) {
		t.Error("empty window must not report stamps")
	}
	w.mark("a", 1, 0)
	w.mark("a", 3, 0)
	w.mark("b", 1, 0)
	if !w.has("a", 1) || !w.has("a", 3) || !w.has("b", 1) {
		t.Error("marked stamps must be reported")
	}
	if w.has("a", 2) || w.has("c", 1) {
		t.Error("unmarked stamps must not be reported")
	}
	// The anonymous writer is never tracked: unstamped writes do not dedup.
	w.mark("", 7, 0)
	if w.has("", 7) {
		t.Error("anonymous stamps must not be tracked")
	}
	// Clones are independent snapshots.
	c := w.clone()
	w.mark("a", 9, 0)
	if c.has("a", 9) {
		t.Error("clone must not see later marks")
	}
	if !c.has("a", 1) {
		t.Error("clone must keep earlier marks")
	}
	var nilWin *dedupWindow
	if nilWin.has("a", 1) {
		t.Error("nil window has nothing")
	}
	if nilWin.clone() == nil {
		t.Error("nil clone must allocate a fresh window")
	}
}

func TestDedupWindowPrunesByLowWater(t *testing.T) {
	w := newDedupWindow()
	// A writer streams 10k batches, each claiming everything before it is
	// resolved: the seen set stays O(in-flight), not O(history).
	for i := uint64(1); i <= 10000; i++ {
		w.mark("w", i, i)
	}
	ww := w.writers["w"]
	if len(ww.seen) > 2 {
		t.Fatalf("window kept %d stamps, want <= 2", len(ww.seen))
	}
	// Pruned stamps collapse into the watermark, not into oblivion: every
	// resolved sequence still deduplicates.
	if !w.has("w", 10000) || !w.has("w", 1) || !w.has("w", 5000) {
		t.Error("stamps at or below the low-water mark must still dedup")
	}
	// Without a low-water claim nothing is pruned, no matter how far a stamp
	// trails the high-water mark — a slow retry can never out-age its stamp.
	s := newDedupWindow()
	s.mark("s", 1, 0)
	s.mark("s", 100000, 0)
	if len(s.writers["s"].seen) != 2 || !s.has("s", 1) {
		t.Error("stamps above the low-water mark must never be pruned")
	}
	// The mark only moves forward; a stale lower claim cannot resurrect
	// unseen sequences below the established mark.
	w.mark("w", 10001, 1)
	if !w.has("w", 2) {
		t.Error("low-water mark must be monotonic")
	}
	// Clones carry the watermark.
	if !w.clone().has("w", 3) {
		t.Error("clone must keep the low-water mark")
	}
}

func TestPutBatchStampedDeduplicates(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	cells := []Cell{cell("a", "cf", "q", 1, "x"), cell("b", "cf", "q", 1, "y")}
	applied, err := r.PutBatchStamped("w1", 1, 0, cells)
	if err != nil || !applied {
		t.Fatalf("first apply = %v, %v", applied, err)
	}
	applied, err = r.PutBatchStamped("w1", 1, 0, cells)
	if err != nil || applied {
		t.Fatalf("replay must dedup, got applied=%v err=%v", applied, err)
	}
	if got := r.meter.Get(metrics.BatchesDeduped); got != 1 {
		t.Errorf("batches deduped = %d", got)
	}
	// A different stamp applies.
	if applied, err = r.PutBatchStamped("w1", 2, 0, []Cell{cell("c", "cf", "q", 1, "z")}); err != nil || !applied {
		t.Fatalf("new stamp = %v, %v", applied, err)
	}
	if n := len(r.RunScan(&Scan{})); n != 3 {
		t.Errorf("rows = %d, want 3", n)
	}
}

func TestDedupSurvivesFlushAndCrashRecovery(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if _, err := r.PutBatchStamped("w", 1, 0, []Cell{cell("a", "cf", "q", 1, "x")}); err != nil {
		t.Fatal(err)
	}
	// Flush snapshots the window into the durable half.
	r.Flush()
	if _, err := r.PutBatchStamped("w", 2, 0, []Cell{cell("b", "cf", "q", 1, "y")}); err != nil {
		t.Fatal(err)
	}
	// Crash: the memstore is lost, the WAL replays. Stamp 1 comes back from
	// the durable snapshot, stamp 2 from the replayed WAL entries.
	if err := r.RecoverFromWAL(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		applied, err := r.PutBatchStamped("w", seq, 0, []Cell{cell("a", "cf", "q", 1, "dup")})
		if err != nil || applied {
			t.Fatalf("stamp %d must dedup after recovery, got applied=%v err=%v", seq, applied, err)
		}
	}
	if n := len(r.RunScan(&Scan{})); n != 2 {
		t.Errorf("rows after recovery = %d, want 2", n)
	}
}

func TestDedupDropMemStoreForgetsUnflushedStamps(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	if _, err := r.PutBatchStamped("w", 1, 0, []Cell{cell("a", "cf", "q", 1, "x")}); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if _, err := r.PutBatchStamped("w", 2, 0, []Cell{cell("b", "cf", "q", 1, "y")}); err != nil {
		t.Fatal(err)
	}
	// DropMemStore models losing unflushed (hence unacked-able) state without
	// WAL replay: stamp 2's cells are gone, so its stamp must be forgotten or
	// the retry would be wrongly swallowed.
	r.DropMemStore()
	applied, err := r.PutBatchStamped("w", 2, 0, []Cell{cell("b", "cf", "q", 1, "y")})
	if err != nil || !applied {
		t.Fatalf("retry after drop must apply, got applied=%v err=%v", applied, err)
	}
	if applied, _ = r.PutBatchStamped("w", 1, 0, []Cell{cell("a", "cf", "q", 1, "x")}); applied {
		t.Error("flushed stamp must still dedup after drop")
	}
}

func TestSplitDaughtersInheritDedupWindow(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	for i := 0; i < 10; i++ {
		if _, err := r.PutBatchStamped("w", uint64(i+1), 0, []Cell{cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "x")}); err != nil {
			t.Fatal(err)
		}
	}
	low, high, err := r.SplitInto("t-l", "t-h", r.SplitPoint(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// A batch retried after the split lands on a daughter; both must dedup it.
	for _, d := range []*Region{low, high} {
		for seq := uint64(1); seq <= 10; seq++ {
			row := fmt.Sprintf("row-%02d", seq-1)
			if !d.info.ContainsRow([]byte(row)) {
				continue
			}
			applied, err := d.PutBatchStamped("w", seq, 0, []Cell{cell(row, "cf", "q", 1, "dup")})
			if err != nil || applied {
				t.Fatalf("daughter %s seq %d: applied=%v err=%v", d.info.ID, seq, applied, err)
			}
		}
	}
	// The parent's WAL is fenced at the daughters' epoch.
	if err := putCells(r, cell("row-00", "cf", "q", 2, "late")); !errors.Is(err, ErrFenced) {
		t.Errorf("write to fenced parent = %v, want ErrFenced", err)
	}
}

func TestRegionBulkLoad(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	cells := []Cell{
		cell("a", "cf", "q", 1, "x"),
		cell("b", "cf", "q", 1, "y"),
		cell("c", "cf", "q", 1, "z"),
	}
	if err := r.BulkLoad(cells); err != nil {
		t.Fatal(err)
	}
	if got := r.MemBytes(); got != 0 {
		t.Errorf("bulk load left %d bytes in the memstore, want 0", got)
	}
	if n := len(r.RunScan(&Scan{})); n != 3 {
		t.Errorf("rows = %d, want 3", n)
	}
	if got := r.meter.Get(metrics.BulkLoadCells); got != 3 {
		t.Errorf("bulk load cells metered = %d", got)
	}
	// Out-of-order input is the caller's bug, not silently re-sorted here.
	bad := []Cell{cell("z", "cf", "q", 1, "x"), cell("y", "cf", "q", 1, "x")}
	if err := r.BulkLoad(bad); err == nil {
		t.Error("unsorted bulk load must be rejected")
	}
	// A fenced region refuses bulk loads like any other write.
	r.log.Fence(r.info.Epoch + 1)
	if err := r.BulkLoad(cells); !errors.Is(err, ErrFenced) {
		t.Errorf("fenced bulk load = %v, want ErrFenced", err)
	}
}

func TestClientBulkLoadAcrossRegions(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	// Deliberately unsorted: the client sorts before carving region runs.
	var cells []Cell
	for i := 25; i >= 0; i-- {
		cells = append(cells, cell(fmt.Sprintf("%c-row", 'a'+i), "cf", "q", 1, fmt.Sprintf("v%02d", i)))
	}
	if err := client.BulkLoad("t", cells); err != nil {
		t.Fatal(err)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 26 {
		t.Fatalf("rows = %d, want 26", len(results))
	}
	if got := c.Meter.Get(metrics.BulkLoads); got != 2 {
		t.Errorf("bulk loads metered = %d, want 2 (one per region)", got)
	}
	// Nothing sits in any memstore: the path bypassed WAL and MemStore.
	for _, rs := range c.Servers {
		if got := rs.MemstoreBytes(); got != 0 {
			t.Errorf("server %s memstore = %d bytes after bulk load", rs.Host(), got)
		}
	}
}

func TestMemstoreBackpressureWatermarks(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Name: "t", NumServers: 1, Store: StoreConfig{FlushThresholdBytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	srv := c.Servers[0]
	srv.SetLimits(ServerLimits{
		MemstoreLowWatermarkBytes:  256,
		MemstoreHighWatermarkBytes: 1024,
		MemstoreDelay:              time.Microsecond,
	})
	// Flushes held: the watermark pressure cannot drain, so writes first
	// meter delays and then hit the hard reject.
	srv.HoldFlushes(true)
	var rejected bool
	for i := 0; i < 200 && !rejected; i++ {
		err := client.Put("t", []Cell{cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, "0123456789abcdef")})
		if err != nil {
			if !errors.Is(err, ErrMemstoreFull) {
				t.Fatalf("put %d failed with %v, want ErrMemstoreFull", i, err)
			}
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("held flushes never drove the memstore over the high watermark")
	}
	if got := c.Meter.Get(metrics.MemstoreDelays); got == 0 {
		t.Error("no delays metered below the high watermark")
	}
	if got := c.Meter.Get(metrics.MemstoreRejects); got == 0 {
		t.Error("no rejects metered")
	}
	// Releasing flushes lets the same write through: ErrMemstoreFull is a
	// retryable condition, not a verdict.
	srv.HoldFlushes(false)
	if err := client.Put("t", []Cell{cell("retry-row", "cf", "q", 1, "x")}); err != nil {
		t.Fatalf("put after releasing flushes: %v", err)
	}
}

func TestBufferedMutatorBatchesWrites(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 1 << 20})
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Mutate(ctx, cell(fmt.Sprintf("%c-%03d", 'a'+i%26, i), "cf", "q", 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// One flush, two regions on two servers: two MultiPut RPCs for 200 cells.
	if got := c.Meter.Get(metrics.MultiPuts); got != 2 {
		t.Errorf("multi-puts = %d, want 2", got)
	}
	if got := c.Meter.Get(metrics.MutatorFlushes); got != 1 {
		t.Errorf("flushes = %d, want 1", got)
	}
	if got := len(m.AckedBatches()); got != 2 {
		t.Errorf("acked batches = %d, want 2", got)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != n {
		t.Fatalf("rows = %d, %v", len(results), err)
	}
}

func TestBufferedMutatorFlushesBySizeAndInterval(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	// Tiny threshold: every few cells force an inline flush.
	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 64})
	for i := 0; i < 20; i++ {
		if err := m.Mutate(ctx, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, "0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.MutatorFlushes); got < 2 {
		t.Errorf("size-triggered flushes = %d, want >= 2", got)
	}

	// Interval flusher drains a buffer that never crosses FlushBytes.
	m2 := client.NewMutator("t", MutatorConfig{WriterID: "w2", FlushBytes: 1 << 20, FlushInterval: 2 * time.Millisecond})
	if err := m2.Mutate(ctx, cell("zz-interval", "cf", "q", 1, "x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(m2.AckedBatches()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(m2.AckedBatches()) == 0 {
		t.Error("background interval flush never acked the batch")
	}
	if err := m2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBufferedMutatorFlushSurfacesRegroupFailure(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	// Round 1: the MultiPut dies retryably and takes the master down with it.
	// The retry invalidates the region cache, so round 2 must re-resolve
	// locations through the unreachable master and fails before any RPC goes
	// out. The flush must surface that — not report success with the cells
	// silently dropped (regression: an early-error round used to return an
	// empty failed set that send() mistook for "all acked").
	inj := rpc.NewFaultInjector(1, &rpc.FaultRule{
		Method: MethodMultiPut, FailNext: 1, Err: rpc.ErrConnClosed,
		OnFire: func() {
			if err := c.Net.SetDown(c.Master.Host(), true); err != nil {
				t.Errorf("down master: %v", err)
			}
		},
	})
	c.Net.SetFaultInjector(inj)

	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 1 << 20, MaxAttempts: 3})
	if err := m.Mutate(ctx, cell("row-a", "cf", "q", 1, "v")); err != nil {
		t.Fatal(err)
	}
	err := m.Flush(ctx)
	if err == nil {
		t.Fatal("flush with undeliverable batches reported success")
	}
	if !errors.Is(err, rpc.ErrHostDown) {
		t.Fatalf("flush error = %v, want to wrap rpc.ErrHostDown", err)
	}
	if got := len(m.AckedBatches()); got != 0 {
		t.Errorf("acked batches = %d, want 0", got)
	}
}

func TestBufferedMutatorSurfacesBackgroundFlushError(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	inj := rpc.NewFaultInjector(1, &rpc.FaultRule{Method: MethodMultiPut, FailNext: 1, Err: rpc.ErrConnClosed})
	c.Net.SetFaultInjector(inj)
	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 1 << 20, FlushInterval: time.Millisecond, MaxAttempts: 1})
	if err := m.Mutate(ctx, cell("row-a", "cf", "q", 1, "v")); err != nil {
		t.Fatal(err)
	}
	// Wait until the background flusher has taken the buffer and recorded its
	// failure; the next explicit Flush must surface it — Mutate's documented
	// contract for deferred errors.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		recorded := m.bgErr != nil
		m.mu.Unlock()
		if recorded {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Flush(ctx); !errors.Is(err, rpc.ErrConnClosed) {
		t.Fatalf("explicit flush = %v, want the background rpc.ErrConnClosed surfaced", err)
	}
	// The error surfaces exactly once; the mutator keeps working after.
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close after surfaced error: %v", err)
	}
}

func TestBufferedMutatorConcurrentClose(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 1)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushInterval: time.Millisecond})
	if err := m.Mutate(ctx, cell("row-a", "cf", "q", 1, "v")); err != nil {
		t.Fatal(err)
	}
	// Two racing Closes must not double-close the ticker channel.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Close(ctx); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// appliedCounter records, per (writer, seq, region), how many times a server
// actually applied a stamped batch — dedup-suppressed replays do not count.
// It is the measurement side of the exactly-once property: double-applied
// cells are invisible to reads (identical cells collapse in version
// resolution), so reads alone cannot falsify exactly-once.
type appliedCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newAppliedCounter() *appliedCounter {
	return &appliedCounter{counts: make(map[string]int)}
}

func (a *appliedCounter) hook() func(writer string, seq uint64, regionID string) {
	return func(writer string, seq uint64, regionID string) {
		a.mu.Lock()
		a.counts[fmt.Sprintf("%s/%d@%s", writer, seq, regionID)]++
		a.mu.Unlock()
	}
}

func (a *appliedCounter) maxApplies() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	max := 0
	for _, n := range a.counts {
		if n > max {
			max = n
		}
	}
	return max
}

func TestBufferedMutatorExactlyOnceAcrossLostAck(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, [][]byte{[]byte("m")}); err != nil {
		t.Fatal(err)
	}
	counter := newAppliedCounter()
	for _, rs := range c.Servers {
		rs.SetBatchAppliedHook(counter.hook())
	}
	// The first two MultiPuts apply on the server but their acks vanish: the
	// client sees a dead connection and must retry the whole flush.
	inj := rpc.NewFaultInjector(1, &rpc.FaultRule{
		Method: MethodMultiPut, FailNext: 2, DropReply: true, Err: rpc.ErrConnClosed,
	})
	c.Net.SetFaultInjector(inj)

	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 1 << 20})
	const n = 40
	for i := 0; i < n; i++ {
		if err := m.Mutate(ctx, cell(fmt.Sprintf("%c-%03d", 'a'+i%26, i), "cf", "q", 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := c.Meter.Get(metrics.RepliesDropped); got != 2 {
		t.Fatalf("replies dropped = %d, want 2", got)
	}
	if got := c.Meter.Get(metrics.BatchesDeduped); got == 0 {
		t.Error("the retried batches must have been deduplicated server-side")
	}
	if got := counter.maxApplies(); got > 1 {
		t.Fatalf("a stamped batch applied %d times — exactly-once violated", got)
	}
	// Every acked batch landed.
	if got := len(m.AckedBatches()); got != 2 {
		t.Errorf("acked batches = %d, want 2", got)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != n {
		t.Fatalf("rows = %d, %v", len(results), err)
	}
}

func TestBufferedMutatorRegroupsAcrossSplit(t *testing.T) {
	ctx := context.Background()
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var seed []Cell
	for i := 0; i < 30; i++ {
		seed = append(seed, cell(fmt.Sprintf("row-%03d", i), "cf", "q", 1, "0123456789abcdef"))
	}
	if err := client.Put("t", seed); err != nil {
		t.Fatal(err)
	}
	counter := newAppliedCounter()
	for _, rs := range c.Servers {
		rs.SetBatchAppliedHook(counter.hook())
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	// Drop the ack of the first MultiPut AND split the region under it before
	// the retry: the batch regroups across the fresh boundaries, each piece
	// keeping its stamp, and the daughters' inherited windows dedup whatever
	// already landed.
	inj := rpc.NewFaultInjector(1, &rpc.FaultRule{
		Method: MethodMultiPut, FailNext: 1, DropReply: true, Err: rpc.ErrConnClosed,
		OnFire: func() {
			if err := c.Master.SplitRegion("t", regions[0].ID); err != nil {
				t.Errorf("split: %v", err)
			}
		},
	})
	c.Net.SetFaultInjector(inj)

	m := client.NewMutator("t", MutatorConfig{WriterID: "w1", FlushBytes: 1 << 20})
	const n = 40
	for i := 0; i < n; i++ {
		if err := m.Mutate(ctx, cell(fmt.Sprintf("row-%03d", 100+i), "cf", "q", 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := counter.maxApplies(); got > 1 {
		t.Fatalf("a stamped batch applied %d times across the split — exactly-once violated", got)
	}
	client.InvalidateRegions("t")
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != 30+n {
		t.Fatalf("rows = %d, want %d (%v)", len(results), 30+n, err)
	}
}

func TestScannerResumesExactlyAcrossSplit(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 40; i++ {
		cells = append(cells, cell(fmt.Sprintf("row-%02d", i), "cf", "q", 1, fmt.Sprintf("v%02d", i)))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	baseline, err := client.ScanTable("t", &Scan{})
	if err != nil {
		t.Fatal(err)
	}

	sc, err := client.OpenScanner("t", &Scan{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := sc.Next()
	if err != nil || len(page1) != 7 {
		t.Fatalf("page 1 = %d rows, %v", len(page1), err)
	}
	// The region under the scanner splits between pages: the old region ID is
	// gone, so the next page faults, relocates by cursor key, and must resume
	// with no row duplicated or dropped.
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Master.SplitRegion("t", regions[0].ID); err != nil {
		t.Fatal(err)
	}
	got := append([]Result(nil), page1...)
	for {
		page, err := sc.Next()
		if err != nil {
			t.Fatalf("resumed scan: %v", err)
		}
		if page == nil {
			break
		}
		got = append(got, page...)
	}
	if !reflect.DeepEqual(baseline, got) {
		t.Fatalf("scan across split differs: %d rows, want %d", len(got), len(baseline))
	}
}

func TestHotRegionDetectionSplitsByLoad(t *testing.T) {
	c := bootCluster(t, 2)
	client := c.NewClient()
	defer client.Close()
	if err := client.CreateTable(TableDescriptor{Name: "t", Families: []string{"cf"}}, nil); err != nil {
		t.Fatal(err)
	}
	c.Master.SetHotWriteThreshold(50)
	// A hot-key burst: every write lands in the single region.
	var cells []Cell
	for i := 0; i < 200; i++ {
		cells = append(cells, cell(fmt.Sprintf("hot-%03d", i), "cf", "q", 1, "0123456789abcdef"))
	}
	if err := client.Put("t", cells); err != nil {
		t.Fatal(err)
	}
	c.Master.JanitorPass()
	if got := c.Meter.Get(metrics.HotSplits); got == 0 {
		t.Fatal("hot region was not split by load")
	}
	if got := c.Meter.Get(metrics.JanitorRuns); got != 1 {
		t.Errorf("janitor runs = %d, want 1", got)
	}
	client.InvalidateRegions("t")
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 2 {
		t.Fatalf("regions after hot split = %d, want >= 2", len(regions))
	}
	// The load counter was consumed: an idle next pass splits nothing more.
	before := c.Meter.Get(metrics.HotSplits)
	c.Master.JanitorPass()
	if got := c.Meter.Get(metrics.HotSplits); got != before {
		t.Errorf("idle janitor pass split %d more regions", got-before)
	}
	results, err := client.ScanTable("t", &Scan{})
	if err != nil || len(results) != 200 {
		t.Fatalf("rows after hot split = %d, %v", len(results), err)
	}
}

func TestJanitorTickerRuns(t *testing.T) {
	c := bootCluster(t, 1)
	stop := c.Master.StartJanitor(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for c.Meter.Get(metrics.JanitorRuns) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if got := c.Meter.Get(metrics.JanitorRuns); got < 2 {
		t.Fatalf("janitor runs = %d, want >= 2", got)
	}
}
