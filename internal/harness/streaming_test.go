package harness

import (
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
)

// bootStreamingPair boots two identical SHC rigs differing only in whether
// fused scan pipelines stream or every operator materializes.
func bootStreamingPair(t *testing.T) (streamed, materialized *Rig) {
	t.Helper()
	s, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3, DisablePipelining: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); m.Close() })
	return s, m
}

// TestLimitScansFewerRowsWhenStreamed pins the end-to-end LIMIT pushdown:
// the streamed pipeline forwards the limit into hbase.Scan.Limit and stops
// paging once satisfied, so the region servers scan measurably fewer rows
// than the materialized plan, which drains every region before truncating.
func TestLimitScansFewerRowsWhenStreamed(t *testing.T) {
	streamed, materialized := bootStreamingPair(t)
	const q = `SELECT ss_item_sk, ss_quantity FROM store_sales LIMIT 10`
	s, err := streamed.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := materialized.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 10 || len(m.Rows) != 10 {
		t.Fatalf("rows = %d streamed, %d materialized, want 10 each", len(s.Rows), len(m.Rows))
	}
	assertRowsEqual(t, s.Rows, m.Rows)
	ss, ms := s.Delta[metrics.RowsScanned], m.Delta[metrics.RowsScanned]
	if ss == 0 || ms == 0 {
		t.Fatalf("scan counters not tracked: streamed=%d materialized=%d", ss, ms)
	}
	if ss >= ms {
		t.Errorf("streamed LIMIT scanned %d rows, materialized scanned %d; pushdown must scan fewer", ss, ms)
	}
	if s.Delta[metrics.BatchesStreamed] == 0 {
		t.Error("streamed rig must execute through the batch pipeline")
	}
	if m.Delta[metrics.BatchesStreamed] != 0 {
		t.Error("materialized rig must not stream batches")
	}
}

// TestResidualPredicateShortCircuits pins over-delivery accounting: NOT IN
// never pushes into the HBase filter seam, so the pipeline keeps a residual
// predicate, cannot forward the limit to the servers, and instead cuts
// delivered batches locally — which must show up in RowsShortCircuited.
func TestResidualPredicateShortCircuits(t *testing.T) {
	streamed, materialized := bootStreamingPair(t)
	const q = `SELECT i_item_id FROM item WHERE i_category NOT IN ('Music') LIMIT 5`
	s, err := streamed.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := materialized.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, s.Rows, m.Rows)
	if len(s.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(s.Rows))
	}
	if s.Delta[metrics.RowsShortCircuited] == 0 {
		t.Error("residual-filter LIMIT must drop over-delivered rows unprocessed")
	}
}

// TestStreamedPeakMemoryLower pins the memory claim on a full-table scan
// with a selective filter: identical MemoryCharged (same rows decoded) but
// a lower high-water mark, because batches release after processing.
func TestStreamedPeakMemoryLower(t *testing.T) {
	streamed, materialized := bootStreamingPair(t)
	const q = `SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 10`
	s, err := streamed.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := materialized.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsEqual(t, s.Rows, m.Rows)
	sp, mp := s.Delta[metrics.MemoryPeak], m.Delta[metrics.MemoryPeak]
	if sp == 0 || mp == 0 {
		t.Fatalf("peaks not tracked: streamed=%d materialized=%d", sp, mp)
	}
	if sp >= mp {
		t.Errorf("streamed peak %d should be below materialized peak %d", sp, mp)
	}
	if s.Delta[metrics.PagesPrefetched] == 0 {
		t.Error("streamed scan should prefetch fused pages")
	}
}

// TestShowReadsOnlyItsRows: Show(n) collects through Limit(n), so a
// multi-region table renders the same table as truncating every row to
// the first n, while the region servers scan a few rows per partition
// instead of the whole table.
func TestShowReadsOnlyItsRows(t *testing.T) {
	rig, err := NewRig(Config{System: SHC, Scale: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	regions, err := rig.Client.Regions("store_sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 2 {
		t.Fatalf("store_sales has %d regions, want several", len(regions))
	}
	df, err := rig.Session.SQL("SELECT ss_ticket_number, ss_quantity, ss_sales_price FROM store_sales WHERE ss_quantity > 5")
	if err != nil {
		t.Fatal(err)
	}
	before := rig.Meter.Get(metrics.RowsScanned)
	all, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	full := rig.Meter.Get(metrics.RowsScanned) - before
	if len(all) < 3 {
		t.Fatalf("query returned %d rows, want more than 2", len(all))
	}

	// The reference: the first two collected rows rendered on their own.
	first := datasource.NewMemRelation("first", df.Schema(), 1)
	if err := first.Insert(all[:2]); err != nil {
		t.Fatal(err)
	}
	want, err := rig.Session.Read(first).Show(0)
	if err != nil {
		t.Fatal(err)
	}
	before = rig.Meter.Get(metrics.RowsScanned)
	got, err := df.Show(2)
	if err != nil {
		t.Fatal(err)
	}
	shown := rig.Meter.Get(metrics.RowsScanned) - before
	if got != want {
		t.Errorf("Show(2):\n%s\nwant the first two rows of Collect:\n%s", got, want)
	}
	if shown*10 > full {
		t.Errorf("Show(2) scanned %d rows, Collect %d; want under a tenth", shown, full)
	}
}
