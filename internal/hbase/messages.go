package hbase

// RPC method names served by region servers and the master.
const (
	// MethodPut names the retired per-region write RPC. No server registers
	// it; it stays declared because the benchmark's write-call count still
	// reads its latency histogram, which stays empty.
	MethodPut          = "Put"
	MethodMultiPut     = "MultiPut"
	MethodBulkLoad     = "BulkLoad"
	MethodFused        = "Fused"
	MethodPing         = "Ping"
	MethodCreateTable  = "CreateTable"
	MethodDeleteTable  = "DeleteTable"
	MethodTableRegions = "TableRegions"
	MethodListTables   = "ListTables"
	MethodTableStats   = "TableStats"
)

// RegionBatch is one group of mutations for one region inside a
// MultiPutRequest. Epoch is the ownership epoch the client routed by; the
// server rejects a stale one with ErrFenced (0 = unchecked, for callers
// that bypass the meta cache). Writer identifies the BufferedMutator
// instance and Seq is its per-writer batch sequence number; together they
// let the server deduplicate a retried batch whose ack was lost. A batch
// with no Writer (Client.Put's) is unstamped and never deduplicated. A batch regrouped
// after a split keeps its original stamp: the daughters inherited the
// parent's dedup window, and the regrouped pieces are row-disjoint, so
// per-region dedup on the same stamp stays exactly-once. That rests on one
// invariant the mutator guarantees by grouping each delivery round against
// a single RegionMap snapshot: a region receives every cell of a stamped
// batch that falls in its range, in one piece — so a region that has
// recorded a stamp already holds all of that batch's rows in its range, and
// dropping a re-sent piece as a duplicate loses nothing. LowWater is the
// writer's low-water mark — every sequence below it is resolved (acked or
// abandoned) and will never be retried — which bounds the server-side dedup
// window without a fixed size that could out-prune a slow retry.
type RegionBatch struct {
	RegionID string
	Epoch    uint64
	Writer   string
	Seq      uint64
	LowWater uint64
	Cells    []Cell
}

// WireSize implements rpc.Message sizing for embedded batches. An unstamped
// batch carries no writer, sequence or low-water mark, so it is charged only
// its region ID, epoch and cells.
func (b *RegionBatch) WireSize() int {
	n := len(b.RegionID) + 8
	if b.Writer != "" {
		n += len(b.Writer) + 16
	}
	for i := range b.Cells {
		n += b.Cells[i].WireSize()
	}
	return n
}

// MultiPutRequest carries several region batches bound for one server — the
// client's one write RPC, sent by Client.Put and by BufferedMutator
// flushes. The server applies the batches in order, deduplicating any
// stamped batch it has already applied, and returns the first error it hit
// (retrying the whole request is safe: dedup makes re-applying the stamped
// batches that did succeed a no-op, and an unstamped batch rewrites the same
// versions).
type MultiPutRequest struct {
	Batches []RegionBatch
	Token   string
}

// WireSize implements rpc.Message.
func (m *MultiPutRequest) WireSize() int {
	n := len(m.Token)
	for i := range m.Batches {
		n += m.Batches[i].WireSize()
	}
	return n
}

// BulkLoadRequest installs pre-sorted cells directly as a store file in one
// region, bypassing the WAL and MemStore — HBase's HFile bulk load. The
// cells must be sorted in store order and fall inside the region's range.
type BulkLoadRequest struct {
	RegionID string
	Epoch    uint64
	Cells    []Cell
	Token    string
}

// WireSize implements rpc.Message.
func (m *BulkLoadRequest) WireSize() int {
	n := len(m.RegionID) + len(m.Token) + 8
	for i := range m.Cells {
		n += m.Cells[i].WireSize()
	}
	return n
}

// Ack is an empty success response.
type Ack struct{}

// WireSize implements rpc.Message.
func (Ack) WireSize() int { return 1 }

// Ping is the master's heartbeat probe to a region server. Master names the
// probing master and MasterEpoch carries its fencing epoch: a server that
// has been probed by a newer master rejects stale-epoch pings, so a deposed
// master cannot keep a server's lease alive. Zero values (bare probes from
// tests) bypass the check.
type Ping struct {
	Master      string
	MasterEpoch uint64
}

// WireSize implements rpc.Message.
func (p Ping) WireSize() int { return 9 + len(p.Master) }

// ScanResponse returns the matching rows. For paged fused requests it also
// carries the continuation state: More reports that the server stopped at
// the request's BatchLimit with work remaining, and Next is the cursor the
// client echoes back to resume exactly where this page ended. When the
// request asked for Columnar and the page is packable, the rows travel in
// Block instead of Results — same rows, same order, column-major. An
// aggregate request is answered with Aggs alone: the request's partials
// with every visited row folded in.
type ScanResponse struct {
	Results []Result
	Block   *CellBlock
	Aggs    []AggPartial
	More    bool
	Next    FusedCursor
	// Stale marks a page served (in whole or part) by a secondary replica:
	// the rows are a possibly-lagging prefix of the primary's history.
	// StalenessMs is the explicit bound on that lag — the longest any
	// serving replica had gone without draining its shipped queue. Every
	// stale response carries the bound, even when it is 0ms.
	Stale       bool
	StalenessMs int64
}

// WireSize implements rpc.Message.
func (m *ScanResponse) WireSize() int {
	n := 0
	for i := range m.Results {
		n += m.Results[i].WireSize()
	}
	if m.Block != nil {
		n += m.Block.WireSize()
	}
	if len(m.Aggs) > 0 {
		n += uvarintLen(uint64(len(m.Aggs)))
		for i := range m.Aggs {
			n += m.Aggs[i].WireSize()
		}
	}
	if m.More {
		n += m.Next.WireSize() + 1
	}
	if m.Stale {
		n += 9
	}
	return n
}

// CellColumn is one column of a columnar page: the family:qualifier pair is
// carried once for the whole page instead of once per cell, and Values is
// row-aligned with CellBlock.Rows (nil = the row has no cell in this
// column). Cell timestamps and types are not carried — the columnar form
// serves latest-version scan decoding, and the server falls back to
// row-major Results whenever that would lose information.
type CellColumn struct {
	Family    string
	Qualifier string
	Values    [][]byte
}

// CellBlock is the column-major encoding of one fused page: row keys in
// scan order plus one row-aligned value array per projected column. Packing
// happens after the page's rows and continuation cursor are computed, so
// paging and mid-scan resume behave identically to the row-major form.
type CellBlock struct {
	Rows [][]byte
	Cols []CellColumn
}

// WireSize implements rpc.Message sizing: per-column metadata once, a
// presence bitmap, and length-prefixed values — the per-cell family/
// qualifier/timestamp overhead of the row-major form is gone.
func (b *CellBlock) WireSize() int {
	n := 0
	for _, r := range b.Rows {
		n += len(r) + 2
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		n += len(c.Family) + len(c.Qualifier) + (len(b.Rows)+7)/8
		for _, v := range c.Values {
			if v != nil {
				n += len(v) + 2
			}
		}
	}
	return n
}

// Len reports the block's row count.
func (b *CellBlock) Len() int { return len(b.Rows) }

// ScanOp is one scan or bulk-get bound for a specific region, used inside a
// fused request — the only form a region read takes. Epoch carries the
// per-region routing epoch (see RegionBatch); each op is checked
// independently, since a fused request spans many regions that may have
// moved at different times. Replica selects which copy answers: 0 (the
// default) is the primary, higher values address a secondary — the
// timeline-read failover path, which skips epoch checks because a replica
// is allowed to lag the primary's ownership changes.
type ScanOp struct {
	RegionID string
	Epoch    uint64
	Replica  int      // copy to address (0 = primary)
	Scan     *Scan    // nil when Rows is set
	Rows     [][]byte // bulk get when non-empty
}

// FusedCursor marks a resume position inside a fused request's op list, so
// a bounded response can continue exactly where the previous page stopped.
// The zero value means "start from the beginning".
type FusedCursor struct {
	// Op is the index into FusedRequest.Ops to resume at.
	Op int
	// Row resumes a scan op at this start row (nil = the op's own StartRow).
	Row []byte
	// RowIdx resumes a bulk-get op at this index into its Rows list.
	RowIdx int
	// Sent counts rows already returned from the current scan op, so a
	// per-op Scan.Limit keeps its meaning across pages.
	Sent int
}

// WireSize implements rpc.Message sizing for embedded cursors.
func (c *FusedCursor) WireSize() int { return 12 + len(c.Row) }

// FusedRequest packs multiple Scan/BulkGet operations for regions hosted on
// the same server into a single RPC — the operators-fusion optimization
// (paper §VI-A.4). Options on Scan apply per-op; Columns etc. for Rows ops
// come from the accompanying Scan template.
//
// A positive BatchLimit turns the call into one page of a paged execution:
// the server returns at most BatchLimit rows plus a continuation cursor
// instead of materializing the whole fused result in one response. Cursor
// resumes a previous page (zero value = start).
//
// Non-empty Aggs turn the call into a partial aggregate: the server walks
// every op with the same checks, folds each visited row into State (the
// caller's running partials; empty = zero) and answers with the updated
// partials instead of rows — no row budget, no cursor.
type FusedRequest struct {
	Ops        []ScanOp
	BatchLimit int
	Cursor     FusedCursor
	// Columnar asks the server to pack the page column-major (CellBlock)
	// when lossless; the server silently falls back to Results otherwise.
	Columnar bool
	Aggs     []AggSpec
	State    []AggPartial
	Token    string
}

// WireSize implements rpc.Message.
func (m *FusedRequest) WireSize() int {
	n := len(m.Token)
	if m.Columnar {
		n++
	}
	if m.BatchLimit > 0 {
		n += 4 + m.Cursor.WireSize()
	}
	if len(m.Aggs) > 0 {
		n += uvarintLen(uint64(len(m.Aggs))) + uvarintLen(uint64(len(m.State)))
		for i := range m.Aggs {
			n += m.Aggs[i].WireSize()
		}
		for i := range m.State {
			n += m.State[i].WireSize()
		}
	}
	for _, op := range m.Ops {
		n += len(op.RegionID) + 8
		if op.Replica > 0 {
			n += 2
		}
		if op.Scan != nil {
			n += op.Scan.WireSize()
		}
		for _, r := range op.Rows {
			n += len(r)
		}
	}
	return n
}

// CreateTableRequest creates a table pre-split at the given keys.
type CreateTableRequest struct {
	Desc      TableDescriptor
	SplitKeys [][]byte
	Token     string
}

// WireSize implements rpc.Message.
func (m *CreateTableRequest) WireSize() int {
	n := len(m.Desc.Name) + len(m.Token)
	for _, f := range m.Desc.Families {
		n += len(f)
	}
	for _, k := range m.SplitKeys {
		n += len(k)
	}
	return n
}

func (m *CreateTableRequest) authToken() string { return m.Token }

// TableRequest names a table for meta operations.
type TableRequest struct {
	Table string
	Token string
}

// WireSize implements rpc.Message.
func (m *TableRequest) WireSize() int { return len(m.Table) + len(m.Token) }

func (m *TableRequest) authToken() string { return m.Token }

// RegionList is the meta response listing a table's regions in key order.
type RegionList struct {
	Regions []RegionInfo
}

// WireSize implements rpc.Message.
func (m *RegionList) WireSize() int {
	n := 0
	for i := range m.Regions {
		n += m.Regions[i].WireSize()
	}
	return n
}

// TableStats summarizes a table's storage: the master aggregates it from
// the hosting regions, the way hbase:meta + region metrics feed size-based
// decisions.
type TableStats struct {
	Bytes   int64
	Cells   int64
	Regions int
}

// WireSize implements rpc.Message.
func (TableStats) WireSize() int { return 20 }

// TableNames lists table names.
type TableNames struct {
	Names []string
}

// WireSize implements rpc.Message.
func (m *TableNames) WireSize() int {
	n := 0
	for _, s := range m.Names {
		n += len(s)
	}
	return n
}
