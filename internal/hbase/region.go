package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/wal"
)

// StoreConfig tunes a region's storage behaviour.
type StoreConfig struct {
	// FlushThresholdBytes triggers a MemStore flush; defaults to 256 KiB.
	FlushThresholdBytes int
	// CompactThresholdFiles triggers a major compaction when the number of
	// store files reaches it; defaults to 4.
	CompactThresholdFiles int
	// SplitThresholdBytes marks the region as needing a split when its
	// total size exceeds it; 0 disables automatic splits.
	SplitThresholdBytes int
	// ServerLease is how long a region server keeps serving after its last
	// master heartbeat: a server silent longer self-fences (stops accepting
	// writes, and reads too when FenceReads is set) so a zombie cut off from
	// the master cannot double-serve regions the master has reassigned.
	// 0 disables self-fencing. Safe operation requires
	// ServerLease <= deathThreshold × heartbeat interval: the lease must
	// expire before the master gives the region to someone else.
	ServerLease time.Duration
	// FenceReads extends self-fencing to reads. Off, a self-fenced server
	// still answers reads (monotonic-read staleness is tolerated); on, it
	// rejects them with ErrFenced, trading availability for freshness.
	FenceReads bool
	// RegionReplication is the total number of copies of each region the
	// master places, primary included, each on a distinct server — HBase's
	// read-replica feature. Values <= 1 mean a single primary copy and
	// leave every code path byte-identical to the replica-free build.
	// Secondary copies serve only Consistency=Timeline reads; writes and
	// Strong reads always route to the primary.
	RegionReplication int
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.FlushThresholdBytes <= 0 {
		c.FlushThresholdBytes = 256 << 10
	}
	if c.CompactThresholdFiles <= 0 {
		c.CompactThresholdFiles = 4
	}
	return c
}

// Region stores the cells of one row-key range of one table. All access is
// serialized through its mutex; concurrency in the simulator comes from
// many regions, as it does in HBase.
type Region struct {
	info    RegionInfo
	desc    *TableDescriptor
	cfg     StoreConfig
	meter   *metrics.Registry
	mu      sync.RWMutex
	mem     memStore
	files   []*storeFile
	log     *wal.Log
	flushed uint64 // WAL sequence below which data is in store files

	// dedup is the live multi-put dedup window; durableDedup is its state as
	// of the last flush, the analogue of max-seq-id metadata persisted with
	// store files. Crash recovery rebuilds the live window from the durable
	// snapshot plus the batch stamps on replayed WAL entries, so the window
	// always covers exactly the acknowledged history. Both lazily allocated.
	dedup        *dedupWindow
	durableDedup *dedupWindow

	// writeLoad counts cells written since the master last sampled it — the
	// per-region write-rate signal hot-region detection splits by.
	writeLoad int64

	// cols is the region's column dictionary (columns.go): every column
	// the region has stored a cell in, with its id.
	cols *colDict

	// view is the resolved default read (maxVersions 1, unbounded time
	// range) as of its build, sorted in store order, with its row index
	// and each cell's column id; viewOK says it is current. Paged scans
	// and gets clip it instead of re-merging the region. A write doesn't
	// discard it: while the view is current, every written row goes into
	// dirty (sorted, distinct), and a default read re-resolves just those
	// rows from the store files and MemStore (rowCursor). Every other row
	// holds the same cells as at the build, so its view entry stays exact.
	// A flush only moves cells into a file and keeps the view. A
	// compaction replaces it with the compacted run's resolution and the
	// MemStore's rows as dirty; when the table keeps one version, the
	// view's cells are the compacted file's own. A view built while the
	// region is one store file that is its own default read and an empty
	// MemStore is that file's cells too, so the region holds one copy of
	// them. Bulk load, WAL recovery and dropping the MemStore change what
	// is visible without a write, so they discard the view
	// (dropViewLocked) and the next default read rebuilds it. Regions born
	// by split, reopen or replica bootstrap start without one, and no row
	// is recorded while there is none. Neither the view nor dirty is
	// written in place while readers may hold it: the view is only
	// replaced, and readers copy their part of dirty under the lock.
	view   rowRun
	viewOK bool
	dirty  [][]byte

	// Primary-side replication state: repl fans acked WAL entries out to
	// this region's secondary copies (nil when unreplicated). The pointer
	// is carried across Reopen so a promoted or reassigned primary keeps
	// shipping to the surviving copies.
	repl *replicator

	// Secondary-copy state (info.Replica > 0): entries shipped from the
	// primary queue in pending and apply in sequence order; appliedSeq is
	// the high-water mark already in the MemStore, and caughtUpAt is when
	// the copy last drained to parity with the primary — the staleness
	// bound a timeline read reports. applyHold freezes the apply loop so
	// tests can inject replication lag deterministically.
	pending    []shippedEntry
	appliedSeq uint64
	applyHold  bool
	caughtUpAt time.Time
}

// NewRegion creates an empty region for the given range.
func NewRegion(info RegionInfo, desc *TableDescriptor, cfg StoreConfig, meter *metrics.Registry) *Region {
	return &Region{
		info:  info,
		desc:  desc,
		cfg:   cfg.withDefaults(),
		meter: meter,
		log:   wal.New(meter),
		cols:  newColDict(),
	}
}

// Info returns a copy of the region's identity. It takes the region lock
// because Host is rebound when the region moves (balance, failover
// reassignment) while readers may be concurrently locating it.
func (r *Region) Info() RegionInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.info
}

// setHost rebinds the region's hosting server and returns the key the
// server indexes the copy under: the bare region ID for the primary, a
// replica-suffixed form for secondary copies.
func (r *Region) setHost(host string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info.Host = host
	return regionKey(r.info.ID, r.info.Replica)
}

// setEpoch stamps the region's ownership epoch (master-only, at assignment).
func (r *Region) setEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.info.Epoch = epoch
}

// Epoch reports the ownership epoch the region currently holds.
func (r *Region) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.info.Epoch
}

// Descriptor returns the table descriptor the region serves.
func (r *Region) Descriptor() TableDescriptor { return *r.desc }

// PutBatchStamped is the region's one write entry point: the batch goes to
// the WAL first, as one record, then to the MemStore through the same
// applyEntryLocked that recovery and replicas use, and the region flushes
// if the buffer is over threshold. It deduplicates on the (writer, seq)
// stamp: a batch the region has already applied is acknowledged without
// re-applying, which is what makes retrying a multi-put whose ack was lost
// exactly-once. applied reports whether the cells were written (false =
// duplicate, already durable). lowWater is the writer's claim that every
// sequence below it is resolved and unretryable; it lets the dedup window
// prune safely (0 = no claim). The record carries the region's held epoch:
// once the log has been fenced at a newer epoch (the region was
// reassigned), the whole batch fails before it is acknowledged, with
// nothing applied, surfacing as the retryable ErrFenced.
func (r *Region) PutBatchStamped(writer string, seq, lowWater uint64, cells []Cell) (applied bool, err error) {
	for i := range cells {
		if err := r.checkCell(&cells[i]); err != nil {
			return false, err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Replica > 0 {
		return false, fmt.Errorf("%w: replica %d of region %s is read-only", ErrNotServing, r.info.Replica, r.info.ID)
	}
	if r.dedupLocked().has(writer, seq) {
		r.meter.Inc(metrics.BatchesDeduped)
		return false, nil
	}
	rec := wal.Entry{Epoch: r.info.Epoch, Table: r.desc.Name, Region: r.info.ID, Writer: writer, Batch: seq, Edits: make([]wal.Edit, len(cells))}
	for i := range cells {
		c := &cells[i]
		kind := wal.KindPut
		if c.Type == TypeDelete {
			kind = wal.KindDelete
		}
		rec.Edits[i] = wal.Edit{Kind: kind, Row: c.Row, Family: c.Family, Qualifier: c.Qualifier, Timestamp: c.Timestamp, Value: c.Value}
	}
	if rec.Seq, err = r.log.Append(rec); err != nil {
		if errors.Is(err, wal.ErrFenced) {
			return false, fmt.Errorf("%w: region %s epoch %d superseded", ErrFenced, r.info.ID, r.info.Epoch)
		}
		return false, err
	}
	r.applyEntryLocked(&rec, lowWater)
	r.writeLoad += int64(len(cells))
	r.maybeFlushLocked()
	return true, nil
}

// locked; lazily allocates the live dedup window.
func (r *Region) dedupLocked() *dedupWindow {
	if r.dedup == nil {
		r.dedup = newDedupWindow()
	}
	return r.dedup
}

func (r *Region) checkCell(c *Cell) error {
	if !r.info.ContainsRow(c.Row) {
		return fmt.Errorf("hbase: row %x outside region %s", c.Row, r.info.ID)
	}
	if !r.desc.HasFamily(c.Family) {
		return fmt.Errorf("hbase: unknown column family %q in table %q", c.Family, r.desc.Name)
	}
	if c.Type != TypePut && c.Type != TypeDelete {
		return fmt.Errorf("hbase: cell has invalid type %d", c.Type)
	}
	return nil
}

// locked; applies one WAL record — a region batch — to the MemStore: every
// cell is added, each distinct row is marked dirty once, the batch stamp
// joins the dedup window, and the copy's applied high-water mark moves to
// the record. Writes, crash recovery, a replica's apply loop and promotion
// all go through it, so a batch lands whole on every path. lowWater is the
// writer's claim carried on a live batch; replayed and shipped records
// carry none (0), and the window converges on the writer's next batch.
func (r *Region) applyEntryLocked(e *wal.Entry, lowWater uint64) {
	var prev []byte
	for i := range e.Edits {
		ed := &e.Edits[i]
		typ := TypePut
		if ed.Kind == wal.KindDelete {
			typ = TypeDelete
		}
		r.addLocked(Cell{Row: ed.Row, Family: ed.Family, Qualifier: ed.Qualifier, Timestamp: ed.Timestamp, Type: typ, Value: ed.Value})
		if i == 0 || !bytes.Equal(ed.Row, prev) {
			r.markDirtyLocked(ed.Row)
			prev = ed.Row
		}
	}
	r.dedupLocked().mark(e.Writer, e.Batch, lowWater)
	r.appliedSeq = e.Seq
}

// locked; adds c to the MemStore, recording its column first.
func (r *Region) addLocked(c Cell) {
	r.cols.record(c.Family, c.Qualifier)
	r.mem.add(c)
}

// locked; records row as written since the view was built. Once dirty
// rows outnumber half the view's cells, re-resolving them on every read
// costs more than one rebuild, so the view is dropped instead.
func (r *Region) markDirtyLocked(row []byte) {
	if !r.viewOK {
		return
	}
	i := sort.Search(len(r.dirty), func(i int) bool { return bytes.Compare(r.dirty[i], row) >= 0 })
	if i < len(r.dirty) && bytes.Equal(r.dirty[i], row) {
		return
	}
	if len(r.dirty) >= len(r.view.cells)/2 {
		r.dropViewLocked()
		return
	}
	r.dirty = append(r.dirty, nil)
	copy(r.dirty[i+1:], r.dirty[i:])
	r.dirty[i] = row
}

// locked; discards the view after a change that alters visibility without
// a write. The next default read rebuilds it.
func (r *Region) dropViewLocked() {
	r.view, r.viewOK, r.dirty = rowRun{}, false, nil
}

// locked; installs v as the current view, with dirty (sorted, distinct,
// owned) as its stale rows, or discards the view when dirty rows already
// outnumber half its cells, the bound markDirtyLocked keeps. v's cells
// are kept as they are: a private run the caller has fitted, or a store
// file's own.
func (r *Region) setViewLocked(v rowRun, dirty [][]byte) {
	if len(dirty) > len(v.cells)/2 {
		r.dropViewLocked()
		return
	}
	r.view, r.viewOK, r.dirty = rowRun{cells: v.cells, ids: fit(v.ids), rows: fit(v.rows)}, true, dirty
}

// locked; the default read of cells, a sorted run, indexed for the view.
// A run that is its own default read is indexed as it stands, the view
// sharing its cells; any other is resolved in place when owned (the
// caller's to overwrite), else in a copy.
func (r *Region) defaultView(cells []Cell, owned bool) rowRun {
	if !owned && !isDefaultRead(cells) {
		cells, owned = append([]Cell(nil), cells...), true
	}
	v := rowRun{ids: make([]colID, 0, len(cells))}
	resolve(cells, 1, TimeRange{}, r.cols, &v)
	if owned {
		v.cells = fit(v.cells)
	}
	return v
}

// locked
func (r *Region) maybeFlushLocked() {
	if r.mem.bytes < r.cfg.FlushThresholdBytes {
		return
	}
	r.flushLocked()
}

// locked
func (r *Region) flushLocked() {
	if len(r.mem.cells) == 0 {
		return
	}
	// Secondary copies never flush: they share the primary's WAL, and
	// truncating it out from under the primary would lose acknowledged
	// history. Their MemStore simply accumulates shipped entries.
	if r.info.Replica > 0 {
		return
	}
	// A fenced owner must not flush: truncating the shared WAL below what
	// the new owner replays would lose acknowledged history. Its buffered
	// cells were all logged pre-fence, so the successor recovers them.
	if r.log.Epoch() > r.info.Epoch {
		return
	}
	r.files = append(r.files, newStoreFile(r.mem.sorted(keys{})))
	r.mem.reset()
	r.flushed = r.log.NextSeq()
	r.log.Truncate(r.flushed)
	// Snapshot the dedup window alongside the flushed data: the WAL entries
	// that carried these batch stamps were just truncated, so after a crash
	// the stamps can only be recovered from this snapshot.
	r.durableDedup = r.dedup.clone()
	r.meter.Inc(metrics.MemstoreFlushes)
	if len(r.files) >= r.cfg.CompactThresholdFiles {
		r.compactLocked()
	}
}

// Flush forces the MemStore to a store file.
func (r *Region) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
}

// locked; a major compaction of the store files into one resolved file.
// A current view is kept: each row the MemStore holds becomes dirty, and
// every other row resolves to what the compacted file holds of it. When
// the table keeps one version, the compacted file holds no tombstone and
// one version per column, so it is its own default read: compact indexes
// it as it writes it, carrying the old view's index for the rows it copies
// from the file the old view shared, and the view shares its cells.
func (r *Region) compactLocked() {
	maxV, v := r.desc.maxVersions(), r.view
	var ix *rowRun
	if r.viewOK && maxV == 1 {
		ix = &v
	}
	f := newStoreFile(compact(r.files, maxV, ix, r.cols))
	f.resolved = true
	r.files = []*storeFile{f}
	r.meter.Inc(metrics.Compactions)
	switch {
	case ix != nil:
		r.setViewLocked(v, r.mem.rows())
	case r.viewOK:
		r.setViewLocked(r.defaultView(f.cells, false), r.mem.rows())
	}
}

// Compact forces a major compaction.
func (r *Region) Compact() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	r.compactLocked()
}

// MemBytes reports the region's buffered (unflushed) MemStore bytes — the
// quantity server-wide memstore watermarks aggregate.
func (r *Region) MemBytes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mem.bytes
}

// TakeWriteLoad returns the cells written since the previous call and resets
// the counter — the master samples it each janitor pass, so the value is a
// per-interval write rate, not a lifetime total.
func (r *Region) TakeWriteLoad() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.writeLoad
	r.writeLoad = 0
	return n
}

// WriteLoad peeks at the cells written since the master last sampled the
// counter, without resetting it — the status snapshot reads it this way so
// observation never perturbs hot-region detection.
func (r *Region) WriteLoad() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.writeLoad
}

// Size reports the region's total stored bytes (MemStore + store files).
func (r *Region) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := r.mem.bytes
	for _, f := range r.files {
		n += f.size
	}
	return n
}

// CellCount reports how many cells (including not-yet-compacted versions
// and tombstones) the region stores — a cheap cardinality signal.
func (r *Region) CellCount() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := int64(len(r.mem.cells))
	for _, f := range r.files {
		n += int64(len(f.cells))
	}
	return n
}

// StoreFileCount reports how many store files the region currently holds.
func (r *Region) StoreFileCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.files)
}

// NeedsSplit reports whether the region has outgrown its split threshold.
func (r *Region) NeedsSplit() bool {
	if r.cfg.SplitThresholdBytes <= 0 {
		return false
	}
	return r.Size() > r.cfg.SplitThresholdBytes
}

// SplitPoint proposes a midpoint row key for splitting, or nil when the
// region holds too little distinct data to split.
func (r *Region) SplitPoint() []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	all := r.allCellsLocked(keys{})
	if len(all) == 0 {
		return nil
	}
	mid := all[len(all)/2].Row
	// The split point must differ from the region start key or the low
	// daughter would be empty-ranged.
	if len(r.info.StartKey) > 0 && bytes.Equal(mid, r.info.StartKey) {
		return nil
	}
	if bytes.Equal(mid, all[0].Row) && bytes.Equal(mid, all[len(all)-1].Row) {
		return nil // single-row region
	}
	return append([]byte(nil), mid...)
}

// SplitInto materializes two daughter regions at splitKey and returns them.
// The parent should be discarded afterwards. A non-zero newEpoch fences the
// parent's WAL at it and stamps the daughters with it, so any write still in
// flight against the parent fails un-acknowledged rather than landing in a
// region about to be thrown away — the fencing that makes a split safe under
// concurrent ingest. newEpoch 0 inherits the parent's epoch without fencing
// (direct single-region use, where no concurrent writer exists).
//
// Both daughters inherit the parent's full dedup window: a stamped batch
// retried after the split regroups into row-disjoint pieces, and each
// daughter independently recognizes the original stamp, so the retry stays
// exactly-once on both sides of the boundary.
func (r *Region) SplitInto(lowID, highID string, splitKey []byte, newEpoch uint64) (*Region, *Region, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(splitKey) == 0 || !r.info.ContainsRow(splitKey) {
		return nil, nil, fmt.Errorf("hbase: split key %x outside region %s", splitKey, r.info.ID)
	}
	epoch := r.info.Epoch
	if newEpoch > 0 {
		epoch = newEpoch
		r.log.Fence(newEpoch)
	}
	all := r.allCellsLocked(keys{})
	lowInfo := RegionInfo{Table: r.info.Table, ID: lowID, StartKey: r.info.StartKey, EndKey: append([]byte(nil), splitKey...), Host: r.info.Host, Epoch: epoch}
	highInfo := RegionInfo{Table: r.info.Table, ID: highID, StartKey: append([]byte(nil), splitKey...), EndKey: r.info.EndKey, Host: r.info.Host, Epoch: epoch}
	low := NewRegion(lowInfo, r.desc, r.cfg, r.meter)
	high := NewRegion(highInfo, r.desc, r.cfg, r.meter)
	low.cols, high.cols = r.cols.clone(), r.cols.clone()
	var lowCells, highCells []Cell
	for _, c := range all {
		if bytes.Compare(c.Row, splitKey) < 0 {
			lowCells = append(lowCells, c)
		} else {
			highCells = append(highCells, c)
		}
	}
	if len(lowCells) > 0 {
		low.files = []*storeFile{newStoreFile(lowCells)}
	}
	if len(highCells) > 0 {
		high.files = []*storeFile{newStoreFile(highCells)}
	}
	// The daughters are born flushed (all parent data is in their store
	// files), so the inherited window is durable state on both.
	low.dedup, low.durableDedup = r.dedup.clone(), r.dedup.clone()
	high.dedup, high.durableDedup = r.dedup.clone(), r.dedup.clone()
	r.meter.Inc(metrics.RegionSplits)
	return low, high, nil
}

// locked (read or write); merged, sorted cells of the rows k covers, a new
// slice. Store files come first in file order and the MemStore last, the
// tie order every read and compaction of the region uses.
func (r *Region) allCellsLocked(k keys) []Cell {
	runs := make([][]Cell, 0, len(r.files)+1)
	for _, f := range r.files {
		runs = append(runs, k.clip(f.cells))
	}
	runs = append(runs, r.mem.sorted(k))
	return mergeSorted(runs...)
}

// Scan is a region-local range read with server-side projection, version
// and time-range resolution, filtering, and an optional row limit.
type Scan struct {
	StartRow    []byte // inclusive; nil = region start
	StopRow     []byte // exclusive; nil = region end
	Columns     []Column
	Filter      Filter
	MaxVersions int
	TimeRange   TimeRange
	Limit       int // max rows; 0 = unlimited
}

// WireSize implements rpc.Message for scan requests.
func (s *Scan) WireSize() int {
	n := len(s.StartRow) + len(s.StopRow) + 16
	for _, c := range s.Columns {
		n += len(c.Family) + len(c.Qualifier)
	}
	if s.Filter != nil {
		n += s.Filter.WireSize()
	}
	return n
}

// cutRows cuts the projected rows visitScan visits, at most s.Limit of
// them when set: into cut when it is on, else appended to out as Results.
// It returns out and how many rows it cut. The Results are passed and
// returned rather than kept in the page, so a caller's own array for them
// can stay on its stack.
func (r *Region) cutRows(s *Scan, k keys, b *binding, m metrics.Meter, cut *blockCut, out []Result) ([]Result, int) {
	var rows, cells int64
	// A range op's first row past a full page grows it once, to the rows
	// cut so far plus this one and the rows the op has left, scaled by the
	// share of its visited rows kept, and within its limit. It doubles only
	// past that. The cursor is asked for its rows left only then.
	project := !k.point && cut != nil && cut.on
	at := scanProgress{want: project && cut.full()}
	r.visitScan(s, k, b, m, &at, func(row []Cell, ids []colID) bool {
		if cut != nil && cut.on {
			if at.want {
				project, at.want = false, false
				want := cut.n + 1 + at.left*int(rows+1)/at.scanned
				if s.Limit > 0 {
					want = min(want, cut.n+s.Limit-int(rows))
				}
				cut.grow(max(want, 2*cut.rowCap), cap(cut.cols))
			}
			cells += int64(cut.add(row, ids, b))
			at.want = project && cut.full()
		} else {
			res := b.result(row, ids)
			cells += int64(len(res.Cells))
			out = append(out, res)
		}
		rows++
		return s.Limit <= 0 || rows < int64(s.Limit)
	})
	m.Add(metrics.RowsReturned, rows)
	m.Add(metrics.CellsReturned, cells)
	return out, int(rows)
}

// foldScan folds the rows visitScan visits into b.fold — the
// partial-aggregate sink of the fused op — stopping after s.Limit rows
// when set. It returns the fold's decode error, if any.
func (r *Region) foldScan(s *Scan, k keys, b *binding, m metrics.Meter) error {
	n := 0
	r.visitScan(s, k, b, m, nil, func(row []Cell, ids []colID) bool {
		n++
		return b.fold.add(row, ids, b.slots()) && (s.Limit <= 0 || n < s.Limit)
	})
	return b.fold.err
}

// scanProgress is what visitScan reports to a visit that asks for it
// (want) before its next call: the rows visited by then, that one too, and
// the rows the cursor has left.
type scanProgress struct {
	want          bool
	scanned, left int
}

// visitScan is the region's row visitor: it resolves the rows of s in this
// region — or only the row k.start when k.point is set, ignoring s's row
// bounds — binds b to the dictionary the rows' column ids come from, and
// calls visit with the full resolved cells and ids of each row that holds a
// projected cell and passes s.Filter, in row order, until visit returns
// false, filling at first when it is set and wants it. The cells are valid
// only during the call. It meters rows and cells scanned; what a row turns
// into is the caller's business.
func (r *Region) visitScan(s *Scan, k keys, b *binding, m metrics.Meter, at *scanProgress, visit func(row []Cell, ids []colID) bool) {
	var rows rowCursor
	r.openCursor(&rows, s, k)
	b.bind(rows.dict, rows.ncols)
	// The filter's view of a row, allocated once per scan.
	var fr *Result
	if s.Filter != nil {
		fr = &Result{}
	}
	var rowsScanned, cellsScanned int64
	for row, ids := rows.next(); row != nil; row, ids = rows.next() {
		rowsScanned++
		cellsScanned += int64(len(row))
		if !b.projects(ids) {
			continue
		}
		if fr != nil {
			fr.Row, fr.Cells = row[0].Row, row
			if !s.Filter.Match(fr) {
				continue
			}
		}
		if at != nil && at.want {
			at.scanned, at.left = int(rowsScanned), rows.left()
		}
		if !visit(row, ids) {
			break
		}
	}
	m.Add(metrics.RowsScanned, rowsScanned)
	m.Add(metrics.CellsScanned, cellsScanned)
	m.Inc(metrics.RegionsScanned)
}

// openCursor sets c, a zero cursor, over the rows of s in this region, or
// over the row k.start when k.point is set. A point outside the region
// finds no cells: the region stores none there. The cursor is filled in
// place, not returned, to keep the read path's stack frames small.
func (r *Region) openCursor(c *rowCursor, s *Scan, k keys) {
	if !k.point {
		k.start, k.stop = s.StartRow, s.StopRow
		if len(r.info.StartKey) > 0 && (k.start == nil || bytes.Compare(k.start, r.info.StartKey) < 0) {
			k.start = r.info.StartKey
		}
		if len(r.info.EndKey) > 0 && (k.stop == nil || bytes.Compare(k.stop, r.info.EndKey) > 0) {
			k.stop = r.info.EndKey
		}
	}
	maxV := r.versions(s.MaxVersions)
	if maxV == 1 && s.TimeRange.Unbounded() {
		r.defaultRows(c, k)
		return
	}
	r.mu.RLock()
	cells := r.allCellsLocked(k)
	c.dict, c.ncols = r.cols, r.cols.size()
	r.mu.RUnlock()
	c.clean.ids = make([]colID, 0, len(cells))
	resolve(cells, maxV, s.TimeRange, c.dict, &c.clean)
}

// versions returns the versions per column a read asking for maxVersions
// keeps: at least one, at most the table's.
func (r *Region) versions(maxVersions int) int {
	return min(max(maxVersions, 1), r.desc.maxVersions())
}

// defaultRows sets c over the resolved default read (maxVersions 1,
// unbounded time range) of the rows k covers, building the region's view
// first if it has none.
func (r *Region) defaultRows(c *rowCursor, k keys) {
	r.mu.RLock()
	if r.viewOK {
		r.cursorLocked(c, k)
		r.mu.RUnlock()
		return
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.viewOK {
		var v rowRun
		if len(r.files) == 1 && len(r.mem.cells) == 0 {
			v = r.defaultView(r.files[0].cells, false)
		} else {
			v = r.defaultView(r.allCellsLocked(keys{}), true)
		}
		r.setViewLocked(v, nil)
	}
	r.cursorLocked(c, k)
}

// locked (read or write), with a current view; sets c over the rows k
// covers. The cursor shares only immutable data with the region — the
// view, the store files and their cells — and the dictionary, which
// guards itself, so it is walked after the lock is released. A point read
// of a dirty row also keeps the MemStore's cells and row hashes as the
// lock shows them: the MemStore only appends past them, and a flush or
// reset replaces its arrays rather than rewriting them, so that prefix
// never changes and is read unlocked. A range takes its own sorted copy
// of the MemStore rows it covers.
func (r *Region) cursorLocked(c *rowCursor, k keys) {
	c.dict, c.ncols = r.cols, r.cols.size()
	if k.point {
		if i := sort.Search(len(r.dirty), func(i int) bool { return bytes.Compare(r.dirty[i], k.start) >= 0 }); i < len(r.dirty) && bytes.Equal(r.dirty[i], k.start) {
			c.dirtyRow = k.start
			if c.dirtyRow == nil {
				c.dirtyRow = []byte{} // the empty row key, still dirty
			}
			c.files, c.mem, c.memHash = r.files, r.mem.cells, r.mem.hashes
		} else {
			c.clean = r.view.clip(k)
		}
		return
	}
	c.clean = r.view.clip(k)
	lo := sort.Search(len(r.dirty), func(i int) bool { return bytes.Compare(r.dirty[i], k.start) >= 0 })
	hi := len(r.dirty)
	if k.stop != nil {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return bytes.Compare(r.dirty[lo+i], k.stop) >= 0 })
	}
	if lo < hi {
		c.dirty = append([][]byte(nil), r.dirty[lo:hi]...)
		c.files, c.mem = r.files, r.mem.sorted(k)
	}
}

// rowCursor walks resolved rows in row order. clean is an indexed run of
// resolved rows; dirty lists rows (sorted) whose clean entry is stale and
// which are resolved instead from the store files and mem. A point read of
// a dirty row has dirtyRow set instead, and no clean row; its mem is the
// MemStore's cells in arrival order with their row hashes in memHash. A
// range's mem is sorted, and memHash nil. dict is the dictionary the ids
// of both come from, and ncols its size when the cursor was opened: every
// id the cursor yields is below it.
type rowCursor struct {
	dict     *colDict
	ncols    int
	clean    rowRun
	dirty    [][]byte
	dirtyRow []byte
	files    []*storeFile
	mem      []Cell
	memHash  []uint32

	// A dirty row's cells and ids, reused row to row.
	cells []Cell
	ids   []colID
}

// left reports how many rows the cursor may still return: its clean run's
// and its dirty rows.
func (c *rowCursor) left() int { return max(len(c.clean.rows)-1, 0) + len(c.dirty) }

// next returns the cells of the next row with a visible cell and their
// column ids, or nil when the cursor is exhausted. A clean row is a
// subslice of clean; a dirty row is resolved for that row alone, valid
// until the next call.
func (c *rowCursor) next() ([]Cell, []colID) {
	if row := c.dirtyRow; row != nil {
		c.dirtyRow = nil
		return c.resolveRow(row)
	}
	for len(c.dirty) > 0 {
		row := c.dirty[0]
		if len(c.clean.rows) > 1 {
			cmp := bytes.Compare(c.clean.cells[c.clean.rows[0]].Row, row)
			if cmp < 0 {
				break
			}
			if cmp == 0 {
				c.clean.rows = c.clean.rows[1:]
			}
		}
		c.dirty = c.dirty[1:]
		if cells, ids := c.resolveRow(row); cells != nil {
			return cells, ids
		}
	}
	if len(c.clean.rows) < 2 {
		return nil, nil
	}
	a, b := c.clean.rows[0], c.clean.rows[1]
	c.clean.rows = c.clean.rows[1:]
	return c.clean.cells[a:b], c.clean.ids[a:b]
}

// resolveRow resolves the default read of one dirty row in one pass over
// its cells where they lie, with no merge: each store file's cells of the
// row in file order, then the MemStore's, each column keeping its newest
// cell (newestCell). The columns left on a put are the row, returned
// with their ids, or nil when none is.
func (c *rowCursor) resolveRow(row []byte) ([]Cell, []colID) {
	cols, at := slices.Grow(c.cells[:0], 8), -1
	for _, f := range c.files {
		cols, at = foldNewest(cols, rowCells(f.cells, row), at)
	}
	if c.memHash == nil {
		cols, _ = foldNewest(cols, rowCells(c.mem, row), at)
	} else {
		h := rowHash(row)
		for i, x := range c.memHash {
			if x == h && bytes.Equal(c.mem[i].Row, row) {
				cols, at = newestCell(cols, &c.mem[i], at+1)
			}
		}
	}
	c.cells = cols
	if cols = slices.DeleteFunc(cols, func(c Cell) bool { return c.Type == TypeDelete }); len(cols) == 0 {
		return nil, nil
	}
	ids := slices.Grow(c.ids[:0], len(cols))
	c.dict.mu.RLock()
	for i := range cols {
		ids = append(ids, c.dict.lookup(cols[i].Family, cols[i].Qualifier))
	}
	c.dict.mu.RUnlock()
	c.ids = ids
	return cols, ids
}

// RecoverFromWAL rebuilds MemStore state by replaying the region's log from
// the last flushed sequence; used after a simulated crash drops the
// MemStore.
func (r *Region) RecoverFromWAL() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mem.reset()
	r.dropViewLocked()
	// The live dedup window tracked un-flushed batches that just evaporated
	// with the MemStore; rebuild it from the flush-time snapshot plus the
	// batch stamps on the entries replayed below, so it ends up covering
	// exactly the recovered history.
	r.dedup = r.durableDedup.clone()
	return r.log.Replay(r.flushed, func(e wal.Entry) error {
		// Discard records stamped with an epoch newer than the ownership
		// this region holds — they belong to a fenced-off future the log
		// should never contain (defense in depth; append-time fencing
		// already keeps them out).
		if e.Epoch > r.info.Epoch {
			return nil
		}
		r.applyEntryLocked(&e, 0)
		r.meter.Inc(metrics.WALEntriesReplayed)
		return nil
	})
}

// AdoptEpoch moves the live region to a new ownership epoch in place: the
// WAL is fenced at the new epoch and subsequent appends stamp it — the
// graceful-drain path, where the same object (MemStore included) changes
// servers with nothing to replay.
func (r *Region) AdoptEpoch(epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log.Fence(epoch)
	r.info.Epoch = epoch
}

// Reopen fences the region's WAL at newEpoch and returns a fresh Region
// object holding the same durable state (store files + log) under the new
// ownership epoch — the reassignment path after a server is declared dead.
// The fence is raised while holding the old region's lock, so an in-flight
// zombie write or flush is strictly before or strictly after it: before,
// the entry is in the log and the successor replays it; after, the append
// is rejected un-acknowledged and the flush refuses to truncate. The caller
// replays the successor's WAL (RecoverFromWAL) to rebuild its MemStore.
func (r *Region) Reopen(newEpoch uint64) *Region {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log.Fence(newEpoch)
	info := r.info
	info.Epoch = newEpoch
	nr := &Region{
		info:    info,
		desc:    r.desc,
		cfg:     r.cfg,
		meter:   r.meter,
		files:   append([]*storeFile(nil), r.files...),
		log:     r.log,
		flushed: r.flushed,
		repl:    r.repl,
		cols:    r.cols.clone(),
		// The successor starts from durable state and replays the WAL tail
		// (RecoverFromWAL), which rebuilds the live window from this same
		// snapshot — so only the durable half carries over.
		dedup:        r.durableDedup.clone(),
		durableDedup: r.durableDedup.clone(),
	}
	return nr
}

// DropMemStore simulates a crash that loses buffered writes (for recovery
// tests): the MemStore is cleared without flushing. The live dedup window
// falls back to the flush-time snapshot with it — the lost batches' stamps
// must be forgotten too, or a retry of an UNACKED batch would be wrongly
// deduplicated and the write lost.
func (r *Region) DropMemStore() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mem.reset()
	r.dedup = r.durableDedup.clone()
	r.dropViewLocked()
}

// BulkLoad installs pre-sorted cells directly as a store file, bypassing the
// WAL and MemStore — the HFile bulk-load path. The cells must be sorted in
// store order (CompareCells) and fall inside the region's range. The file is
// durable on installation (store files survive crashes by construction
// here), which is why skipping the WAL is safe.
func (r *Region) BulkLoad(cells []Cell) error {
	for i := range cells {
		if err := r.checkCell(&cells[i]); err != nil {
			return err
		}
		if i > 0 && CompareCells(&cells[i-1], &cells[i]) > 0 {
			return fmt.Errorf("hbase: bulk load cells not in store order at index %d", i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Replica > 0 {
		return fmt.Errorf("%w: replica %d of region %s is read-only", ErrNotServing, r.info.Replica, r.info.ID)
	}
	// No WAL append happens, so check the fence explicitly: a region whose
	// log was fenced at a newer epoch has been reassigned or split away.
	if r.log.Epoch() > r.info.Epoch {
		return fmt.Errorf("%w: region %s epoch %d superseded", ErrFenced, r.info.ID, r.info.Epoch)
	}
	if len(cells) == 0 {
		return nil
	}
	for i := range cells {
		r.cols.record(cells[i].Family, cells[i].Qualifier)
	}
	r.files = append(r.files, newStoreFile(append([]Cell(nil), cells...)))
	r.dropViewLocked()
	r.meter.Inc(metrics.BulkLoads)
	r.meter.Add(metrics.BulkLoadCells, int64(len(cells)))
	if len(r.files) >= r.cfg.CompactThresholdFiles {
		r.compactLocked()
	}
	return nil
}
