// Package wal implements the write-ahead log each region uses for fault
// tolerance (paper §III-B): every batch of mutations is appended to the log,
// as one record, before it is applied to the MemStore, and a crashed region
// is rebuilt by replaying the log from the last flushed sequence number.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"github.com/shc-go/shc/internal/metrics"
)

// Kind discriminates the edits of a record.
type Kind uint8

// Edit kinds.
const (
	KindPut Kind = iota + 1
	KindDelete
)

// Edit is one cell mutation inside a record.
type Edit struct {
	Kind      Kind
	Row       []byte
	Family    string
	Qualifier string
	Timestamp int64
	Value     []byte
}

// Entry is one logged record: every edit one region accepted from one
// client batch, as HBase logs one WALEdit per row batch. A record is the
// unit of the log: it takes one sequence number, one encode and one CRC,
// and replay, fencing, replication and truncation all keep or drop it
// whole, so a batch is never half-recovered. Epoch records the
// region-ownership epoch the batch was accepted under; replay after a
// reassignment discards records stamped with a fenced (superseded) epoch
// so a zombie owner's doomed writes never resurrect. Writer/Batch carry
// the client batch stamp of a sequence-stamped multi-put ("" / 0 for
// unstamped writes): replay rebuilds the region's dedup window from them,
// so an ack-lost retry stays exactly-once even across a crash.
type Entry struct {
	Seq    uint64
	Epoch  uint64
	Table  string
	Region string
	Writer string
	Batch  uint64
	Edits  []Edit
}

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("wal: corrupt entry")

// ErrFenced reports an append rejected because the log was fenced at a
// higher epoch than the entry carries — the moment a zombie region owner
// learns its lease is gone, modeled on HDFS lease recovery: the write is
// refused before it is acknowledged, so nothing durable is lost.
var ErrFenced = errors.New("wal: log fenced at a newer epoch")

// Fixed sizes of the encoding: the header's integers (Seq, Epoch, Batch,
// the edit count and three string lengths), an edit's (kind, four lengths,
// timestamp), and the CRC trailer.
const (
	headerFixed = 8 + 8 + 8 + 4 + 3*4
	editFixed   = 1 + 4*4 + 8
	trailer     = 4
)

// Encode serializes the record into one buffer: the header (Seq, Epoch,
// Table, Region, Writer, Batch, edit count), each edit (Kind, Row, Family,
// Qualifier, Timestamp, Value), and a CRC32 (IEEE) trailer over every
// preceding byte. Integers are big-endian; byte strings are prefixed with
// their uint32 length.
func (e *Entry) Encode() []byte {
	n := headerFixed + len(e.Table) + len(e.Region) + len(e.Writer) + trailer
	for i := range e.Edits {
		ed := &e.Edits[i]
		n += editFixed + len(ed.Row) + len(ed.Family) + len(ed.Qualifier) + len(ed.Value)
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint64(buf, e.Seq)
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = appendString(buf, e.Table)
	buf = appendString(buf, e.Region)
	buf = appendString(buf, e.Writer)
	buf = binary.BigEndian.AppendUint64(buf, e.Batch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Edits)))
	for i := range e.Edits {
		ed := &e.Edits[i]
		buf = append(buf, byte(ed.Kind))
		buf = appendBytes(buf, ed.Row)
		buf = appendString(buf, ed.Family)
		buf = appendString(buf, ed.Qualifier)
		buf = binary.BigEndian.AppendUint64(buf, uint64(ed.Timestamp))
		buf = appendBytes(buf, ed.Value)
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// DecodeEntry parses bytes produced by Encode, verifying the CRC32 trailer
// before trusting any field. Rows and values alias b.
func DecodeEntry(b []byte) (Entry, error) {
	var e Entry
	if len(b) < headerFixed+trailer {
		return e, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	body, sum := b[:len(b)-trailer], binary.BigEndian.Uint32(b[len(b)-trailer:])
	if crc32.ChecksumIEEE(body) != sum {
		return e, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := decoder{b: body}
	e.Seq = d.u64()
	e.Epoch = d.u64()
	e.Table = string(d.bytes())
	e.Region = string(d.bytes())
	e.Writer = string(d.bytes())
	e.Batch = d.u64()
	count := d.u32()
	// Every edit takes at least editFixed bytes, so a count the body cannot
	// hold is corrupt before anything is allocated for it.
	if d.err == nil && uint64(count) > uint64(len(d.b)/editFixed) {
		return e, fmt.Errorf("%w: %d edits in %d bytes", ErrCorrupt, count, len(d.b))
	}
	if d.err == nil && count > 0 {
		e.Edits = make([]Edit, count)
	}
	for i := range e.Edits {
		ed := &e.Edits[i]
		ed.Kind = Kind(d.u8())
		if d.err == nil && ed.Kind != KindPut && ed.Kind != KindDelete {
			return e, fmt.Errorf("%w: edit %d has bad kind %d", ErrCorrupt, i, ed.Kind)
		}
		ed.Row = d.bytes()
		ed.Family = string(d.bytes())
		ed.Qualifier = string(d.bytes())
		ed.Timestamp = int64(d.u64())
		ed.Value = d.bytes()
	}
	if d.err != nil {
		return e, d.err
	}
	if len(d.b) != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b))
	}
	return e, nil
}

// decoder reads the fields of a record body in order. The first short read
// sets err; later reads return zero values.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("%w: truncated record", ErrCorrupt)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.BigEndian.Uint32(v)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.BigEndian.Uint64(v)
	}
	return 0
}

func (d *decoder) bytes() []byte {
	return d.take(uint64(d.u32()))
}

// Log is an append-only sequence of records. It retains encoded records in
// memory (standing in for an HDFS file) and supports replay from a sequence
// number and truncation below one.
type Log struct {
	mu      sync.Mutex
	records [][]byte
	first   uint64 // seq of records[0]
	nextSeq uint64
	epoch   uint64 // appends below this ownership epoch are rejected
	meter   *metrics.Registry
	obs     func(Entry)
}

// New returns an empty log. meter may be nil.
func New(meter *metrics.Registry) *Log {
	return &Log{nextSeq: 1, first: 1, meter: meter}
}

// Append assigns the next sequence number to the record e, encodes and
// stores it, and returns the assigned sequence number. A record stamped with
// an epoch below the log's fence epoch is rejected whole with ErrFenced — the
// append-time fencing that keeps a zombie owner's writes out of the durable
// log after its region has been reassigned.
func (l *Log) Append(e Entry) (uint64, error) {
	l.mu.Lock()
	if e.Epoch < l.epoch {
		l.meter.Inc(metrics.WALFencedAppends)
		l.mu.Unlock()
		return 0, fmt.Errorf("%w: append at epoch %d, fenced at %d", ErrFenced, e.Epoch, l.epoch)
	}
	e.Seq = l.nextSeq
	l.nextSeq++
	l.records = append(l.records, e.Encode())
	l.meter.Inc(metrics.WALAppends)
	obs := l.obs
	l.mu.Unlock()
	if obs != nil {
		obs(e)
	}
	return e.Seq, nil
}

// SetObserver registers fn to be invoked with every successfully appended
// record (sequence number assigned), after the log's own lock is released —
// the seam region replication hangs off of. Only acknowledged writes reach
// the observer: a fenced append fails before it, so replicas can never
// apply a mutation the primary did not durably log. Appends to one region's
// log are serialized by the region lock, so observer calls arrive in
// sequence order.
func (l *Log) SetObserver(fn func(Entry)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.obs = fn
}

// Fence raises the log's ownership epoch: subsequent appends stamped with a
// lower epoch fail with ErrFenced. Fencing never lowers the epoch, so a
// stale fencer cannot re-admit a zombie.
func (l *Log) Fence(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch > l.epoch {
		l.epoch = epoch
	}
}

// Epoch reports the current fence epoch (0 = never fenced).
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Replay invokes fn for every retained record with Seq >= fromSeq, in order.
// A corrupt record ends the replay cleanly — everything before it is
// recovered, the unreadable tail is abandoned, exactly how a recovering
// region treats a log whose final block was torn mid-write. fn errors still
// propagate: they mean the recovered data could not be applied, not that the
// log ran out.
func (l *Log) Replay(fromSeq uint64, fn func(Entry) error) error {
	l.mu.Lock()
	records := l.records
	first := l.first
	l.mu.Unlock()
	for i, rec := range records {
		seq := first + uint64(i)
		if seq < fromSeq {
			continue
		}
		e, err := DecodeEntry(rec)
		if err != nil {
			l.meter.Inc(metrics.WALCorruptEntries)
			return nil
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// CorruptRecord flips bits in the i-th retained record (for corruption
// tests); out-of-range indexes are ignored.
func (l *Log) CorruptRecord(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.records) {
		return
	}
	rec := append([]byte(nil), l.records[i]...)
	rec[len(rec)/2] ^= 0xFF
	l.records[i] = rec
}

// Truncate discards records with Seq < uptoSeq; the region calls this after
// a MemStore flush makes them durable in a store file. The survivors move to
// a fresh slice, so the log holds no reference to a dropped record and the
// collector can reclaim it (a Replay still iterating its snapshot of the
// old slice is not disturbed).
func (l *Log) Truncate(uptoSeq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if uptoSeq <= l.first {
		return
	}
	drop := uptoSeq - l.first
	if drop > uint64(len(l.records)) {
		drop = uint64(len(l.records))
	}
	l.records = append([][]byte(nil), l.records[drop:]...)
	l.first += drop
}

// Len reports the number of retained records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// NextSeq returns the sequence number the next Append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}
