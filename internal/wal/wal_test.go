package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

func sample(seq uint64) Entry {
	return Entry{
		Seq: seq, Epoch: 3, Table: "t", Region: "r1", Writer: "w-7", Batch: 19,
		Edits: []Edit{
			{Kind: KindPut, Row: []byte("row-1"), Family: "cf", Qualifier: "q", Timestamp: 42, Value: []byte("value")},
			{Kind: KindDelete, Row: []byte("row-1"), Family: "cf", Qualifier: "p", Timestamp: 41, Value: []byte{}},
			{Kind: KindPut, Row: []byte("row-2"), Family: "cf", Qualifier: "q", Timestamp: 42, Value: []byte("v2")},
		},
	}
}

// reseal recomputes a record's CRC trailer after a test edited its body,
// so the decoder's structural checks, not the checksum, must reject it.
func reseal(rec []byte) {
	body := rec[:len(rec)-trailer]
	binary.BigEndian.PutUint32(rec[len(rec)-trailer:], crc32.ChecksumIEEE(body))
}

// countOffset is where sample's edit count sits in its encoding; the first
// edit's kind byte follows it.
func countOffset(e Entry) int {
	return 8 + 8 + 4 + len(e.Table) + 4 + len(e.Region) + 4 + len(e.Writer) + 8
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := sample(7)
	got, err := DecodeEntry(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, e)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	if err := quick.Check(func(table, region, writer string, batch uint64, rows, vals [][]byte, fams, quals []string, ts []int64, dels []bool) bool {
		e := Entry{Seq: 1, Table: table, Region: region, Writer: writer, Batch: batch}
		n := min(len(rows), len(vals), len(fams), len(quals), len(ts), len(dels))
		for i := 0; i < n; i++ {
			kind := KindPut
			if dels[i] {
				kind = KindDelete
			}
			e.Edits = append(e.Edits, Edit{Kind: kind, Row: rows[i], Family: fams[i], Qualifier: quals[i], Timestamp: ts[i], Value: vals[i]})
		}
		got, err := DecodeEntry(e.Encode())
		if err != nil || got.Table != e.Table || got.Region != e.Region || got.Writer != e.Writer ||
			got.Batch != e.Batch || len(got.Edits) != len(e.Edits) {
			return false
		}
		for i, w := range e.Edits {
			g := got.Edits[i]
			if g.Kind != w.Kind || !bytes.Equal(g.Row, w.Row) || g.Family != w.Family ||
				g.Qualifier != w.Qualifier || g.Timestamp != w.Timestamp || !bytes.Equal(g.Value, w.Value) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	e := sample(1)
	enc := e.Encode()
	for _, b := range [][]byte{nil, enc[:5], enc[:len(enc)-1], append(append([]byte{}, enc...), 0xFF)} {
		if _, err := DecodeEntry(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeEntry(%d bytes): %v, want ErrCorrupt", len(b), err)
		}
	}
	// Structural damage under a valid checksum: only the decoder's own
	// checks can catch these.
	at := countOffset(e)
	if got := binary.BigEndian.Uint32(enc[at:]); got != uint32(len(e.Edits)) {
		t.Fatalf("edit count at offset %d reads %d, want %d", at, got, len(e.Edits))
	}
	cases := []struct {
		name   string
		damage func(rec []byte)
		want   string
	}{
		{"bad kind", func(rec []byte) { rec[at+4] = 99 }, "bad kind 99"},
		{"bad kind in a later edit", func(rec []byte) {
			first := e.Edits[0]
			rec[at+4+editFixed+len(first.Row)+len(first.Family)+len(first.Qualifier)+len(first.Value)] = 0
		}, "edit 1 has bad kind 0"},
		{"edit count beyond the body", func(rec []byte) { binary.BigEndian.PutUint32(rec[at:], 1<<30) }, "edits in"},
		{"edit count one too many", func(rec []byte) { binary.BigEndian.PutUint32(rec[at:], uint32(len(e.Edits)+1)) }, "truncated"},
		{"edit count one too few", func(rec []byte) { binary.BigEndian.PutUint32(rec[at:], uint32(len(e.Edits)-1)) }, "trailing bytes"},
	}
	for _, tc := range cases {
		rec := append([]byte(nil), enc...)
		tc.damage(rec)
		reseal(rec)
		_, err := DecodeEntry(rec)
		if !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
			t.Errorf("%s: %v, want ErrCorrupt mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestAppendAssignsSequence(t *testing.T) {
	l := New(nil)
	if s, err := l.Append(sample(0)); err != nil || s != 1 {
		t.Errorf("first seq = %d, err = %v", s, err)
	}
	if s, err := l.Append(sample(0)); err != nil || s != 2 {
		t.Errorf("second seq = %d, err = %v", s, err)
	}
	if l.NextSeq() != 3 {
		t.Errorf("NextSeq = %d", l.NextSeq())
	}
}

func TestAppendFencedEpochRejected(t *testing.T) {
	l := New(nil)
	e := sample(0)
	e.Epoch = 1
	if _, err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	l.Fence(2)
	if _, err := l.Append(e); !errors.Is(err, ErrFenced) {
		t.Errorf("append at stale epoch: %v, want ErrFenced", err)
	}
	// Equal-or-newer epochs still append.
	e.Epoch = 2
	if _, err := l.Append(e); err != nil {
		t.Errorf("append at fence epoch: %v", err)
	}
	// Fencing never lowers the epoch.
	l.Fence(1)
	if got := l.Epoch(); got != 2 {
		t.Errorf("epoch after stale fence = %d", got)
	}
}

func TestReplayStopsAtCorruptTail(t *testing.T) {
	m := metrics.NewRegistry()
	l := New(m)
	for i := 0; i < 5; i++ {
		l.Append(sample(0))
	}
	l.CorruptRecord(3) // seq 4 is torn; 1..3 must still recover
	var seqs []uint64
	if err := l.Replay(0, func(e Entry) error { seqs = append(seqs, e.Seq); return nil }); err != nil {
		t.Fatalf("truncated-tail replay: %v", err)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) {
		t.Errorf("replayed seqs = %v, want prefix before the corrupt record", seqs)
	}
	if got := m.Get(metrics.WALCorruptEntries); got != 1 {
		t.Errorf("corrupt entries metered = %d", got)
	}
}

func TestReplayFromSeq(t *testing.T) {
	l := New(nil)
	for i := 0; i < 5; i++ {
		l.Append(sample(0))
	}
	var seqs []uint64
	err := l.Replay(3, func(e Entry) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []uint64{3, 4, 5}) {
		t.Errorf("replayed seqs = %v", seqs)
	}
}

func TestReplayStopsOnError(t *testing.T) {
	l := New(nil)
	l.Append(sample(0))
	l.Append(sample(0))
	boom := errors.New("boom")
	n := 0
	err := l.Replay(1, func(Entry) error { n++; return boom })
	if !errors.Is(err, boom) || n != 1 {
		t.Errorf("err=%v n=%d", err, n)
	}
}

func TestTruncate(t *testing.T) {
	l := New(nil)
	for i := 0; i < 5; i++ {
		l.Append(sample(0))
	}
	l.Truncate(4) // keep seq 4,5
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	var seqs []uint64
	_ = l.Replay(0, func(e Entry) error { seqs = append(seqs, e.Seq); return nil })
	if !reflect.DeepEqual(seqs, []uint64{4, 5}) {
		t.Errorf("after truncate: %v", seqs)
	}
	l.Truncate(2) // no-op below first
	if l.Len() != 2 {
		t.Errorf("Len after no-op truncate = %d", l.Len())
	}
	l.Truncate(100) // beyond end: drops all
	if l.Len() != 0 {
		t.Errorf("Len after full truncate = %d", l.Len())
	}
}

// A truncated record must become garbage: the log may not keep it
// reachable through the backing array of its record slice.
func TestTruncateReleasesRecords(t *testing.T) {
	l := New(nil)
	for i := 0; i < 4; i++ {
		l.Append(sample(0))
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(&l.records[0][0], func(*byte) { close(collected) })
	l.Truncate(3) // drops seq 1 and 2, keeps 3 and 4
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if l.Len() != 2 {
				t.Errorf("Len = %d, want 2 survivors", l.Len())
			}
			return
		case <-deadline:
			t.Fatal("a truncated record is still reachable from the log")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// One record per batch: a 32-edit record costs one sequence number, one
// append and one observer call.
func TestAppendIsOneRecordPerBatch(t *testing.T) {
	m := metrics.NewRegistry()
	l := New(m)
	var seen []Entry
	l.SetObserver(func(e Entry) { seen = append(seen, e) })
	e := batchOf(32)
	seq, err := l.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || l.NextSeq() != 2 || l.Len() != 1 || m.Get(metrics.WALAppends) != 1 {
		t.Fatalf("seq %d, next %d, len %d, appends %d; want one record", seq, l.NextSeq(), l.Len(), m.Get(metrics.WALAppends))
	}
	if len(seen) != 1 || len(seen[0].Edits) != 32 || seen[0].Seq != 1 {
		t.Fatalf("observer saw %d records, want one of 32 edits at seq 1", len(seen))
	}
	var replayed []Entry
	_ = l.Replay(0, func(e Entry) error { replayed = append(replayed, e); return nil })
	if len(replayed) != 1 || len(replayed[0].Edits) != 32 {
		t.Fatalf("replayed %d records, want one of 32 edits", len(replayed))
	}
	e.Seq = 1
	if !reflect.DeepEqual(replayed[0], e) {
		t.Errorf("replayed record differs from the appended one")
	}
}

// batchOf builds a stamped record of n edits: n/4 rows of four cells.
func batchOf(n int) Entry {
	e := Entry{Epoch: 1, Table: "store_sales", Region: "store_sales,r3", Writer: "w-1", Batch: 7}
	for i := 0; i < n; i++ {
		e.Edits = append(e.Edits, Edit{
			Kind: KindPut, Row: []byte(fmt.Sprintf("row-%05d", i/4)), Family: "cf",
			Qualifier: fmt.Sprintf("col%d", i%4), Timestamp: 1, Value: []byte("0123456789"),
		})
	}
	return e
}

// BenchmarkWALAppend appends one 32-edit record (an 8-row, 4-column batch)
// per iteration, truncating now and then as a flush would.
func BenchmarkWALAppend(b *testing.B) {
	l := New(metrics.NewRegistry())
	e := batchOf(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(e); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			l.Truncate(l.NextSeq())
		}
	}
}

func TestMeterCountsAppends(t *testing.T) {
	m := metrics.NewRegistry()
	l := New(m)
	l.Append(sample(0))
	l.Append(sample(0))
	if got := m.Get(metrics.WALAppends); got != 2 {
		t.Errorf("wal appends = %d", got)
	}
}
