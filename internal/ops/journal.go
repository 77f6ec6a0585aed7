// Package ops is the cluster operations plane: a structured journal of
// cluster lifecycle events (splits, failovers, promotions, fencing,
// backpressure), a statement-fingerprint statistics table, and an HTTP
// endpoint that makes both — plus the metrics registry and a cluster
// topology snapshot — scrapeable from outside the process. PR 4 gave each
// query deep observability; this package gives the *cluster* the same
// treatment, modeled on HiveServer2's operational surface (web UI, query
// history, workload metrics) that carried Hive from reproduction to
// production system.
package ops

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventType names one kind of cluster lifecycle event.
type EventType string

// The event vocabulary. Every type is emitted from exactly the code path
// that performs the transition, not inferred after the fact.
const (
	// EventServerFenced: the master declared a server dead (or the server
	// self-fenced on an expired lease) and its regions stopped being served
	// there. Region-level recovery events carry this event's seq as their
	// Cause.
	EventServerFenced EventType = "ServerFenced"
	// EventRegionReassigned: a region moved to a new server — WAL-replay
	// failover, drain, or balance (Detail says which).
	EventRegionReassigned EventType = "RegionReassigned"
	// EventReplicaPromoted: a secondary copy took over a region whose
	// primary died, with no WAL replay.
	EventReplicaPromoted EventType = "ReplicaPromoted"
	// EventServerDrained: a server was gracefully removed; per-region moves
	// follow as RegionReassigned events caused by this one.
	EventServerDrained EventType = "ServerDrained"
	// EventRegionSplit: a region split into two daughters (Detail names
	// them; Cause links to the janitor pass for automatic splits).
	EventRegionSplit EventType = "RegionSplit"
	// EventSplitRolledForward / EventSplitRolledBack: recovery settled an
	// interrupted split transaction.
	EventSplitRolledForward EventType = "SplitRolledForward"
	EventSplitRolledBack    EventType = "SplitRolledBack"
	// EventJanitorAction: one master housekeeping pass ran; splits and
	// balance moves it performed carry its seq as Cause.
	EventJanitorAction EventType = "JanitorAction"
	// EventMemstoreBackpressure: a server rejected a write above its
	// memstore high watermark.
	EventMemstoreBackpressure EventType = "MemstoreBackpressure"
	// EventMasterElected: a master won the leader election (Epoch is its
	// master fencing epoch). Recovery actions a takeover performs — split
	// journals settled, servers re-declared dead — carry this event's seq
	// as their Cause.
	EventMasterElected EventType = "MasterElected"
	// EventMasterFailover: a standby finished taking over from a lost
	// leader; Cause links back to the MasterElected event that started the
	// takeover.
	EventMasterFailover EventType = "MasterFailover"
)

// Event is one journal entry. Seq is assigned by the journal and strictly
// increases; Cause is the Seq of the event that triggered this one (0 when
// the event is a root cause), which is what lets a test or operator walk a
// failover causally — the ReplicaPromoted entry points at the ServerFenced
// entry that made promotion necessary.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Type   EventType `json:"type"`
	Region string    `json:"region,omitempty"`
	Table  string    `json:"table,omitempty"`
	Server string    `json:"server,omitempty"`
	Epoch  uint64    `json:"epoch,omitempty"`
	Cause  uint64    `json:"cause,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// Journal is a bounded, seq-numbered in-memory ring of cluster events with
// an optional JSONL sink. Appends are cheap (one mutex, no allocation
// beyond the ring slot) so lifecycle code paths emit unconditionally; a nil
// *Journal swallows appends, so wiring is optional everywhere.
type Journal struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest retained event
	n       int // retained events
	next    uint64
	dropped uint64
	sink    io.Writer
}

// DefaultJournalCapacity bounds the ring when the caller does not.
const DefaultJournalCapacity = 1024

// NewJournal creates a journal retaining at most capacity events
// (DefaultJournalCapacity when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity)}
}

// SetSink installs a writer that receives every appended event as one JSON
// line — the durable tail for deployments that want history beyond the
// ring. nil removes it. Writes happen under the journal lock, in append
// order; sink errors are ignored (the journal is observability, not the
// data path).
func (j *Journal) SetSink(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = w
	j.mu.Unlock()
}

// Append assigns the event a seq (and a timestamp when it has none),
// retains it in the ring, and returns the seq for use as a Cause link.
// Appending to a nil journal returns 0, the "no cause" sentinel.
func (j *Journal) Append(e Event) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.next++
	e.Seq = j.next
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if j.n == len(j.buf) {
		j.buf[j.head] = e
		j.head = (j.head + 1) % len(j.buf)
		j.dropped++
	} else {
		j.buf[(j.head+j.n)%len(j.buf)] = e
		j.n++
	}
	if j.sink != nil {
		if data, err := json.Marshal(e); err == nil {
			j.sink.Write(append(data, '\n'))
		}
	}
	return e.Seq
}

// Filter selects journal events. The zero value selects everything
// retained.
type Filter struct {
	// Types keeps only the listed event types (empty = all).
	Types []EventType
	// Region / Server keep only events touching that region / server.
	Region string
	Server string
	// SinceSeq keeps only events with Seq > SinceSeq.
	SinceSeq uint64
	// Last keeps only the newest N matches (0 = all).
	Last int
}

func (f Filter) match(e Event) bool {
	if len(f.Types) > 0 {
		ok := false
		for _, t := range f.Types {
			if e.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Region != "" && e.Region != f.Region {
		return false
	}
	if f.Server != "" && e.Server != f.Server {
		return false
	}
	return e.Seq > f.SinceSeq
}

// Events returns the retained events matching f, oldest first.
func (j *Journal) Events(f Filter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		e := j.buf[(j.head+i)%len(j.buf)]
		if f.match(e) {
			out = append(out, e)
		}
	}
	if f.Last > 0 && len(out) > f.Last {
		out = out[len(out)-f.Last:]
	}
	return out
}

// Find returns the retained events of one type, oldest first — the
// harness-test shorthand for asserting on the stream ("exactly one
// ReplicaPromoted").
func (j *Journal) Find(t EventType) []Event {
	return j.Events(Filter{Types: []EventType{t}})
}

// Get returns the retained event with the given seq, if still in the ring.
func (j *Journal) Get(seq uint64) (Event, bool) {
	if j == nil {
		return Event{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := 0; i < j.n; i++ {
		e := j.buf[(j.head+i)%len(j.buf)]
		if e.Seq == seq {
			return e, true
		}
	}
	return Event{}, false
}

// Len reports how many events the ring currently retains.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// LastSeq reports the seq of the newest event ever appended (0 = none).
func (j *Journal) LastSeq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped reports how many events the bounded ring has evicted.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}
