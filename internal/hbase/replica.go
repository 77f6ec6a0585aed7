package hbase

import (
	"strconv"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/wal"
)

// regionKey is the key a server's region map indexes a copy under: the bare
// region ID for the primary (replica 0), an "#r<n>" suffixed form for
// secondary copies, so one server can host a primary and an unrelated
// region's replica without collisions — and so every pre-replica code path
// that looks up by bare ID keeps resolving exactly the primary.
func regionKey(id string, replica int) string {
	if replica == 0 {
		return id
	}
	return id + "#r" + strconv.Itoa(replica)
}

// shippedEntry is one WAL record (a region batch) in flight to a secondary
// copy, stamped with its enqueue time so the apply loop can report
// replication lag.
type shippedEntry struct {
	e  wal.Entry
	at time.Time
}

// replicator fans a primary's acknowledged WAL entries out to its secondary
// copies. It is installed as the WAL's append observer, and because a
// reassigned or promoted primary shares the same log object (Reopen,
// Promote), the subscription survives every ownership change without
// re-wiring. Shipping is modeled as the asynchronous push HBase's
// RegionReplicaReplicationEndpoint performs: entries are delivered in
// sequence order (appends serialize on the primary's region lock) and each
// copy applies them independently, possibly behind the primary — which is
// exactly the staleness timeline reads tolerate.
type replicator struct {
	mu       sync.Mutex
	replicas []*Region
}

func (rp *replicator) ship(e wal.Entry) {
	rp.mu.Lock()
	reps := append([]*Region(nil), rp.replicas...)
	rp.mu.Unlock()
	for _, rep := range reps {
		rep.enqueueShipped(e)
	}
}

func (rp *replicator) attach(rep *Region) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	rp.replicas = append(rp.replicas, rep)
}

func (rp *replicator) detach(rep *Region) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for i, r := range rp.replicas {
		if r == rep {
			rp.replicas = append(rp.replicas[:i], rp.replicas[i+1:]...)
			return
		}
	}
}

// NewReplica creates, bootstraps, and attaches secondary copy #id of r, all
// under one hold of the primary's lock so the handoff is exact: the copy
// receives a snapshot of every cell currently visible, its applied
// high-water mark is set to the last sequence the log has assigned, and it
// is subscribed to the primary's replicator — no entry between snapshot and
// subscription is lost or double-applied (later ships below the mark are
// skipped).
func (r *Region) NewReplica(id int) *Region {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.repl == nil {
		r.repl = &replicator{}
		r.log.SetObserver(r.repl.ship)
	}
	info := r.info
	info.Replica = id
	info.ReplicaHosts = nil
	info.Host = ""
	rep := &Region{
		info:       info,
		desc:       r.desc,
		cfg:        r.cfg,
		meter:      r.meter,
		log:        r.log,
		repl:       r.repl,
		cols:       r.cols.clone(),
		appliedSeq: r.log.NextSeq() - 1,
		caughtUpAt: time.Now(),
	}
	if cells := r.allCellsLocked(keys{}); len(cells) > 0 {
		rep.files = []*storeFile{newStoreFile(cells)}
	}
	r.repl.attach(rep)
	return rep
}

// IsReplica reports whether this copy is a secondary.
func (r *Region) IsReplica() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.info.Replica > 0
}

// AppliedSeq reports the highest WAL sequence (one record per batch) this
// copy has applied — the freshness signal the master uses to pick a
// promotion candidate.
func (r *Region) AppliedSeq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.appliedSeq
}

// StalenessBound reports how far behind the primary this secondary copy may
// be: the wall-clock time since it last drained its shipped queue to
// parity. Every timeline read served by a replica carries this bound, so a
// stale result is never silently stale.
func (r *Region) StalenessBound() time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.info.Replica == 0 || r.caughtUpAt.IsZero() {
		return 0
	}
	d := time.Since(r.caughtUpAt)
	if d < 0 {
		d = 0
	}
	return d
}

// enqueueShipped receives one acked WAL record from the primary's replicator
// and, unless the apply loop is held, applies it immediately. Records at or
// below the applied high-water mark (already covered by the bootstrap
// snapshot) are dropped.
func (r *Region) enqueueShipped(e wal.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// A promoted copy is no longer a secondary: its own appends already
	// land in the MemStore, so a ship that raced with detachment must drop.
	if r.info.Replica == 0 || e.Seq <= r.appliedSeq {
		return
	}
	r.pending = append(r.pending, shippedEntry{e: e, at: time.Now()})
	if !r.applyHold {
		r.applyPendingLocked(len(r.pending))
	}
}

// locked; applies up to n pending records in sequence order, each a whole
// batch, returning how many were applied. Meters per-record replication
// lag and refreshes the caught-up timestamp when the queue drains.
func (r *Region) applyPendingLocked(n int) int {
	applied := 0
	for applied < n && len(r.pending) > 0 {
		se := r.pending[0]
		r.pending = r.pending[1:]
		if se.e.Seq <= r.appliedSeq {
			continue
		}
		// The batch stamps the primary applied come along: if this copy is
		// later promoted, its dedup window must cover the acked history it
		// serves.
		r.applyEntryLocked(&se.e, 0)
		r.meter.Observe(metrics.HistReplicaLag, time.Since(se.at))
		applied++
	}
	if len(r.pending) == 0 {
		r.caughtUpAt = time.Now()
	}
	return applied
}

// HoldApply freezes (or resumes) the copy's apply loop — the deterministic
// replication-lag injector chaos tests use. While held, shipped entries
// queue without applying and the staleness bound grows; releasing the hold
// drains the queue.
func (r *Region) HoldApply(hold bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applyHold = hold
	if !hold {
		r.applyPendingLocked(len(r.pending))
	}
}

// ApplyPending applies up to n held records, each a whole batch (a partial
// drain, for tests that need a replica frozen mid-history), and reports
// how many applied.
func (r *Region) ApplyPending(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applyPendingLocked(n)
}

// Promote turns this secondary copy into the region's primary at newEpoch:
// every shipped entry still pending applies, the shared WAL is fenced so a
// recovering zombie primary's writes die exactly as on a crash reassign,
// and any log tail the copy never received is replayed directly. Because
// only acknowledged writes ever reach the log, the promoted copy's history
// is precisely what the old primary acked — nothing more, nothing torn.
// Unlike the replica-free Reopen path there is no MemStore to rebuild from
// scratch: the copy was already serving, so promotion is O(pending tail),
// which is the whole availability win.
func (r *Region) Promote(newEpoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applyHold = false
	r.applyPendingLocked(len(r.pending))
	r.log.Fence(newEpoch)
	_ = r.log.Replay(r.appliedSeq+1, func(e wal.Entry) error {
		if e.Epoch > newEpoch {
			return nil
		}
		r.applyEntryLocked(&e, 0)
		r.meter.Inc(metrics.WALEntriesReplayed)
		return nil
	})
	r.info.Epoch = newEpoch
	r.info.Replica = 0
	r.info.ReplicaHosts = nil
	r.caughtUpAt = time.Time{}
	r.pending = nil
	r.detachFromPrimary()
}

// detachFromPrimary unsubscribes this copy from its primary's replicator, so
// shipping to it stops and a retired copy can be collected.
func (r *Region) detachFromPrimary() {
	if r.repl != nil {
		r.repl.detach(r)
	}
}
