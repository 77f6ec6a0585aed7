package hbase

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
)

// splitJournal is the durable record of one in-flight split transaction,
// JSON-encoded at /shc/splits/<parent-id>. Epoch is the daughters' ownership
// epoch — the parent's WAL is fenced at it, so rolling back means adopting
// it on the parent (un-fencing) and rolling forward means the daughters
// already hold it.
type splitJournal struct {
	Table    string `json:"table"`
	Parent   string `json:"parent"`
	LowID    string `json:"low"`
	HighID   string `json:"high"`
	SplitKey []byte `json:"key"`
	Epoch    uint64 `json:"epoch"`
}

// SplitRegion splits one region at its computed midpoint, keeping both
// daughters on the same host (HBase's default before balancing). The split
// runs as a fenced transaction: (1) the intent is journaled in the
// coordination service, (2) the daughters are cut and the parent's WAL is
// fenced at a bumped epoch — an in-flight write against the parent from here
// on fails un-acknowledged instead of landing in a doomed region, (3) the
// daughters are hosted and swapped into meta atomically under the master
// lock, (4) the journal is deleted. A master or hosting-server death between
// any of those steps leaves the journal behind, and recoverSplitsLocked
// settles it — forward when both daughters made it, back otherwise.
func (m *Master) SplitRegion(table, regionID string) error {
	return m.splitRegionCaused(table, regionID, 0, "manual")
}

// splitRegionCaused is SplitRegion with journal provenance: cause links the
// split's events to the triggering event (a janitor pass), reason says why
// it ran ("manual", "overgrown", "hot").
func (m *Master) splitRegionCaused(table, regionID string, cause uint64, reason string) error {
	// Splits are the highest-stakes coordination write — a zombie master
	// journaling a split against regions a successor owns would tear the
	// keyspace — so each one re-verifies leadership.
	if err := m.fenceCheck(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.splitRegionLocked(table, regionID, cause, reason)
}

// locked
func (m *Master) splitRegionLocked(table, regionID string, cause uint64, reason string) error {
	ts, ok := m.tables[table]
	if !ok {
		return fmt.Errorf("%w: %q", ErrTableNotFound, table)
	}
	r, ok := ts.regions[regionID]
	if !ok {
		return fmt.Errorf("hbase: region %q not in table %q", regionID, table)
	}
	point := r.SplitPoint()
	if point == nil {
		return fmt.Errorf("hbase: region %q has no viable split point", regionID)
	}
	host := m.serverLocked(r.Info().Host)
	if host == nil {
		return fmt.Errorf("hbase: host %q of region %q not found", r.Info().Host, regionID)
	}
	m.nextID++
	lowID := fmt.Sprintf("%s-%04d", table, m.nextID)
	m.nextID++
	highID := fmt.Sprintf("%s-%04d", table, m.nextID)
	// Remember where the parent's secondary copies live before anything
	// changes: the daughters inherit that placement.
	placement := make([]string, 0, len(ts.replicas[regionID]))
	for _, rep := range ts.replicas[regionID] {
		placement = append(placement, rep.Info().Host)
	}

	// Stage 1: journal the intent. The epoch is bumped and persisted first
	// (nextEpochLocked), so even a crash between the bump and the journal
	// only costs the parent one fence level on its next assignment.
	next := m.nextEpochLocked(r.Info())
	j := &splitJournal{Table: table, Parent: regionID, LowID: lowID, HighID: highID, SplitKey: point, Epoch: next}
	data, err := json.Marshal(j)
	if err != nil {
		return err
	}
	if err := m.zkPut(zkSplits+"/"+regionID, data); err != nil {
		return err
	}
	if err := m.stageLocked("journaled"); err != nil {
		return err
	}

	// Stage 2: cut the daughters, fencing the parent's WAL at the new epoch.
	low, high, err := r.SplitInto(lowID, highID, point, next)
	if err != nil {
		// The parent is now fenced but the journal records everything needed
		// to roll back; do it inline.
		m.rollBackSplitLocked(ts, j, cause)
		return err
	}
	if err := m.stageLocked("split"); err != nil {
		return err
	}
	_ = m.persistEpoch(lowID, next)
	_ = m.persistEpoch(highID, next)

	// Stage 3: host the daughters, then swap meta. Handlers serialize on the
	// master lock, so readers never observe the parent and daughters
	// overlapping.
	host.AddRegion(low)
	host.AddRegion(high)
	if err := m.stageLocked("daughters-added"); err != nil {
		return err
	}
	// The commit: the parent's secondary copies are retired with it — their
	// ranges no longer exist — and each daughter bootstraps a fresh set
	// below, on the hosts the parent's copies occupied.
	m.retireParentLocked(ts, regionID)
	ts.regions[lowID] = low
	ts.regions[highID] = high
	if err := m.stageLocked("meta-updated"); err != nil {
		return err
	}
	m.ensureReplicasLocked(ts, low, placement)
	m.ensureReplicasLocked(ts, high, placement)

	// Stage 4: the transaction is complete; retire the journal.
	_ = m.zsess().Delete(zkSplits + "/" + regionID)
	m.jrn().Append(ops.Event{
		Type: ops.EventRegionSplit, Region: regionID, Table: table,
		Server: host.Host(), Epoch: next, Cause: cause,
		Detail: fmt.Sprintf("%s: daughters %s,%s", reason, lowID, highID),
	})
	return nil
}

// recoverSplitsLocked settles every journaled split transaction against the
// current hosted state: when both daughters are in meta the split rolls
// forward (the parent, if it survived anywhere, is removed); otherwise it
// rolls back (any orphan daughter is removed and the parent is un-fenced by
// adopting the journal epoch). Run by a recovering master after rebuilding
// meta, and by every janitor pass.
func (m *Master) recoverSplitsLocked(cause uint64) {
	parents, err := m.zsess().Children(zkSplits)
	if err != nil || len(parents) == 0 {
		return
	}
	sort.Strings(parents) // deterministic recovery order
	for _, parent := range parents {
		data, err := m.zsess().Get(zkSplits + "/" + parent)
		if err != nil {
			continue
		}
		var j splitJournal
		if err := json.Unmarshal(data, &j); err != nil {
			// An unreadable journal is unrecoverable dead weight; drop it.
			_ = m.zsess().Delete(zkSplits + "/" + parent)
			continue
		}
		ts := m.tables[j.Table]
		if ts == nil {
			_ = m.zsess().Delete(zkSplits + "/" + parent)
			continue
		}
		_, lowOK := ts.regions[j.LowID]
		_, highOK := ts.regions[j.HighID]
		if lowOK && highOK {
			m.rollForwardSplitLocked(ts, &j, cause)
		} else {
			m.rollBackSplitLocked(ts, &j, cause)
		}
	}
}

// retireParentLocked is the one commit step of a split, live or rolled
// forward: the parent and its secondary copies leave every server, meta and
// the coordination service's epoch tree.
func (m *Master) retireParentLocked(ts *tableState, id string) {
	if parent, ok := ts.regions[id]; ok {
		m.unhostLocked(parent)
		delete(ts.regions, id)
	}
	m.retireCopiesLocked(ts, id)
	m.forgetEpochLocked(id)
}

// rollForwardSplitLocked completes a split whose daughters both survived:
// the parent is retired and the daughters' replica sets topped up.
func (m *Master) rollForwardSplitLocked(ts *tableState, j *splitJournal, cause uint64) {
	m.retireParentLocked(ts, j.Parent)
	m.ensureReplicasLocked(ts, ts.regions[j.LowID], nil)
	m.ensureReplicasLocked(ts, ts.regions[j.HighID], nil)
	_ = m.zsess().Delete(zkSplits + "/" + j.Parent)
	m.meter.Inc(metrics.SplitsRolledForward)
	m.jrn().Append(ops.Event{
		Type: ops.EventSplitRolledForward, Region: j.Parent, Table: j.Table,
		Epoch: j.Epoch, Cause: cause, Detail: "daughters " + j.LowID + "," + j.HighID,
	})
}

// rollBackSplitLocked abandons a split that did not complete: any orphan
// daughter is removed from meta and its server, the daughters' epoch nodes
// are retired, and the parent — whose WAL the split fenced at j.Epoch — is
// un-fenced by adopting that epoch, so it serves writes again with no
// acknowledged history lost (the fence rejected, never dropped).
func (m *Master) rollBackSplitLocked(ts *tableState, j *splitJournal, cause uint64) {
	for _, id := range []string{j.LowID, j.HighID} {
		if d, ok := ts.regions[id]; ok {
			m.unhostLocked(d)
			delete(ts.regions, id)
		} else if parent, ok := ts.regions[j.Parent]; ok {
			// The daughter may be hosted but not in meta (abort between
			// hosting and the meta swap): evict it from the parent's host.
			if srv := m.serverLocked(parent.Info().Host); srv != nil {
				srv.RemoveRegion(id)
			}
		}
		m.retireCopiesLocked(ts, id)
		m.forgetEpochLocked(id)
	}
	if parent, ok := ts.regions[j.Parent]; ok {
		parent.AdoptEpoch(j.Epoch)
		_ = m.persistEpoch(j.Parent, j.Epoch)
	}
	_ = m.zsess().Delete(zkSplits + "/" + j.Parent)
	m.meter.Inc(metrics.SplitsRolledBack)
	m.jrn().Append(ops.Event{
		Type: ops.EventSplitRolledBack, Region: j.Parent, Table: j.Table,
		Epoch: j.Epoch, Cause: cause, Detail: "daughters " + j.LowID + "," + j.HighID,
	})
}
