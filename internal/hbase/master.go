package hbase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/zk"
)

// ZK paths the cluster publishes.
const (
	zkRoot       = "/hbase"
	zkMasterPath = "/hbase/master"
	zkServers    = "/hbase/rs"
	// The master epoch is the control plane's fencing token: a persistent
	// counter every elected master CAS-bumps before doing anything else. A
	// deposed master still holds its old epoch, so every coordination write
	// it attempts fails the fenceCheck — the master-level twin of the
	// per-region ownership epochs below.
	zkMasterEpoch = "/hbase/master-epoch"
	// Hot standbys advertise themselves ephemerally under /hbase/standbys;
	// the roster is what /statusz shows and what an operator checks before
	// trusting the cluster to survive a master loss.
	zkStandbys = "/hbase/standbys"
	// The last master to win an election records itself persistently here,
	// so its successor can name who it deposed even though the ephemeral
	// leader node died with the predecessor.
	zkMasterLast = "/hbase/master-last"
	// Region-ownership epochs live under their own subtree; each region's
	// current epoch is the decimal string at /shc/regions/<id>/epoch. The
	// coordination service, not the master process, is the source of truth:
	// a recovering or standby master reads epochs back from here, so a
	// zombie can never be un-fenced by master amnesia.
	zkEpochRoot    = "/shc"
	zkEpochRegions = "/shc/regions"
	// Split transactions journal themselves at /shc/splits/<parent-id>
	// before any state changes: a master or hosting server dying mid-split
	// leaves the journal behind, and recovery rolls the split forward (both
	// daughters made it) or back (they did not) instead of leaving the
	// keyspace torn.
	zkSplits = "/shc/splits"
)

// Master performs the administrative duties of HMaster (paper §III-B):
// creating and dropping tables, assigning regions to servers, splitting
// regions, and balancing load. It never touches the data path.
type Master struct {
	host     string
	net      *rpc.Network
	meter    *metrics.Registry
	cfg      StoreConfig
	zkSrv    *zk.Server
	validate TokenValidator
	// sess is the master's coordination session. Atomic because fenceCheck
	// replaces an expired session in place (the zombie re-dialing ZooKeeper)
	// while heartbeat and janitor goroutines read it concurrently.
	sess atomic.Pointer[zk.Session]
	// epoch is the master fencing epoch this process adopted when it won its
	// election; fenceCheck compares it against the coordination service's
	// current value before every coordination write.
	epoch atomic.Uint64
	// journal receives structured lifecycle events (fencing, reassignment,
	// promotion, splits, janitor passes). Atomic so emission sites never
	// contend on m.mu ordering; a nil journal swallows events.
	journal atomic.Pointer[ops.Journal]

	mu      sync.Mutex
	servers []*RegionServer
	tables  map[string]*tableState
	nextID  int
	// missed counts consecutive failed heartbeats per server host; a server
	// whose count reaches deathThreshold is declared dead and its regions
	// are reassigned.
	missed         map[string]int
	deathThreshold int
	// hotWriteThreshold is the per-janitor-interval cell-write count above
	// which a region is considered hot and split by load; 0 disables the
	// defense.
	hotWriteThreshold int64
	// stageHook, when set (tests only), runs at each named stage of a split
	// or a drain (see SetStageHook); returning an error aborts the procedure
	// there, simulating a master crash at that exact point.
	stageHook func(stage string) error
}

type tableState struct {
	desc    TableDescriptor
	regions map[string]*Region // primaries, by region id
	// replicas holds each region's secondary copies (by primary region id).
	// Slots keep their replica numbers across failures: a promoted or lost
	// copy's number is reused by its replacement, so server region-map keys
	// stay stable.
	replicas map[string][]*Region
}

// newMaster builds a master process on host — RPC handlers registered,
// coordination session open, shared znode trees ensured — without deciding
// whether it leads. NewMaster and NewStandbyMaster layer the election on top.
func newMaster(host string, net *rpc.Network, zkSrv *zk.Server, cfg StoreConfig, meter *metrics.Registry, validate TokenValidator) (*Master, error) {
	m := &Master{
		host: host, net: net, meter: meter, cfg: cfg, zkSrv: zkSrv, validate: validate,
		tables: make(map[string]*tableState), missed: make(map[string]int),
		deathThreshold: 1,
	}
	if err := net.AddHost(host); err != nil {
		return nil, err
	}
	for method, h := range map[string]rpc.Handler{
		MethodCreateTable: serve(m, MethodCreateTable, func(r *CreateTableRequest) (rpc.Message, error) {
			return Ack{}, m.CreateTable(r.Desc, r.SplitKeys)
		}),
		MethodDeleteTable: serve(m, MethodDeleteTable, func(r *TableRequest) (rpc.Message, error) {
			return Ack{}, m.DeleteTable(r.Table)
		}),
		MethodTableRegions: serve(m, MethodTableRegions, func(r *TableRequest) (rpc.Message, error) {
			regions, err := m.TableRegions(r.Table)
			return &RegionList{Regions: regions}, err
		}),
		MethodListTables: serve(m, MethodListTables, func(*TableRequest) (rpc.Message, error) {
			return &TableNames{Names: m.Tables()}, nil
		}),
		MethodTableStats: serve(m, MethodTableStats, func(r *TableRequest) (rpc.Message, error) {
			return m.TableStatsFor(r.Table)
		}),
	} {
		if err := net.Handle(host, method, h); err != nil {
			return nil, err
		}
	}
	m.sess.Store(zkSrv.NewSession())
	for _, path := range []string{zkRoot, zkServers, zkStandbys, zkEpochRoot, zkEpochRegions, zkSplits} {
		if err := m.zkEnsure(path); err != nil {
			return nil, err
		}
	}
	if ok, _ := m.zsess().Exists(zkMasterEpoch); !ok {
		if err := m.zsess().Create(zkMasterEpoch, []byte("0"), false); err != nil && !errors.Is(err, zk.ErrNodeExists) {
			return nil, err
		}
	}
	return m, nil
}

// NewMaster creates the master on host, registers its RPC handlers, elects
// itself leader in ZooKeeper, and publishes its address for clients.
func NewMaster(host string, net *rpc.Network, zkSrv *zk.Server, cfg StoreConfig, meter *metrics.Registry, validate TokenValidator) (*Master, error) {
	m, err := newMaster(host, net, zkSrv, cfg, meter, validate)
	if err != nil {
		return nil, err
	}
	won, err := m.zsess().ElectLeader(zkMasterPath, host)
	if err != nil {
		return nil, err
	}
	if !won {
		return nil, fmt.Errorf("hbase: another master already leads")
	}
	if _, err := m.becomeActive(); err != nil {
		return nil, err
	}
	return m, nil
}

// zsess returns the master's current coordination session.
func (m *Master) zsess() *zk.Session { return m.sess.Load() }

// Host returns the master's host name.
func (m *Master) Host() string { return m.host }

// SetJournal installs the cluster event journal on the master and every
// registered region server. Servers registered later inherit it through
// AddServer. nil disables emission everywhere.
func (m *Master) SetJournal(j *ops.Journal) {
	m.journal.Store(j)
	m.mu.Lock()
	servers := append([]*RegionServer(nil), m.servers...)
	m.mu.Unlock()
	for _, rs := range servers {
		rs.SetJournal(j)
	}
}

// jrn returns the installed journal (nil appends are no-ops).
func (m *Master) jrn() *ops.Journal { return m.journal.Load() }

// zkEnsure creates the persistent node at path unless it already exists.
func (m *Master) zkEnsure(path string) error {
	if ok, _ := m.zsess().Exists(path); ok {
		return nil
	}
	return m.zsess().Create(path, nil, false)
}

// zkPut writes data at path, creating the persistent node when absent.
func (m *Master) zkPut(path string, data []byte) error {
	if ok, _ := m.zsess().Exists(path); ok {
		return m.zsess().Set(path, data)
	}
	return m.zsess().Create(path, data, false)
}

// persistEpoch records a region's ownership epoch at
// /shc/regions/<id>/epoch (creating the region node on first use).
func (m *Master) persistEpoch(id string, epoch uint64) error {
	node := zkEpochRegions + "/" + id
	if err := m.zkEnsure(node); err != nil {
		return err
	}
	return m.zkPut(node+"/epoch", []byte(strconv.FormatUint(epoch, 10)))
}

// forgetEpochLocked retires a region id's epoch node: the id names no region
// any more (a split parent, an abandoned daughter, a dropped table's region).
func (m *Master) forgetEpochLocked(id string) {
	_ = m.zsess().Delete(zkEpochRegions + "/" + id + "/epoch")
	_ = m.zsess().Delete(zkEpochRegions + "/" + id)
}

// loadEpoch reads a region's persisted epoch (0 when never assigned).
func (m *Master) loadEpoch(id string) uint64 {
	data, err := m.zsess().Get(zkEpochRegions + "/" + id + "/epoch")
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(data), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// nextEpochLocked computes, persists, and meters the next ownership epoch
// for a region being moved: one past the maximum of what the region holds
// and what the coordination service has recorded, so the sequence stays
// monotonic even across master failovers.
func (m *Master) nextEpochLocked(info RegionInfo) uint64 {
	cur := info.Epoch
	if zkE := m.loadEpoch(info.ID); zkE > cur {
		cur = zkE
	}
	next := cur + 1
	_ = m.persistEpoch(info.ID, next)
	m.meter.Inc(metrics.EpochBumps)
	return next
}

// AddServer registers a region server with the master and advertises it in
// ZooKeeper. Re-adding a host that is already registered is a no-op, so a
// drained server can rejoin after its rolling restart. Registration also
// restarts the server's self-fencing lease clock: being re-admitted by the
// master is as good as a heartbeat.
func (m *Master) AddServer(rs *RegionServer) error {
	m.mu.Lock()
	for _, have := range m.servers {
		if have.Host() == rs.Host() {
			m.mu.Unlock()
			return nil
		}
	}
	m.servers = append(m.servers, rs)
	delete(m.missed, rs.Host())
	m.mu.Unlock()
	if j := m.jrn(); j != nil {
		rs.SetJournal(j)
	}
	rs.heartbeat()
	return m.zkEnsure(zkServers + "/" + rs.Host())
}

// SetDeathThreshold sets how many consecutive missed heartbeats declare a
// region server dead (default 1 — the lease expires on the first missed
// round, as with a short ZooKeeper session timeout).
func (m *Master) SetDeathThreshold(n int) {
	if n < 1 {
		n = 1
	}
	m.mu.Lock()
	m.deathThreshold = n
	m.mu.Unlock()
}

// pingServer probes one region server over the network, so SetDown hosts
// and injected faults are observed exactly as a real heartbeat would. The
// call is tagged with the master's identity, which lets fault rules sever
// master↔server traffic while client↔server traffic still flows (the
// asymmetric partition behind the zombie scenarios).
func (m *Master) pingServer(host string) error {
	ctx := rpc.WithCaller(context.Background(), m.host)
	conn, err := m.net.DialContext(ctx, host)
	if err != nil {
		return err
	}
	defer conn.Close()
	// The probe is stamped with the master's fencing epoch: a server that
	// has heard from a newer master rejects it, so a deposed master cannot
	// keep leases alive even if it somehow slips past its own fenceCheck.
	_, err = conn.CallContext(ctx, MethodPing, Ping{Master: m.host, MasterEpoch: m.epoch.Load()})
	return err
}

// CheckServers runs one heartbeat round: every registered region server is
// pinged; a server that has missed deathThreshold consecutive rounds is
// declared dead, removed from the cluster (and from ZooKeeper), and its
// regions are recovered from their WALs and reassigned to the surviving
// servers. It returns the hosts declared dead this round.
//
// Tests call this directly after scripting a failure, which keeps recovery
// deterministic; long-running deployments drive it from StartHeartbeats.
func (m *Master) CheckServers() ([]string, error) {
	if err := m.fenceCheck(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	hosts := make([]string, len(m.servers))
	for i, rs := range m.servers {
		hosts[i] = rs.Host()
	}
	m.mu.Unlock()

	alive := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		alive[h] = m.pingServer(h) == nil
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []string
	survivors := m.servers[:0:0]
	var victims []*RegionServer
	for _, rs := range m.servers {
		h := rs.Host()
		if alive[h] {
			delete(m.missed, h)
			survivors = append(survivors, rs)
			continue
		}
		m.missed[h]++
		if m.missed[h] < m.deathThreshold {
			survivors = append(survivors, rs)
			continue
		}
		delete(m.missed, h)
		dead = append(dead, h)
		victims = append(victims, rs)
	}
	if len(victims) == 0 {
		return nil, nil
	}
	m.servers = survivors
	for _, rs := range victims {
		m.meter.Inc(metrics.ServersDeclaredDead)
		_ = m.zsess().Delete(zkServers + "/" + rs.Host())
		// The fencing decision is the root cause every recovery action that
		// follows links back to.
		cause := m.jrn().Append(ops.Event{
			Type: ops.EventServerFenced, Server: rs.Host(),
			Detail: "missed heartbeats, declared dead",
		})
		if err := m.reassignLocked(rs, cause); err != nil {
			return dead, err
		}
	}
	return dead, nil
}

// reassignLocked moves every region off a dead server. The master works
// from its own meta, never the dead server's region map: a "dead" server
// may in fact be a live zombie on the far side of a partition, and nothing
// the master does may depend on reaching it. Each region's successor is
// opened at a bumped, ZooKeeper-persisted epoch, which fences the shared
// WAL — from that instant the zombie can no longer acknowledge a write —
// and then rebuilt by WAL replay (the paper's §VI-B recovery path: the log,
// standing in for HDFS, outlives the server). The successor lands on the
// least-loaded survivor, which rebinds its meta host so refreshed client
// caches route to the new location.
func (m *Master) reassignLocked(dead *RegionServer, cause uint64) error {
	if len(m.servers) == 0 {
		return fmt.Errorf("hbase: no surviving region servers to reassign %s's regions", dead.Host())
	}
	deadHost := dead.Host()
	type victim struct {
		ts *tableState
		r  *Region
	}
	var victims []victim
	for _, ts := range m.tables {
		for _, r := range ts.regions {
			if r.Info().Host == deadHost {
				victims = append(victims, victim{ts, r})
			}
		}
	}
	sort.Slice(victims, func(i, j int) bool { // deterministic reassignment order
		return victims[i].r.Info().ID < victims[j].r.Info().ID
	})
	for _, v := range victims {
		info := v.r.Info()
		// A surviving secondary takes over first: it was already serving, so
		// the region never waits on WAL replay — the read-availability win
		// replicas exist for. Its epoch bump fences the shared WAL exactly as
		// a replay reassignment would, so a zombie old primary dies
		// identically either way.
		if m.promoteLocked(v.ts, info, cause, "no WAL replay") {
			continue
		}
		next := m.nextEpochLocked(info)
		successor := v.r.Reopen(next)
		if err := successor.RecoverFromWAL(); err != nil {
			return fmt.Errorf("hbase: replay WAL of %s: %w", info.ID, err)
		}
		target := m.leastLoadedExcludingLocked(nil)
		target.AddRegion(successor)
		v.ts.regions[info.ID] = successor
		m.meter.Inc(metrics.RegionsReassigned)
		m.meter.Inc(metrics.RegionsFenced)
		m.jrn().Append(ops.Event{
			Type: ops.EventRegionReassigned, Region: info.ID, Table: info.Table,
			Server: target.Host(), Epoch: next, Cause: cause, Detail: "wal-replay",
		})
	}
	// Secondary copies the dead server hosted are gone with it: forget them
	// (the promoted/reassigned primaries keep shipping to the survivors),
	// then restore every shorthanded region to its configured replication.
	m.dropReplicasOnLocked(deadHost)
	m.topUpReplicasLocked()
	return nil
}

// promoteLocked promotes the freshest surviving secondary of a region whose
// primary died, reporting false when no live copy exists. Freshness is the
// applied WAL high-water mark — the copy that saw most of the acknowledged
// history loses the least. The promoted copy stays on its own server: it
// re-registers under the primary key, at a bumped ZooKeeper-persisted epoch,
// with no data movement and no replay wait. The promotion is recorded in
// meta, metered as a fenced reassignment, and journaled as ReplicaPromoted
// with cause and detail.
func (m *Master) promoteLocked(ts *tableState, info RegionInfo, cause uint64, detail string) bool {
	reps := ts.replicas[info.ID]
	var best *Region
	var bestSrv *RegionServer
	for _, rep := range reps {
		srv := m.serverLocked(rep.Info().Host)
		if srv == nil {
			continue // the copy's host is dead or gone too
		}
		if best == nil || rep.AppliedSeq() > best.AppliedSeq() {
			best, bestSrv = rep, srv
		}
	}
	if best == nil {
		return false
	}
	next := m.nextEpochLocked(info)
	bestSrv.RemoveRegion(regionKey(info.ID, best.Info().Replica))
	best.Promote(next)
	bestSrv.AddRegion(best)
	keep := reps[:0]
	for _, rep := range reps {
		if rep != best {
			keep = append(keep, rep)
		}
	}
	ts.replicas[info.ID] = keep
	ts.regions[info.ID] = best
	m.meter.Inc(metrics.Promotions)
	m.meter.Inc(metrics.RegionsReassigned)
	m.meter.Inc(metrics.RegionsFenced)
	m.jrn().Append(ops.Event{
		Type: ops.EventReplicaPromoted, Region: info.ID, Table: info.Table,
		Server: bestSrv.Host(), Epoch: next, Cause: cause, Detail: detail,
	})
	return true
}

// serverLocked returns the registered server for host, or nil.
func (m *Master) serverLocked(host string) *RegionServer {
	for _, rs := range m.servers {
		if rs.Host() == host {
			return rs
		}
	}
	return nil
}

// dropReplicasOnLocked forgets every secondary copy hosted on host (a dead
// server): each is detached from its primary's replicator so shipping stops
// and the object can be collected.
func (m *Master) dropReplicasOnLocked(host string) {
	for _, ts := range m.tables {
		for id, reps := range ts.replicas {
			keep := reps[:0]
			for _, rep := range reps {
				if rep.Info().Host == host {
					rep.detachFromPrimary()
					continue
				}
				keep = append(keep, rep)
			}
			ts.replicas[id] = keep
		}
	}
}

// topUpReplicasLocked restores every region to its configured replication
// by bootstrapping fresh secondary copies from the current primary onto
// servers not already holding a copy. Freed replica numbers are reused so
// clients' ReplicaHosts slots stay stable.
func (m *Master) topUpReplicasLocked() {
	if m.cfg.RegionReplication <= 1 {
		return
	}
	for _, ts := range m.tables {
		ids := make([]string, 0, len(ts.regions))
		for id := range ts.regions {
			ids = append(ids, id)
		}
		sort.Strings(ids) // deterministic placement order
		for _, id := range ids {
			m.ensureReplicasLocked(ts, ts.regions[id], nil)
		}
	}
}

// ensureReplicasLocked adds secondary copies of primary until the region
// has RegionReplication total copies or no eligible server remains. Each
// missing copy tries the corresponding preferred host first (split
// daughters inherit the parent's replica placement this way, so a split
// does not reshuffle where the range's copies live), falling back to the
// least-loaded eligible server.
func (m *Master) ensureReplicasLocked(ts *tableState, primary *Region, preferred []string) {
	id := primary.Info().ID
	for len(ts.replicas[id]) < m.cfg.RegionReplication-1 {
		used := make(map[int]bool, len(ts.replicas[id]))
		for _, rep := range ts.replicas[id] {
			used[rep.Info().Replica] = true
		}
		num := 1
		for used[num] {
			num++
		}
		var want string
		if num-1 < len(preferred) {
			want = preferred[num-1]
		}
		if !m.addReplicaLocked(ts, primary, num, want) {
			return
		}
	}
}

// addReplicaLocked bootstraps secondary copy #num of primary onto the
// preferred host when it is registered and eligible, else the least-loaded
// server not already holding a copy of the region. Returns false when every
// server already holds one (replication is capped by the cluster size, as
// in HBase).
func (m *Master) addReplicaLocked(ts *tableState, primary *Region, num int, preferred string) bool {
	info := primary.Info()
	exclude := map[string]bool{info.Host: true}
	for _, rep := range ts.replicas[info.ID] {
		exclude[rep.Info().Host] = true
	}
	var target *RegionServer
	if preferred != "" && !exclude[preferred] {
		target = m.serverLocked(preferred)
	}
	if target == nil {
		target = m.leastLoadedExcludingLocked(exclude)
	}
	if target == nil {
		return false
	}
	rep := primary.NewReplica(num)
	target.AddRegion(rep)
	ts.replicas[info.ID] = append(ts.replicas[info.ID], rep)
	return true
}

// leastLoadedExcludingLocked returns the least-loaded registered server
// whose host is not excluded, or nil when none qualifies.
func (m *Master) leastLoadedExcludingLocked(exclude map[string]bool) *RegionServer {
	var best *RegionServer
	for _, rs := range m.servers {
		if exclude[rs.Host()] {
			continue
		}
		if best == nil || rs.RegionCount() < best.RegionCount() {
			best = rs
		}
	}
	return best
}

// DrainServer gracefully removes a region server from the cluster: every
// hosted region is flushed (making its MemStore durable and truncating its
// WAL), moved to a bumped ownership epoch, and handed — as the same live
// object — to the least-loaded remaining server. Nothing is replayed,
// nothing is lost, and in-flight client requests fail over with the
// ordinary retryable errors (ErrNotServing before the move is visible in
// meta, ErrFenced after). This is the rolling-restart primitive: drain,
// restart the process, AddServer to rejoin.
func (m *Master) DrainServer(host string) error {
	if err := m.fenceCheck(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	idx := -1
	for i, rs := range m.servers {
		if rs.Host() == host {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("hbase: no region server %q registered to drain", host)
	}
	if len(m.servers) == 1 {
		return fmt.Errorf("hbase: cannot drain %q: it is the only region server", host)
	}
	victim := m.servers[idx]
	m.servers = append(m.servers[:idx:idx], m.servers[idx+1:]...)
	delete(m.missed, host)
	_ = m.zsess().Delete(zkServers + "/" + host)
	cause := m.jrn().Append(ops.Event{Type: ops.EventServerDrained, Server: host})
	if err := m.stageLocked("deregistered"); err != nil {
		return err
	}
	infos := victim.RegionInfos() // sorted: deterministic drain order
	for _, info := range infos {
		if err := m.stageLocked("move"); err != nil {
			return err
		}
		r := victim.RemoveRegion(regionKey(info.ID, info.Replica))
		if r == nil {
			continue
		}
		detail := "drain-replica"
		if info.Replica == 0 {
			r.Flush()
			detail = "drain"
		}
		m.meter.Inc(metrics.RegionsDrained)
		m.moveLocked(r, m.placeCopyLocked(info), cause, detail)
	}
	return nil
}

// moveLocked hands one live region copy, already taken off its old server,
// to target and journals the move. A primary's move is an ownership change
// like any other: its epoch bumps so stale routings to the old host fence
// instead of silently missing. A secondary carries no ownership and moves
// with no bump; the replicator keeps shipping to the object wherever it is
// hosted. Nothing is replayed either way: the same object moves.
func (m *Master) moveLocked(r *Region, target *RegionServer, cause uint64, detail string) {
	info := r.Info()
	ev := ops.Event{
		Type: ops.EventRegionReassigned, Region: info.ID, Table: info.Table,
		Server: target.Host(), Cause: cause, Detail: detail,
	}
	if info.Replica == 0 {
		r.AdoptEpoch(m.nextEpochLocked(info))
		ev.Epoch = r.Epoch()
	}
	target.AddRegion(r)
	m.jrn().Append(ev)
}

// otherCopyHostsLocked returns the hosts of every copy of the region other
// than the one numbered info.Replica.
func (m *Master) otherCopyHostsLocked(info RegionInfo) map[string]bool {
	hosts := make(map[string]bool, m.cfg.RegionReplication)
	ts := m.tables[info.Table]
	if ts == nil {
		return hosts
	}
	if p := ts.regions[info.ID]; p != nil && p.Info().Replica != info.Replica {
		hosts[p.Info().Host] = true
	}
	for _, rep := range ts.replicas[info.ID] {
		if rep.Info().Replica != info.Replica {
			hosts[rep.Info().Host] = true
		}
	}
	return hosts
}

// placeCopyLocked picks the drain target for one copy of a region:
// least-loaded among servers not already holding another copy, falling back
// to plain least-loaded when the cluster is too small to keep copies apart.
func (m *Master) placeCopyLocked(info RegionInfo) *RegionServer {
	if target := m.leastLoadedExcludingLocked(m.otherCopyHostsLocked(info)); target != nil {
		return target
	}
	return m.leastLoadedExcludingLocked(nil)
}

// every runs fn on a fixed interval until the returned stop function is
// called.
func every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// StartHeartbeats drives CheckServers on a fixed interval and returns a
// stop function. Tests prefer calling CheckServers directly (no timers to
// race against); the chaos benchmark and long-lived deployments use the
// loop.
func (m *Master) StartHeartbeats(interval time.Duration) (stop func()) {
	return every(interval, func() { _, _ = m.CheckServers() })
}

// ErrTableNotFound reports a request naming a table the master does not
// know: never created, or dropped. A writer that creates tables on demand
// tries its write first and creates the table only on this error.
var ErrTableNotFound = errors.New("hbase: table does not exist")

// CreateTable creates a table pre-split at splitKeys (sorted, distinct) and
// assigns its regions across the servers, least-loaded first.
func (m *Master) CreateTable(desc TableDescriptor, splitKeys [][]byte) error {
	if err := desc.Validate(); err != nil {
		return err
	}
	if err := m.fenceCheck(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.servers) == 0 {
		return fmt.Errorf("hbase: no region servers available")
	}
	if _, ok := m.tables[desc.Name]; ok {
		return fmt.Errorf("hbase: table %q already exists", desc.Name)
	}
	for i := 1; i < len(splitKeys); i++ {
		if bytes.Compare(splitKeys[i-1], splitKeys[i]) >= 0 {
			return fmt.Errorf("hbase: split keys must be sorted and distinct")
		}
	}
	ts := &tableState{desc: desc, regions: make(map[string]*Region), replicas: make(map[string][]*Region)}
	bounds := make([][]byte, 0, len(splitKeys)+2)
	bounds = append(bounds, nil)
	bounds = append(bounds, splitKeys...)
	bounds = append(bounds, nil)
	for i := 0; i+1 < len(bounds); i++ {
		m.nextID++
		info := RegionInfo{
			Table:    desc.Name,
			ID:       fmt.Sprintf("%s-%04d", desc.Name, m.nextID),
			StartKey: cloneKey(bounds[i]),
			EndKey:   cloneKey(bounds[i+1]),
		}
		descCopy := desc
		region := NewRegion(info, &descCopy, m.cfg, m.meter)
		// First assignment: epoch one past anything ZooKeeper remembers for
		// this id (a fresh id starts at 1).
		region.setEpoch(m.loadEpoch(info.ID) + 1)
		_ = m.persistEpoch(info.ID, region.Epoch())
		m.leastLoadedExcludingLocked(nil).AddRegion(region)
		ts.regions[info.ID] = region
		m.ensureReplicasLocked(ts, region, nil)
	}
	m.tables[desc.Name] = ts
	return nil
}

func cloneKey(k []byte) []byte {
	if k == nil {
		return nil
	}
	return append([]byte(nil), k...)
}

// DeleteTable drops a table: its regions and their secondary copies leave
// every server, and their epoch nodes leave the coordination service.
func (m *Master) DeleteTable(name string) error {
	if err := m.fenceCheck(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	for id, r := range ts.regions {
		m.unhostLocked(r)
		m.retireCopiesLocked(ts, id)
		m.forgetEpochLocked(id)
	}
	delete(m.tables, name)
	return nil
}

// unhostLocked takes one copy of a region off the server hosting it, when
// that server is still registered.
func (m *Master) unhostLocked(r *Region) {
	info := r.Info()
	if srv := m.serverLocked(info.Host); srv != nil {
		srv.RemoveRegion(regionKey(info.ID, info.Replica))
	}
}

// retireCopiesLocked retires every secondary copy of region id: each leaves
// its server and its primary's replicator, and the slot set is forgotten.
func (m *Master) retireCopiesLocked(ts *tableState, id string) {
	for _, rep := range ts.replicas[id] {
		m.unhostLocked(rep)
		rep.detachFromPrimary()
	}
	delete(ts.replicas, id)
}

// TableRegions lists a table's regions in start-key order.
func (m *Master) TableRegions(name string) ([]RegionInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	out := make([]RegionInfo, 0, len(ts.regions))
	for _, r := range ts.regions {
		info := r.Info()
		if reps := ts.replicas[info.ID]; len(reps) > 0 {
			// Publish replica locations in the meta response, indexed by
			// replica number, so timeline clients can fail over without a
			// second meta round trip.
			maxNum := 0
			for _, rep := range reps {
				if n := rep.Info().Replica; n > maxNum {
					maxNum = n
				}
			}
			hosts := make([]string, maxNum)
			for _, rep := range reps {
				ri := rep.Info()
				hosts[ri.Replica-1] = ri.Host
			}
			info.ReplicaHosts = hosts
		}
		out = append(out, info)
	}
	sortRegions(out)
	return out, nil
}

// Tables lists table names sorted.
func (m *Master) Tables() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tables))
	for name := range m.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TableStatsFor aggregates storage statistics across a table's regions.
func (m *Master) TableStatsFor(name string) (TableStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.tables[name]
	if !ok {
		return TableStats{}, fmt.Errorf("%w: %q", ErrTableNotFound, name)
	}
	var out TableStats
	for _, r := range ts.regions {
		out.Bytes += int64(r.Size())
		out.Cells += r.CellCount()
		out.Regions++
	}
	return out, nil
}

// SetStageHook installs a test-only hook that runs at each named stage of a
// control-plane procedure: after each step of a split transaction
// ("journaled", "split", "daughters-added", "meta-updated"), and during a
// drain ("deregistered" once the server leaves the roster, then "move"
// before each region relocation). Returning an error aborts the procedure
// there, simulating the master dying at that exact point. nil removes it.
func (m *Master) SetStageHook(fn func(stage string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stageHook = fn
}

// locked
func (m *Master) stageLocked(stage string) error {
	if m.stageHook == nil {
		return nil
	}
	return m.stageHook(stage)
}

// SetHotWriteThreshold arms hot-region detection: a region that takes more
// than n cell writes between janitor passes is split by load. 0 disarms it.
func (m *Master) SetHotWriteThreshold(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hotWriteThreshold = n
}

// splitHot samples every region's write-load counter and splits the ones
// above the hot threshold — the master-side defense that turns a sustained
// hot-key workload into more, smaller regions the balancer can spread. It
// returns how many regions were split.
func (m *Master) splitHot(cause uint64) (int, error) {
	// Gated up front, not just per split: even sampling drains the regions'
	// write-load counters, which a deposed master has no business doing.
	if err := m.fenceCheck(); err != nil {
		return 0, err
	}
	targets := m.regionsWhere(func(r *Region) bool {
		return m.hotWriteThreshold > 0 && r.TakeWriteLoad() > m.hotWriteThreshold
	})
	n := 0
	for _, t := range targets {
		if err := m.splitRegionCaused(t.table, t.region, cause, "hot"); err != nil {
			// A region too small or too uniform to split stays hot but whole;
			// skip it rather than abort the pass.
			continue
		}
		m.meter.Inc(metrics.HotSplits)
		n++
	}
	return n, nil
}

// regionRef names one primary region by table and id.
type regionRef struct{ table, region string }

// regionsWhere samples every primary under the master lock and returns the
// ones pred selects; the caller acts on them after the lock is released.
func (m *Master) regionsWhere(pred func(*Region) bool) []regionRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []regionRef
	for name, ts := range m.tables {
		for id, r := range ts.regions {
			if pred(r) {
				out = append(out, regionRef{name, id})
			}
		}
	}
	return out
}

// JanitorPass runs one round of the master's steady-state housekeeping:
// settle any orphaned split journals, split overgrown regions, split hot
// regions, and rebalance.
func (m *Master) JanitorPass() {
	if err := m.fenceCheck(); err != nil {
		return
	}
	m.meter.Inc(metrics.JanitorRuns)
	// One JanitorAction event anchors the pass; every split, rollback, and
	// balance move it performs carries this seq as its Cause.
	cause := m.jrn().Append(ops.Event{Type: ops.EventJanitorAction, Server: m.host})
	m.mu.Lock()
	m.recoverSplitsLocked(cause)
	m.mu.Unlock()
	_, _ = m.splitOvergrown(cause)
	_, _ = m.splitHot(cause)
	m.balance(cause)
}

// StartJanitor drives JanitorPass on a fixed interval and returns a stop
// function — the steady-state loop that makes size- and load-based splits
// happen without an operator. Tests call JanitorPass directly.
func (m *Master) StartJanitor(interval time.Duration) (stop func()) {
	return every(interval, m.JanitorPass)
}

// SplitOvergrownRegions splits every region that reports NeedsSplit, once.
func (m *Master) SplitOvergrownRegions() (int, error) { return m.splitOvergrown(0) }

func (m *Master) splitOvergrown(cause uint64) (int, error) {
	if err := m.fenceCheck(); err != nil {
		return 0, err
	}
	targets := m.regionsWhere((*Region).NeedsSplit)
	n := 0
	for _, t := range targets {
		if err := m.splitRegionCaused(t.table, t.region, cause, "overgrown"); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Balance migrates regions so server loads differ by at most one region.
// It returns the number of regions moved.
func (m *Master) Balance() int { return m.balance(0) }

func (m *Master) balance(cause uint64) int {
	if err := m.fenceCheck(); err != nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.servers) < 2 {
		return 0
	}
	moved := 0
	for {
		minS, maxS := m.leastLoadedExcludingLocked(nil), m.servers[0]
		for _, rs := range m.servers {
			if rs.RegionCount() > maxS.RegionCount() {
				maxS = rs
			}
		}
		if maxS.RegionCount()-minS.RegionCount() <= 1 {
			return moved
		}
		// Move the first copy whose move keeps the region's copies on
		// distinct hosts; skipping the rest keeps primaries and their
		// replicas from ever colliding onto minS.
		var r *Region
		for _, info := range maxS.RegionInfos() {
			if m.otherCopyHostsLocked(info)[minS.Host()] {
				continue
			}
			r = maxS.RemoveRegion(regionKey(info.ID, info.Replica))
			break
		}
		if r == nil {
			return moved
		}
		m.moveLocked(r, minS, cause, "balance")
		moved++
	}
}

// masterRequest is a master RPC request: it carries the caller's token.
type masterRequest interface {
	rpc.Message
	authToken() string
}

// serve adapts a typed master operation to an rpc.Handler: the request must
// be an R, and its token must pass the master's validator.
func serve[R masterRequest](m *Master, method string, fn func(R) (rpc.Message, error)) rpc.Handler {
	return func(_ context.Context, req rpc.Message) (rpc.Message, error) {
		r, ok := req.(R)
		if !ok {
			return nil, fmt.Errorf("hbase: %s: bad request type %T", method, req)
		}
		if m.validate != nil {
			if err := m.validate(r.authToken()); err != nil {
				return nil, err
			}
		}
		resp, err := fn(r)
		if err != nil {
			return nil, err
		}
		return resp, nil
	}
}
