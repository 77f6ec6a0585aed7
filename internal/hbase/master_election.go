package hbase

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/zk"
)

// NewStandbyMaster creates a hot standby master: fully constructed — RPC
// handlers live, coordination session open — but not leading. It advertises
// itself ephemerally under /hbase/standbys and does nothing until
// StartStandby's watch loop promotes it.
func NewStandbyMaster(host string, net *rpc.Network, zkSrv *zk.Server, cfg StoreConfig, meter *metrics.Registry, validate TokenValidator) (*Master, error) {
	m, err := newMaster(host, net, zkSrv, cfg, meter, validate)
	if err != nil {
		return nil, err
	}
	if err := m.zsess().Create(zkStandbys+"/"+host, []byte(host), true); err != nil && !errors.Is(err, zk.ErrNodeExists) {
		return nil, err
	}
	return m, nil
}

// MasterEpoch returns the master fencing epoch this process adopted when it
// last won an election (0 for a standby that never led).
func (m *Master) MasterEpoch() uint64 { return m.epoch.Load() }

// Standbys lists the hosts currently advertising as hot standbys.
func (m *Master) Standbys() []string {
	names, err := m.zsess().Children(zkStandbys)
	if err != nil {
		return nil
	}
	return names
}

// becomeActive adopts leadership this master just won: it CAS-bumps the
// persistent master epoch (the fencing token every coordination write is
// checked against), records itself as the last-known leader, and meters the
// election. It returns the host of the predecessor it replaced ("" when this
// is the cluster's first master).
func (m *Master) becomeActive() (string, error) {
	next, err := m.bumpMasterEpoch()
	if err != nil {
		return "", err
	}
	m.epoch.Store(next)
	sess := m.zsess()
	var prev string
	if data, err := sess.Get(zkMasterLast); err == nil {
		prev = string(data)
	}
	_ = m.zkPut(zkMasterLast, []byte(m.host))
	m.meter.Inc(metrics.MasterElections)
	return prev, nil
}

// bumpMasterEpoch advances the persistent master epoch by one with a
// compare-and-swap loop: concurrent winners (an election race that ZooKeeper
// itself already serializes, but belt-and-braces) each get a distinct epoch.
func (m *Master) bumpMasterEpoch() (uint64, error) {
	sess := m.zsess()
	for {
		data, ver, err := sess.GetVersion(zkMasterEpoch)
		if errors.Is(err, zk.ErrNoNode) {
			if cerr := sess.Create(zkMasterEpoch, []byte("1"), false); cerr == nil {
				return 1, nil
			} else if !errors.Is(cerr, zk.ErrNodeExists) {
				return 0, cerr
			}
			continue
		}
		if err != nil {
			return 0, err
		}
		cur, _ := strconv.ParseUint(string(data), 10, 64)
		next := cur + 1
		if err := sess.SetIf(zkMasterEpoch, []byte(strconv.FormatUint(next, 10)), ver); err != nil {
			if errors.Is(err, zk.ErrBadVersion) {
				continue
			}
			return 0, err
		}
		return next, nil
	}
}

// ErrMasterFenced reports a coordination write rejected because the issuing
// master is no longer the leader, or leads at a stale master epoch — a
// deposed zombie whose actions must die un-acknowledged.
var ErrMasterFenced = errors.New("hbase: master fenced by master epoch")

// fenceCheck gates every coordination write: this master must still be the
// leader ZooKeeper knows AND hold the current master epoch. A deposed master
// — even one that never noticed its session expire during a long pause —
// fails here before it can touch meta, bump region epochs, journal splits,
// or command servers. An expired session is re-dialed first, so the verdict
// comes from the coordination service's current truth, not a dead socket.
func (m *Master) fenceCheck() error {
	err := m.fenceVerdict()
	if errors.Is(err, zk.ErrExpired) || errors.Is(err, zk.ErrClosed) {
		m.sess.Store(m.zkSrv.NewSession())
		err = m.fenceVerdict()
	}
	if err == nil {
		return nil
	}
	m.meter.Inc(metrics.MasterFencedWrites)
	return err
}

// fenceVerdict performs one leadership + master-epoch comparison against the
// coordination service.
func (m *Master) fenceVerdict() error {
	sess := m.zsess()
	leader, err := sess.Leader(zkMasterPath)
	if err != nil {
		return err
	}
	if leader != m.host {
		return fmt.Errorf("%w: %s is not the leader (%q is)", ErrMasterFenced, m.host, leader)
	}
	data, err := sess.Get(zkMasterEpoch)
	if err != nil {
		return err
	}
	if cur, _ := strconv.ParseUint(string(data), 10, 64); cur != m.epoch.Load() {
		return fmt.Errorf("%w: %s holds master epoch %d, cluster is at %d", ErrMasterFenced, m.host, m.epoch.Load(), cur)
	}
	return nil
}

// StartStandby begins the standby's watch-driven takeover loop: it watches
// the ephemeral leader znode, and when the leader vanishes — session death,
// expiry, crash — it runs the election. On a win it bumps the master epoch,
// journals MasterElected, rebuilds meta from the live region servers
// (resolve), settles orphaned split journals with the election as their
// causal root, journals MasterFailover, and finally calls onActive so the
// cluster can re-arm heartbeat/janitor duty loops on the new leader. On a
// loss it goes back to watching. The returned stop function ends the loop.
func (m *Master) StartStandby(resolve func() []*RegionServer, onActive func(*Master)) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		for {
			sess := m.zsess()
			// Watch before reading: a delete that lands between the read and
			// the watch registration would otherwise never wake us.
			watch, err := sess.Watch(zkMasterPath)
			if err != nil {
				if !m.standbyReconnect(done) {
					return
				}
				continue
			}
			leader, err := sess.Leader(zkMasterPath)
			if err != nil {
				if !m.standbyReconnect(done) {
					return
				}
				continue
			}
			if leader == m.host {
				return // promoted; the watch loop's job is done
			}
			if leader == "" {
				won, err := m.takeOver(resolve)
				if won && err == nil {
					if onActive != nil {
						onActive(m)
					}
					return
				}
				if err != nil && (errors.Is(err, zk.ErrExpired) || errors.Is(err, zk.ErrClosed)) {
					if !m.standbyReconnect(done) {
						return
					}
				}
				// Lost the election (or a transient error): fall through and
				// wait for the next leadership change.
			}
			select {
			case <-watch:
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// standbyReconnect replaces an expired standby session, unless the loop is
// stopping. It reports whether the loop should continue.
func (m *Master) standbyReconnect(done chan struct{}) bool {
	select {
	case <-done:
		return false
	default:
	}
	m.sess.Store(m.zkSrv.NewSession())
	return true
}

// takeOver runs one election attempt and, on a win, the full takeover
// sequence. It reports whether this master now leads.
func (m *Master) takeOver(resolve func() []*RegionServer) (bool, error) {
	won, err := m.zsess().ElectLeader(zkMasterPath, m.host)
	if err != nil || !won {
		return false, err
	}
	prev, err := m.becomeActive()
	if err != nil {
		return true, err
	}
	m.meter.Inc(metrics.MasterTakeovers)
	// MasterElected is journaled before any recovery action so rolled
	// forward/back splits and re-fenced servers can carry its seq as Cause.
	elected := m.jrn().Append(ops.Event{
		Type: ops.EventMasterElected, Server: m.host, Epoch: m.epoch.Load(),
		Detail: "standby won election, deposed " + prev,
	})
	if resolve != nil {
		if err := m.recoverFromCaused(resolve(), elected); err != nil {
			return true, err
		}
	}
	m.jrn().Append(ops.Event{
		Type: ops.EventMasterFailover, Server: m.host, Epoch: m.epoch.Load(), Cause: elected,
		Detail: "takeover complete: meta rebuilt, split journals settled",
	})
	_ = m.zsess().Delete(zkStandbys + "/" + m.host)
	return true, nil
}

// Resign simulates a master crash: its coordination session closes (so the
// ephemeral leader node vanishes and a standby can win the next election).
// The caller should also mark the host down on the network.
func (m *Master) Resign() {
	m.zsess().Close()
}

// RecoverFrom rebuilds the master's meta state after a failover by asking
// each region server what it hosts — the simulator's stand-in for reading
// hbase:meta. It also registers the servers with this master.
func (m *Master) RecoverFrom(servers []*RegionServer) error {
	return m.recoverFromCaused(servers, 0)
}

// recoverFromCaused is RecoverFrom with journal provenance: cause (a
// MasterElected seq during automatic takeover) links every split the
// recovery settles back to the election that triggered it.
func (m *Master) recoverFromCaused(servers []*RegionServer, cause uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.servers = nil
	m.tables = make(map[string]*tableState)
	m.missed = make(map[string]int)
	maxID := 0
	for _, rs := range servers {
		m.servers = append(m.servers, rs)
		if err := m.zkEnsure(zkServers + "/" + rs.Host()); err != nil {
			return err
		}
		for _, region := range rs.Regions() {
			info := region.Info()
			ts, ok := m.tables[info.Table]
			if !ok {
				ts = &tableState{desc: region.Descriptor(), regions: make(map[string]*Region), replicas: make(map[string][]*Region)}
				m.tables[info.Table] = ts
			}
			if info.Replica > 0 {
				// Secondary copies carry no ownership of their own: they are
				// re-learned as-is, epochs stay the primary's business.
				ts.replicas[info.ID] = append(ts.replicas[info.ID], region)
				continue
			}
			ts.regions[info.ID] = region
			// Epoch truth lives in the coordination service, not in this
			// master's memory: adopt anything newer that a predecessor
			// persisted before dying.
			if zkE := m.loadEpoch(info.ID); zkE > info.Epoch {
				region.setEpoch(zkE)
			}
			if n := regionSeq(info.ID); n > maxID {
				maxID = n
			}
		}
	}
	if maxID > m.nextID {
		m.nextID = maxID
	}
	// A region whose primary died with its server — the master crashed
	// before (or during) the promotion round — is re-learned as secondaries
	// only. Settle the orphaned promotion now: the freshest surviving copy
	// takes over under a bumped epoch, exactly as the heartbeat death path
	// would have done.
	for name, ts := range m.tables {
		for id, reps := range ts.replicas {
			if _, ok := ts.regions[id]; ok || len(reps) == 0 {
				continue
			}
			info := reps[0].Info()
			info.ID, info.Table = id, name
			// When every copy's host is gone there is nothing to serve from.
			m.promoteLocked(ts, info, cause, "orphaned promotion settled during master recovery")
		}
	}
	// A predecessor may have died mid-split: settle any journaled split
	// transactions against the hosted state just re-learned.
	m.recoverSplitsLocked(cause)
	return nil
}

// regionSeq parses the numeric suffix of a region id ("table-0042" -> 42).
func regionSeq(id string) int {
	i := len(id) - 1
	for i >= 0 && id[i] >= '0' && id[i] <= '9' {
		i--
	}
	n := 0
	for _, c := range id[i+1:] {
		n = n*10 + int(c-'0')
	}
	return n
}
