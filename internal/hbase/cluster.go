package hbase

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/zk"
)

// ClusterConfig sizes a simulated cluster.
type ClusterConfig struct {
	// Name identifies the cluster (the scope tokens are issued for).
	Name string
	// NumServers is the number of region servers; defaults to 3.
	NumServers int
	// Masters is the total number of master processes: one active leader
	// plus Masters-1 hot standbys whose watch loops take over automatically
	// when the leader's session dies. Defaults to 1 (no standbys).
	Masters int
	// Store tunes per-region storage behaviour.
	Store StoreConfig
	// RPC tunes the simulated network cost model.
	RPC rpc.Config
	// Meter receives all counters; a fresh registry is created when nil.
	Meter *metrics.Registry
	// Validate authenticates request tokens; nil = insecure.
	Validate TokenValidator
}

// Cluster bundles one simulated HBase deployment: a ZooKeeper ensemble, an
// RPC network, a master, and a set of region servers on distinct hosts.
type Cluster struct {
	Name string
	Net  *rpc.Network
	ZK   *zk.Server
	// Master is the boot master — the first leader elected. After a
	// failover it may be a dead (or zombie) process; use ActiveMaster for
	// the current leader.
	Master *Master
	// Standbys holds the hot standby masters booted alongside the leader
	// (cfg.Masters - 1 of them), in boot order. A standby that takes over
	// stays in this slice; ActiveMaster tracks who leads.
	Standbys []*Master
	Servers  []*RegionServer
	Meter    *metrics.Registry
	// Journal is the cluster's structured event journal: every lifecycle
	// transition (fencing, reassignment, promotion, splits, backpressure)
	// is appended here with a causality link to its trigger.
	Journal *ops.Journal

	// active is the master currently holding leadership, updated by standby
	// takeover callbacks; nil means the boot master still leads.
	active atomic.Pointer[Master]

	// dutyMu guards the heartbeat/janitor duty configuration and the stop
	// functions of whichever master's loops are currently running, so
	// takeover can re-arm them on the new leader.
	dutyMu       sync.Mutex
	dutyHB       time.Duration
	dutyJanitor  time.Duration
	dutyStops    []func()
	standbyStops []func()

	partMu     sync.Mutex
	partitions map[string][]*rpc.FaultRule // host -> active partition rules
}

// NewCluster boots a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Name == "" {
		cfg.Name = "hbase"
	}
	if cfg.NumServers <= 0 {
		cfg.NumServers = 3
	}
	if cfg.Meter == nil {
		cfg.Meter = metrics.NewRegistry()
	}
	c := &Cluster{
		Name:       cfg.Name,
		Net:        rpc.NewNetwork(cfg.RPC, cfg.Meter),
		ZK:         zk.NewServer(),
		Meter:      cfg.Meter,
		Journal:    ops.NewJournal(0),
		partitions: make(map[string][]*rpc.FaultRule),
	}
	master, err := NewMaster(cfg.Name+"-master", c.Net, c.ZK, cfg.Store, cfg.Meter, cfg.Validate)
	if err != nil {
		return nil, fmt.Errorf("hbase: boot master: %w", err)
	}
	c.Master = master
	// Installed before any server registers, so AddServer propagates the
	// journal to every region server as it joins.
	master.SetJournal(c.Journal)
	for i := 0; i < cfg.NumServers; i++ {
		host := fmt.Sprintf("%s-rs%d", cfg.Name, i+1)
		rs, err := NewRegionServer(host, c.Net, cfg.Meter, cfg.Validate)
		if err != nil {
			return nil, fmt.Errorf("hbase: boot region server %s: %w", host, err)
		}
		if cfg.Store.ServerLease > 0 {
			rs.SetFencing(cfg.Store.ServerLease, cfg.Store.FenceReads)
		}
		if err := master.AddServer(rs); err != nil {
			return nil, err
		}
		c.Servers = append(c.Servers, rs)
	}
	// Hot standbys boot after the region servers so a takeover's resolve()
	// snapshot always sees the full roster. Each standby's watch loop runs
	// from boot: the cluster survives a master crash with no test or
	// operator intervention.
	for i := 2; i <= cfg.Masters; i++ {
		host := fmt.Sprintf("%s-master%d", cfg.Name, i)
		sb, err := NewStandbyMaster(host, c.Net, c.ZK, cfg.Store, cfg.Meter, cfg.Validate)
		if err != nil {
			return nil, fmt.Errorf("hbase: boot standby master %s: %w", host, err)
		}
		sb.SetJournal(c.Journal)
		c.Standbys = append(c.Standbys, sb)
		stop := sb.StartStandby(c.serverSnapshot, c.masterTookOver)
		c.standbyStops = append(c.standbyStops, stop)
	}
	return c, nil
}

// serverSnapshot is the resolve function standby takeovers rebuild meta
// from: every region server the cluster booted, reachable or not (the new
// master's first heartbeat round settles the dead ones).
func (c *Cluster) serverSnapshot() []*RegionServer {
	return append([]*RegionServer(nil), c.Servers...)
}

// masterTookOver records the new leader and re-arms whatever duty loops
// (heartbeats, janitor) were running on the deposed master.
func (c *Cluster) masterTookOver(nm *Master) {
	c.active.Store(nm)
	c.dutyMu.Lock()
	defer c.dutyMu.Unlock()
	c.armDutiesLocked(nm)
}

// armDutiesLocked starts m's heartbeat and janitor loops at the configured
// intervals (zero disables either). Caller holds dutyMu.
func (c *Cluster) armDutiesLocked(m *Master) {
	if c.dutyHB > 0 {
		c.dutyStops = append(c.dutyStops, m.StartHeartbeats(c.dutyHB))
	}
	if c.dutyJanitor > 0 {
		c.dutyStops = append(c.dutyStops, m.StartJanitor(c.dutyJanitor))
	}
}

// ActiveMaster returns the master currently holding leadership: the boot
// master until a standby takes over.
func (c *Cluster) ActiveMaster() *Master {
	if m := c.active.Load(); m != nil {
		return m
	}
	return c.Master
}

// StartDuties runs the active master's heartbeat and janitor loops on the
// given intervals (zero disables either) and re-arms them automatically on
// every takeover, so a master crash does not silently stop failure detection
// and housekeeping. The returned stop function halts the loops of whichever
// master currently runs them and disables re-arming.
func (c *Cluster) StartDuties(heartbeat, janitor time.Duration) (stop func()) {
	m := c.ActiveMaster()
	c.dutyMu.Lock()
	c.dutyHB, c.dutyJanitor = heartbeat, janitor
	c.armDutiesLocked(m)
	c.dutyMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.dutyMu.Lock()
			stops := c.dutyStops
			c.dutyStops = nil
			c.dutyHB, c.dutyJanitor = 0, 0
			c.dutyMu.Unlock()
			for _, s := range stops {
				s()
			}
		})
	}
}

// StopStandbys ends every standby watch loop (for orderly shutdown; a
// standby that already took over has exited its loop on its own).
func (c *Cluster) StopStandbys() {
	for _, s := range c.standbyStops {
		s()
	}
}

// CrashMaster kills the active master's process: its host drops off the
// network and ZooKeeper expires its session, which deletes the ephemeral
// leader node and fires every standby's watch. From that instant takeover is
// automatic — no test or operator involvement. The crashed master object
// survives as a zombie: reviving its host and calling coordination methods
// on it is how tests prove master-epoch fencing holds.
func (c *Cluster) CrashMaster() (*Master, error) {
	m := c.ActiveMaster()
	if err := c.Net.SetDown(m.Host(), true); err != nil {
		return nil, err
	}
	c.ZK.ExpireSession(m.zsess())
	return m, nil
}

// Hosts lists the region-server host names in boot order.
func (c *Cluster) Hosts() []string {
	out := make([]string, len(c.Servers))
	for i, rs := range c.Servers {
		out[i] = rs.Host()
	}
	return out
}

// NewClient opens a client on this cluster.
func (c *Cluster) NewClient(opts ...ClientOption) *Client {
	return NewClient(c.Name, c.Net, c.ZK, opts...)
}

// Server returns the region server running on host, or nil.
func (c *Cluster) Server(host string) *RegionServer {
	for _, rs := range c.Servers {
		if rs.Host() == host {
			return rs
		}
	}
	return nil
}

// CrashServer simulates a region-server process death: the host drops off
// the network, every hosted region loses its MemStore (the WAL, standing in
// for HDFS, survives the crash), and the process's in-memory region map is
// gone with it. Recovery happens when the master's next heartbeat round
// (CheckServers) detects the death and reassigns the regions.
func (c *Cluster) CrashServer(host string) error {
	rs := c.Server(host)
	if rs == nil {
		return fmt.Errorf("hbase: no region server on host %q", host)
	}
	if err := c.Net.SetDown(host, true); err != nil {
		return err
	}
	for _, r := range rs.Regions() {
		r.DropMemStore()
		info := r.Info()
		rs.RemoveRegion(regionKey(info.ID, info.Replica))
	}
	return nil
}

// PartitionMode selects which side of a region server's traffic a simulated
// network partition severs.
type PartitionMode int

const (
	// PartitionFromMaster cuts only master↔server traffic: the master's
	// heartbeats fail, so it declares the server dead and reassigns its
	// regions — while clients can still reach the isolated server. This is
	// the zombie scenario epoch fencing exists for.
	PartitionFromMaster PartitionMode = iota
	// PartitionFromClients cuts everything except master↔server traffic:
	// the master still sees a healthy server, but clients cannot reach it
	// and must ride out the partition on retries.
	PartitionFromClients
	// PartitionTotal cuts all traffic to the server without killing the
	// process: unlike CrashServer, MemStore and the region map survive, so
	// healing restores a fully live (if stale) server.
	PartitionTotal
)

// PartitionServer installs fault-injection rules that sever one side of a
// region server's network per mode. Rules are added to the network's
// current injector when one is installed (composing with a chaos schedule
// without disturbing its seeded RNG — partition drops are deterministic),
// or to a fresh injector otherwise. HealPartition reverses it.
func (c *Cluster) PartitionServer(host string, mode PartitionMode) error {
	if c.Server(host) == nil {
		return fmt.Errorf("hbase: no region server on host %q", host)
	}
	inj := c.Net.Injector()
	if inj == nil {
		inj = rpc.NewFaultInjector(1)
		c.Net.SetFaultInjector(inj)
	}
	var rules []*rpc.FaultRule
	switch mode {
	case PartitionFromMaster:
		rules = []*rpc.FaultRule{{Host: host, Caller: c.ActiveMaster().Host(), Drop: true}}
	case PartitionFromClients:
		rules = []*rpc.FaultRule{{Host: host, ExceptCaller: c.ActiveMaster().Host(), Drop: true}}
	case PartitionTotal:
		rules = []*rpc.FaultRule{{Host: host, Drop: true}}
	default:
		return fmt.Errorf("hbase: unknown partition mode %d", mode)
	}
	for _, r := range rules {
		inj.Add(r)
	}
	c.partMu.Lock()
	c.partitions[host] = append(c.partitions[host], rules...)
	c.partMu.Unlock()
	c.Meter.Inc(metrics.PartitionsInjected)
	return nil
}

// HealPartition removes every partition rule previously installed for host.
// Healing a host that was never partitioned is a no-op.
func (c *Cluster) HealPartition(host string) {
	c.partMu.Lock()
	rules := c.partitions[host]
	delete(c.partitions, host)
	c.partMu.Unlock()
	if len(rules) == 0 {
		return
	}
	if inj := c.Net.Injector(); inj != nil {
		for _, r := range rules {
			inj.Remove(r)
		}
	}
	c.Meter.Inc(metrics.PartitionsHealed)
}
