package hbase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/ops"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// ErrNotServing reports a request for a region the server does not host —
// the client's signal that its meta cache is stale (region split, moved by
// the balancer, or reassigned after failover).
var ErrNotServing = errors.New("hbase: region not served here")

// ErrFenced reports a request rejected by epoch fencing: either the caller
// routed with a stale ownership epoch (its meta cache predates a
// reassignment), or the serving side itself is fenced — a self-fenced server
// whose master lease expired, or a zombie whose region was superseded.
// Clients treat it exactly like ErrNotServing: invalidate caches, re-locate,
// retry.
var ErrFenced = errors.New("hbase: fenced by region ownership epoch")

// TokenValidator authenticates a request token; nil means the cluster is
// insecure and every request is accepted.
type TokenValidator func(token string) error

// RegionServer hosts a set of regions and serves data RPCs for them
// (paper §III-B). One region server maps to one simulated host.
type RegionServer struct {
	host     string
	meter    *metrics.Registry
	validate TokenValidator
	// journal receives the server's lifecycle events (self-fencing,
	// memstore backpressure); nil swallows them.
	journal atomic.Pointer[ops.Journal]
	// maxMasterEpoch is the highest master fencing epoch any heartbeat has
	// carried. Probes stamped with an older epoch come from a deposed master
	// and are rejected, so a zombie master cannot keep this server's lease
	// alive (defense in depth behind the master's own fenceCheck).
	maxMasterEpoch atomic.Uint64

	admMu sync.RWMutex
	adm   *admission
	// limits is the full ServerLimits last installed — kept separately from
	// the admission gate because the memstore watermarks apply even when
	// MaxInFlight is unset (no in-flight gate).
	limits ServerLimits
	// holdFlush freezes watermark-driven flushes (test hook): simulated
	// flushes are instantaneous, so without a way to stall them memstore
	// pressure could never accumulate deterministically.
	holdFlush bool
	// bpActive edge-detects memstore backpressure so the journal records one
	// event per episode rather than one per rejected write.
	bpActive bool

	// onBatchApplied, when set, observes every stamped batch the moment a
	// region reports it actually applied (not deduplicated) — the seam
	// exactly-once property tests count double-applies through.
	hookMu         sync.RWMutex
	onBatchApplied func(writer string, seq uint64, regionID string)

	// Self-fencing lease state: with a positive lease, the server refuses
	// writes (and reads, when fenceReads) once it has gone lease-long
	// without a master heartbeat — a partitioned server stops serving
	// before the master can have reassigned its regions.
	leaseMu    sync.Mutex
	lease      time.Duration
	fenceReads bool
	lastBeat   time.Time
	fencedNow  bool // edge-detect, so the transition is metered once

	mu      sync.RWMutex
	regions map[string]*Region
}

// NewRegionServer creates a server on host and registers its RPC handlers.
func NewRegionServer(host string, net *rpc.Network, meter *metrics.Registry, validate TokenValidator) (*RegionServer, error) {
	rs := &RegionServer{host: host, meter: meter, validate: validate, regions: make(map[string]*Region)}
	if err := net.AddHost(host); err != nil {
		return nil, err
	}
	// Data RPCs pass the admission gate; Ping does not (see handlePing).
	for method, h := range map[string]rpc.Handler{
		MethodMultiPut: rs.admitted(rs.handleMultiPut),
		MethodBulkLoad: rs.admitted(rs.handleBulkLoad),
		MethodFused:    rs.admitted(rs.handleFused),
		MethodPing:     rs.handlePing,
	} {
		if err := net.Handle(host, method, h); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// SetJournal installs the cluster event journal this server emits lifecycle
// events into (normally propagated by the master); nil disables emission.
func (rs *RegionServer) SetJournal(j *ops.Journal) { rs.journal.Store(j) }

// jrn returns the installed journal (nil appends are no-ops).
func (rs *RegionServer) jrn() *ops.Journal { return rs.journal.Load() }

// SetLimits installs (or, with the zero value, removes) admission control and
// memstore watermarks on this server's data RPCs. The in-flight gate needs a
// positive MaxInFlight; the watermarks stand on their own.
func (rs *RegionServer) SetLimits(limits ServerLimits) {
	rs.admMu.Lock()
	defer rs.admMu.Unlock()
	rs.limits = limits
	if limits.MaxInFlight <= 0 {
		rs.adm = nil
		return
	}
	rs.adm = newAdmission(limits, rs.meter)
}

func (rs *RegionServer) admissionGate() *admission {
	rs.admMu.RLock()
	defer rs.admMu.RUnlock()
	return rs.adm
}

func (rs *RegionServer) serverLimits() ServerLimits {
	rs.admMu.RLock()
	defer rs.admMu.RUnlock()
	return rs.limits
}

// HoldFlushes freezes (or resumes) watermark-driven memstore flushes — the
// deterministic stand-in for slow flush I/O that lets tests build real
// memstore pressure despite instantaneous simulated flushes.
func (rs *RegionServer) HoldFlushes(hold bool) {
	rs.admMu.Lock()
	defer rs.admMu.Unlock()
	rs.holdFlush = hold
}

func (rs *RegionServer) flushesHeld() bool {
	rs.admMu.RLock()
	defer rs.admMu.RUnlock()
	return rs.holdFlush
}

// SetBatchAppliedHook registers fn to observe every stamped batch a hosted
// region actually applies (deduplicated retries do not fire it) — the seam
// exactly-once property tests count double-applies through. nil removes it.
func (rs *RegionServer) SetBatchAppliedHook(fn func(writer string, seq uint64, regionID string)) {
	rs.hookMu.Lock()
	defer rs.hookMu.Unlock()
	rs.onBatchApplied = fn
}

func (rs *RegionServer) notifyBatchApplied(writer string, seq uint64, regionID string) {
	rs.hookMu.RLock()
	fn := rs.onBatchApplied
	rs.hookMu.RUnlock()
	if fn != nil {
		fn(writer, seq, regionID)
	}
}

// MemstoreBytes reports the aggregate buffered bytes across every primary
// region this server hosts — the quantity the watermarks compare against.
func (rs *RegionServer) MemstoreBytes() int {
	rs.mu.RLock()
	regions := make([]*Region, 0, len(rs.regions))
	for _, r := range rs.regions {
		regions = append(regions, r)
	}
	rs.mu.RUnlock()
	n := 0
	for _, r := range regions {
		if !r.IsReplica() {
			n += r.MemBytes()
		}
	}
	return n
}

// flushLargestMemstore flushes the primary region holding the most buffered
// bytes — the flush-the-biggest policy HBase's global memstore pressure
// valve uses, freeing the most memory per flush.
func (rs *RegionServer) flushLargestMemstore() {
	if rs.flushesHeld() {
		return
	}
	rs.mu.RLock()
	var victim *Region
	most := 0
	for _, r := range rs.regions {
		if r.IsReplica() {
			continue
		}
		if b := r.MemBytes(); b > most {
			most, victim = b, r
		}
	}
	rs.mu.RUnlock()
	if victim != nil {
		victim.Flush()
	}
}

// checkMemstorePressure enforces the server-wide memstore watermarks on a
// write. Above the high watermark the largest memstore is flushed and, if
// the total is still over, the write is rejected with the retryable
// ErrMemstoreFull — the hard bound that keeps a burst from buffering
// unbounded memory. Between the watermarks the write is delayed (after a
// flush), pacing ingest to flush throughput instead of failing it.
func (rs *RegionServer) checkMemstorePressure(ctx context.Context) error {
	lim := rs.serverLimits()
	if lim.MemstoreLowWatermarkBytes <= 0 && lim.MemstoreHighWatermarkBytes <= 0 {
		return nil
	}
	total := rs.MemstoreBytes()
	if lim.MemstoreHighWatermarkBytes > 0 && total >= lim.MemstoreHighWatermarkBytes {
		rs.flushLargestMemstore()
		if rs.MemstoreBytes() >= lim.MemstoreHighWatermarkBytes {
			rs.meter.Inc(metrics.MemstoreRejects)
			rs.noteBackpressure(total)
			return fmt.Errorf("%w: %s at %d buffered bytes", ErrMemstoreFull, rs.host, total)
		}
		rs.clearBackpressure()
		return nil
	}
	rs.clearBackpressure()
	if lim.MemstoreLowWatermarkBytes > 0 && total >= lim.MemstoreLowWatermarkBytes {
		rs.flushLargestMemstore()
		rs.meter.Inc(metrics.MemstoreDelays)
		delay := lim.MemstoreDelay
		if delay <= 0 {
			delay = time.Millisecond
		}
		return rpc.SleepContext(ctx, delay)
	}
	return nil
}

// noteBackpressure journals the start of a memstore-backpressure episode:
// one event per transition into the rejecting state, not one per reject.
func (rs *RegionServer) noteBackpressure(total int) {
	rs.admMu.Lock()
	fire := !rs.bpActive
	rs.bpActive = true
	rs.admMu.Unlock()
	if fire {
		rs.jrn().Append(ops.Event{
			Type: ops.EventMemstoreBackpressure, Server: rs.host,
			Detail: fmt.Sprintf("%d buffered bytes over high watermark", total),
		})
	}
}

// clearBackpressure ends the episode: the next reject journals again.
func (rs *RegionServer) clearBackpressure() {
	rs.admMu.Lock()
	rs.bpActive = false
	rs.admMu.Unlock()
}

// SetFencing installs (or, with lease <= 0, removes) the self-fencing lease.
// The lease clock starts now, as if a heartbeat had just arrived.
func (rs *RegionServer) SetFencing(lease time.Duration, fenceReads bool) {
	rs.leaseMu.Lock()
	defer rs.leaseMu.Unlock()
	rs.lease = lease
	rs.fenceReads = fenceReads
	rs.lastBeat = time.Now()
	rs.fencedNow = false
}

// SelfFenced reports whether the server's master lease has expired; the
// first observation of an expiry is metered as a self-fence transition.
func (rs *RegionServer) SelfFenced() bool {
	rs.leaseMu.Lock()
	defer rs.leaseMu.Unlock()
	if rs.lease <= 0 {
		return false
	}
	if time.Since(rs.lastBeat) <= rs.lease {
		return false
	}
	if !rs.fencedNow {
		rs.fencedNow = true
		rs.meter.Inc(metrics.ServerSelfFenced)
		rs.jrn().Append(ops.Event{
			Type: ops.EventServerFenced, Server: rs.host,
			Detail: "self-fenced: master lease expired",
		})
	}
	return true
}

// fenceReadsEnabled reports whether self-fencing extends to reads.
func (rs *RegionServer) fenceReadsEnabled() bool {
	rs.leaseMu.Lock()
	defer rs.leaseMu.Unlock()
	return rs.fenceReads
}

// heartbeat restarts the lease clock; arriving master traffic unfences.
func (rs *RegionServer) heartbeat() {
	rs.leaseMu.Lock()
	defer rs.leaseMu.Unlock()
	rs.lastBeat = time.Now()
	rs.fencedNow = false
}

// checkWriteFence gates a write RPC on the self-fencing lease.
func (rs *RegionServer) checkWriteFence() error {
	if rs.SelfFenced() {
		rs.meter.Inc(metrics.FencedRejects)
		return fmt.Errorf("%w: %s self-fenced, master lease expired", ErrFenced, rs.host)
	}
	return nil
}

// checkReadFence gates a read RPC: only when FenceReads is configured.
func (rs *RegionServer) checkReadFence() error {
	if rs.fenceReadsEnabled() && rs.SelfFenced() {
		rs.meter.Inc(metrics.FencedRejects)
		return fmt.Errorf("%w: %s self-fenced, master lease expired", ErrFenced, rs.host)
	}
	return nil
}

// admitted wraps a data handler with the admission gate: bounded in-flight
// RPCs, a bounded wait queue, and ErrServerBusy shedding beyond both.
func (rs *RegionServer) admitted(h rpc.Handler) rpc.Handler {
	return func(ctx context.Context, req rpc.Message) (rpc.Message, error) {
		adm := rs.admissionGate()
		if err := adm.enter(ctx); err != nil {
			return nil, err
		}
		defer adm.leave()
		if adm != nil {
			// Simulated service time is spent holding the slot — that is
			// what lets concurrent load saturate a bounded server.
			if err := rpc.SleepContext(ctx, adm.limits.ServiceTime); err != nil {
				return nil, err
			}
		}
		return h(ctx, req)
	}
}

// Host returns the server's host name.
func (rs *RegionServer) Host() string { return rs.host }

// AddRegion places a region on this server, rebinding its meta host — the
// hbase:meta update clients observe after a balance or a failover
// reassignment.
func (rs *RegionServer) AddRegion(r *Region) {
	id := r.setHost(rs.host)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.regions[id] = r
}

// RemoveRegion takes a region off this server and returns it (nil if not
// hosted here).
func (rs *RegionServer) RemoveRegion(id string) *Region {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r := rs.regions[id]
	delete(rs.regions, id)
	return r
}

// Region returns the hosted region with the given id, or nil.
func (rs *RegionServer) Region(id string) *Region {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.regions[id]
}

// RegionCount reports how many regions the server hosts.
func (rs *RegionServer) RegionCount() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return len(rs.regions)
}

// OnlineRegions lists the IDs of the regions this server currently serves,
// sorted — the set a failover rebuilds when reassigning a dead server's
// load.
func (rs *RegionServer) OnlineRegions() []string {
	infos := rs.RegionInfos()
	out := make([]string, len(infos))
	for i := range infos {
		out[i] = infos[i].ID
	}
	return out
}

// Regions lists the hosted region objects (used by a recovering master to
// rebuild its meta state).
func (rs *RegionServer) Regions() []*Region {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]*Region, 0, len(rs.regions))
	for _, r := range rs.regions {
		out = append(out, r)
	}
	return out
}

// RegionInfos lists the hosted regions.
func (rs *RegionServer) RegionInfos() []RegionInfo {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]RegionInfo, 0, len(rs.regions))
	for _, r := range rs.regions {
		out = append(out, r.Info())
	}
	sortRegions(out)
	return out
}

func (rs *RegionServer) auth(token string) error {
	if rs.validate == nil {
		return nil
	}
	return rs.validate(token)
}

// regionFor resolves a hosted copy of a region and checks the caller's
// routing epoch against the one this server holds. Epoch 0 skips the check
// (legacy callers that bypass the meta cache). A lower caller epoch means a
// stale client cache; a higher one means this server itself is the stale
// party — a zombie still holding a region the master has reassigned — so it
// drops the region on the spot rather than double-serve it.
//
// replica > 0 addresses a secondary copy, the timeline-read failover path.
// Secondary lookups skip epoch checks entirely: a replica is expected to
// lag the primary's ownership changes, and the read was already promised
// to be possibly stale.
func (rs *RegionServer) regionFor(id string, epoch uint64, replica int) (*Region, error) {
	r := rs.Region(regionKey(id, replica))
	if r == nil {
		return nil, fmt.Errorf("%w: %q on %s", ErrNotServing, regionKey(id, replica), rs.host)
	}
	if replica > 0 {
		rs.meter.Inc(metrics.ReplicaReads)
		return r, nil
	}
	if epoch == 0 {
		return r, nil
	}
	held := r.Epoch()
	if epoch == held {
		return r, nil
	}
	rs.meter.Inc(metrics.FencedRejects)
	if epoch > held {
		rs.RemoveRegion(id)
		rs.meter.Inc(metrics.RegionsFenced)
		return nil, fmt.Errorf("%w: %q on %s holds epoch %d, caller knows %d (superseded)", ErrFenced, id, rs.host, held, epoch)
	}
	return nil, fmt.Errorf("%w: %q on %s at epoch %d, caller routed with stale epoch %d", ErrFenced, id, rs.host, held, epoch)
}

// handlePing answers the master's heartbeat. Heartbeats are cluster-internal
// liveness traffic, not client requests, so they bypass token auth the way
// HBase's own server-to-server RPCs use a separate trust path.
func (rs *RegionServer) handlePing(_ context.Context, req rpc.Message) (rpc.Message, error) {
	p, ok := req.(Ping)
	if !ok {
		return nil, fmt.Errorf("hbase: %s: bad request type %T", MethodPing, req)
	}
	// Probes stamped with a master epoch participate in control-plane
	// fencing: once any probe has carried epoch E, probes below E come from
	// a deposed master and must not refresh the lease. Unstamped probes
	// (epoch 0, bare test traffic) bypass the check.
	if p.MasterEpoch > 0 {
		for {
			seen := rs.maxMasterEpoch.Load()
			if p.MasterEpoch < seen {
				rs.meter.Inc(metrics.FencedRejects)
				return nil, fmt.Errorf("%w: ping from deposed master %s at epoch %d, cluster at %d",
					ErrFenced, p.Master, p.MasterEpoch, seen)
			}
			if p.MasterEpoch == seen || rs.maxMasterEpoch.CompareAndSwap(seen, p.MasterEpoch) {
				break
			}
		}
	}
	rs.heartbeat()
	rs.meter.Inc(metrics.Heartbeats)
	return Ack{}, nil
}

func (rs *RegionServer) handleMultiPut(ctx context.Context, req rpc.Message) (rpc.Message, error) {
	m, ok := req.(*MultiPutRequest)
	if !ok {
		return nil, fmt.Errorf("hbase: %s: bad request type %T", MethodMultiPut, req)
	}
	if err := rs.auth(m.Token); err != nil {
		return nil, err
	}
	if err := rs.checkWriteFence(); err != nil {
		return nil, err
	}
	if err := rs.checkMemstorePressure(ctx); err != nil {
		return nil, err
	}
	// Apply every batch, returning the first error at the end: later batches
	// are not skipped because a retry of the whole request deduplicates the
	// stamped ones that did land, and an unstamped one rewrites the same
	// versions — finishing the pass costs nothing and narrows the retry to
	// genuinely unapplied batches.
	var firstErr error
	for i := range m.Batches {
		b := &m.Batches[i]
		r, err := rs.regionFor(b.RegionID, b.Epoch, 0)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied, err := r.PutBatchStamped(b.Writer, b.Seq, b.LowWater, b.Cells)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if applied && b.Writer != "" {
			rs.notifyBatchApplied(b.Writer, b.Seq, b.RegionID)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return Ack{}, nil
}

func (rs *RegionServer) handleBulkLoad(_ context.Context, req rpc.Message) (rpc.Message, error) {
	m, ok := req.(*BulkLoadRequest)
	if !ok {
		return nil, fmt.Errorf("hbase: %s: bad request type %T", MethodBulkLoad, req)
	}
	if err := rs.auth(m.Token); err != nil {
		return nil, err
	}
	if err := rs.checkWriteFence(); err != nil {
		return nil, err
	}
	// No memstore pressure check: bulk load bypasses the MemStore entirely,
	// which is the point of the path.
	r, err := rs.regionFor(m.RegionID, m.Epoch, 0)
	if err != nil {
		return nil, err
	}
	if err := r.BulkLoad(m.Cells); err != nil {
		return nil, err
	}
	return Ack{}, nil
}

// runScanTraced executes a region scan under a "region.scan" span tagged
// with the region and host, metering through the caller's scoped registry
// when the context carries one. Scans served by a secondary copy carry a
// "replica" tag so EXPLAIN ANALYZE can attribute stale rows. The scan body
// runs under a pprof "region" label (composing with the engine's
// query_fingerprint label carried in ctx), so a CPU profile scraped from
// the ops endpoint attributes scan time to regions and statements.
func (rs *RegionServer) runScanTraced(ctx context.Context, r *Region, s *Scan) []Result {
	var results []Result
	rs.traceScan(ctx, r, func(m metrics.Meter) {
		results = r.RunScanWith(s, m)
	}).SetAttr("rows", int64(len(results)))
	return results
}

// foldScanTraced is runScanTraced for the aggregate sink: the rows of s
// fold into f instead of coming back.
func (rs *RegionServer) foldScanTraced(ctx context.Context, r *Region, s *Scan, f *aggFold) error {
	var err error
	rs.traceScan(ctx, r, func(m metrics.Meter) {
		b := binding{cols: s.Columns, fold: f}
		err = r.foldScan(s, keys{}, &b, m)
	}).SetTag("sink", "aggregate")
	return err
}

// traceScan runs body under r's "region.scan" span and pprof label and
// returns the ended span for the caller's attributes.
func (rs *RegionServer) traceScan(ctx context.Context, r *Region, body func(m metrics.Meter)) *trace.Span {
	_, sp := trace.StartSpan(ctx, "region.scan")
	info := r.Info()
	sp.SetTag("region", info.ID)
	sp.SetTag("host", rs.host)
	if info.Replica > 0 {
		sp.SetTag("replica", fmt.Sprintf("%d", info.Replica))
	}
	pprof.Do(ctx, pprof.Labels("region", info.ID), func(ctx context.Context) {
		body(metrics.Scoped(ctx, rs.meter))
	})
	sp.End()
	return sp
}

// markStale tags a response served by secondary copy r: the rows may lag
// the primary, and StalenessMs is the explicit bound on that lag. The max
// survives across multiple ops on one page.
func markStale(resp *ScanResponse, r *Region) {
	resp.Stale = true
	if b := r.StalenessBound().Milliseconds(); b > resp.StalenessMs {
		resp.StalenessMs = b
	}
}

func (rs *RegionServer) handleFused(ctx context.Context, req rpc.Message) (rpc.Message, error) {
	m, ok := req.(*FusedRequest)
	if !ok {
		return nil, fmt.Errorf("hbase: %s: bad request type %T", MethodFused, req)
	}
	resp, err := rs.fusedPage(ctx, m)
	if err != nil {
		return nil, err
	}
	// Column-major packing happens strictly after the page's rows and
	// continuation cursor are final, so paging and mid-scan resume are
	// byte-identical to the row-major form.
	if m.Columnar {
		packColumnar(resp)
	}
	return resp, nil
}

// fusedPage walks the request's ops from its cursor. Each visited row goes
// to the page's sink: appended as a projected Result for a paged scan, or
// folded into the partials for an aggregate request (which has no row
// budget and returns only the partials).
func (rs *RegionServer) fusedPage(ctx context.Context, m *FusedRequest) (*ScanResponse, error) {
	if err := rs.auth(m.Token); err != nil {
		return nil, err
	}
	if err := rs.checkReadFence(); err != nil {
		return nil, err
	}
	if c := m.Cursor; c.Op < 0 || c.Op > len(m.Ops) || c.RowIdx < 0 || c.Sent < 0 ||
		(c.Op < len(m.Ops) && c.RowIdx > len(m.Ops[c.Op].Rows)) {
		return nil, fmt.Errorf("hbase: %s: cursor %+v out of range", MethodFused, m.Cursor)
	}
	meter := metrics.Scoped(ctx, rs.meter)
	resp := &ScanResponse{}
	var fold *aggFold
	if len(m.Aggs) > 0 {
		var err error
		if fold, err = newAggFold(m.Aggs, m.State); err != nil {
			return nil, err
		}
		meter.Inc(metrics.AggregateOps)
	}
	// room reports how many more rows fit in this page; -1 = unbounded. A
	// fold appends no rows, so it never runs out of room.
	room := func() int {
		if m.BatchLimit <= 0 {
			return -1
		}
		return m.BatchLimit - len(resp.Results)
	}
	for opIdx := m.Cursor.Op; opIdx < len(m.Ops); opIdx++ {
		// A cancelled caller (deadline, hedged-read loser) stops the fused
		// walk between ops instead of scanning regions nobody will read.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op := m.Ops[opIdx]
		// Within-op resume state applies only to the cursor's own op.
		cur := FusedCursor{}
		if opIdx == m.Cursor.Op {
			cur = m.Cursor
		}
		r, err := rs.regionFor(op.RegionID, op.Epoch, op.Replica)
		if err != nil {
			return nil, err
		}
		if op.Replica > 0 {
			markStale(resp, r)
		}
		if len(op.Rows) > 0 {
			// Point gets inherit the template's projection, filter, and
			// time options (HBase Gets carry filters too). One span covers
			// the whole op — a span per row would dwarf the work it times.
			_, sp := trace.StartSpan(ctx, "region.get")
			sp.SetTag("region", r.Info().ID)
			sp.SetTag("host", rs.host)
			if op.Replica > 0 {
				sp.SetTag("replica", fmt.Sprintf("%d", op.Replica))
			}
			s := Scan{Limit: 1}
			if op.Scan != nil {
				s.Columns, s.Filter = op.Scan.Columns, op.Scan.Filter
				s.MaxVersions, s.TimeRange = op.Scan.MaxVersions, op.Scan.TimeRange
			}
			// Every row of the op reads the same region: bind its columns
			// once.
			b := binding{cols: s.Columns, fold: fold}
			var got int64
			for ri := cur.RowIdx; ri < len(op.Rows); ri++ {
				if room() == 0 {
					resp.More = true
					resp.Next = FusedCursor{Op: opIdx, RowIdx: ri}
					sp.SetAttr("rows", got)
					sp.End()
					return resp, nil
				}
				point := keys{start: op.Rows[ri], point: true}
				if fold != nil {
					if err := r.foldScan(&s, point, &b, meter); err != nil {
						sp.End()
						return nil, err
					}
					continue
				}
				n := len(resp.Results)
				resp.Results = r.scanRows(&s, point, &b, meter, resp.Results)
				got += int64(len(resp.Results) - n)
			}
			sp.SetAttr("rows", got)
			sp.End()
			continue
		}
		if op.Scan == nil {
			return nil, fmt.Errorf("hbase: %s: op for region %q has neither scan nor rows", MethodFused, op.RegionID)
		}
		if room() == 0 {
			resp.More = true
			resp.Next = FusedCursor{Op: opIdx, Row: cur.Row, Sent: cur.Sent}
			return resp, nil
		}
		s := *op.Scan
		if cur.Row != nil {
			s.StartRow = cur.Row
		}
		// Remaining per-op limit after rows already sent in earlier pages.
		if op.Scan.Limit > 0 {
			left := op.Scan.Limit - cur.Sent
			if left <= 0 {
				continue
			}
			s.Limit = left
		}
		if fold != nil {
			if err := rs.foldScanTraced(ctx, r, &s, fold); err != nil {
				return nil, err
			}
			continue
		}
		// Clip to the page budget when it is tighter than the op's limit.
		pageBounded := false
		if rm := room(); rm > 0 && (s.Limit == 0 || s.Limit > rm) {
			s.Limit = rm
			pageBounded = true
		}
		results := rs.runScanTraced(ctx, r, &s)
		resp.Results = append(resp.Results, results...)
		if pageBounded && len(results) == s.Limit {
			// The op may hold more rows: stop here and hand back a cursor
			// resuming just past the last row returned — unless that row is
			// already past the op's range or the region's end, where the op
			// is done and a further page would come back empty.
			next := append(append([]byte(nil), results[len(results)-1].Row...), 0)
			if (s.StopRow != nil && bytes.Compare(next, s.StopRow) >= 0) ||
				(len(r.info.EndKey) > 0 && bytes.Compare(next, r.info.EndKey) >= 0) {
				continue
			}
			resp.More = true
			resp.Next = FusedCursor{Op: opIdx, Row: next, Sent: cur.Sent + len(results)}
			return resp, nil
		}
	}
	if fold != nil {
		resp.Aggs = fold.state
	}
	return resp, nil
}

// packColumnar repacks a page's row-major Results into a CellBlock when the
// transformation is lossless: at most one (latest) version per column per
// row. Multi-version rows keep the row-major form — the client decodes
// both.
func packColumnar(resp *ScanResponse) {
	results := resp.Results
	if len(results) == 0 {
		return
	}
	type colKey struct{ f, q string }
	var order []colKey
	index := make(map[colKey]int)
	for ri := range results {
		cells := results[ri].Cells
		for ci := range cells {
			c := &cells[ci]
			// Cells are ordered (family, qualifier, timestamp desc): a
			// duplicate column means multiple versions — not packable.
			if ci > 0 && cells[ci-1].Family == c.Family && cells[ci-1].Qualifier == c.Qualifier {
				return
			}
			// A nil entry in the block means "no cell"; an empty stored
			// value would be indistinguishable, so such pages stay row-major.
			if len(c.Value) == 0 {
				return
			}
			k := colKey{c.Family, c.Qualifier}
			if _, ok := index[k]; !ok {
				index[k] = len(order)
				order = append(order, k)
			}
		}
	}
	block := &CellBlock{
		Rows: make([][]byte, len(results)),
		Cols: make([]CellColumn, len(order)),
	}
	for i, k := range order {
		block.Cols[i] = CellColumn{Family: k.f, Qualifier: k.q, Values: make([][]byte, len(results))}
	}
	for ri := range results {
		block.Rows[ri] = results[ri].Row
		for ci := range results[ri].Cells {
			c := &results[ri].Cells[ci]
			block.Cols[index[colKey{c.Family, c.Qualifier}]].Values[ri] = c.Value
		}
	}
	resp.Block = block
	resp.Results = nil
}
