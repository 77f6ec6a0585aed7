package hbase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
	"github.com/shc-go/shc/internal/zk"
)

// ConnPool abstracts how the client obtains connections to hosts. The
// default pool dials a fresh connection per operation and closes it after —
// the naive behaviour whose cost SHC's connection cache removes. The
// conncache package provides the caching implementation.
type ConnPool interface {
	// Acquire returns a connection to host and a release function the
	// caller must invoke when done with it. ctx bounds connection
	// establishment; pooled implementations may ignore it on a cache hit.
	Acquire(ctx context.Context, host string) (*rpc.Conn, func(), error)
}

// HostBreaker is the per-host circuit breaker the client consults before
// each call (conncache.Breaker implements it). Allow gates the call; Record
// reports its outcome, where transportFailure is true only for
// transport-level errors — application errors (stale region, shed request)
// say nothing about host health.
type HostBreaker interface {
	Allow(host string) bool
	Record(host string, transportFailure bool)
}

// TokenProvider supplies the security token attached to every request sent
// to a cluster. A nil provider sends empty tokens (insecure clusters).
type TokenProvider interface {
	Token(cluster string) (string, error)
}

// dialPool is the no-cache ConnPool.
type dialPool struct{ net *rpc.Network }

func (p dialPool) Acquire(ctx context.Context, host string) (*rpc.Conn, func(), error) {
	conn, err := p.net.DialContext(ctx, host)
	if err != nil {
		return nil, nil, err
	}
	return conn, func() { _ = conn.Close() }, nil
}

// NewDialPool returns a ConnPool that dials per acquisition.
func NewDialPool(net *rpc.Network) ConnPool { return dialPool{net: net} }

// Client is the HBase client: it discovers the master through ZooKeeper,
// caches region locations, and issues data RPCs to region servers.
type Client struct {
	clusterName string
	net         *rpc.Network
	zkSess      *zk.Session
	pool        ConnPool
	tokens      TokenProvider
	retry       RetryPolicy
	breaker     HostBreaker
	hedgeDelay  time.Duration

	retryMu  sync.Mutex
	retryRng *rand.Rand // jitter source, guarded by retryMu

	mu         sync.Mutex
	masterHost string
	regions    map[string]*RegionMap // table -> current snapshot
	// stale holds the last-known region map of each invalidated table
	// until its next refresh, so the refresh can spot hosts that no longer
	// serve any region and evict their pooled connections too — a cached
	// connection to a fully-drained host would otherwise outlive the
	// routing information that justified it.
	stale map[string]*RegionMap
}

// ClientOption customizes a client.
type ClientOption func(*Client)

// WithConnPool sets the connection pool (e.g. the caching pool).
func WithConnPool(p ConnPool) ClientOption { return func(c *Client) { c.pool = p } }

// WithTokenProvider sets the credential source for secure clusters.
func WithTokenProvider(tp TokenProvider) ClientOption { return func(c *Client) { c.tokens = tp } }

// WithRetryPolicy overrides the client's retry behaviour (zero fields fall
// back to defaults).
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) {
		c.retry = p.withDefaults()
		c.retryRng = rand.New(rand.NewSource(c.retry.JitterSeed))
	}
}

// WithBreaker installs a per-host circuit breaker in front of every call.
// While a host's circuit is open, calls to it fail fast with an error
// wrapping rpc.ErrHostDown, so the existing retry/failover machinery treats
// the host as unreachable without spending a connection or an RPC on it.
func WithBreaker(b HostBreaker) ClientOption { return func(c *Client) { c.breaker = b } }

// WithHedgedReads makes read-only region RPCs (the fused pages every scan
// and get travels in) fire a speculative duplicate when the first try is
// still unanswered after delay. The first response wins; the loser's context
// is cancelled. Writes never hedge. delay <= 0 disables hedging.
func WithHedgedReads(delay time.Duration) ClientOption {
	return func(c *Client) { c.hedgeDelay = delay }
}

// NewClient opens a client against a cluster's network and ZooKeeper.
func NewClient(clusterName string, net *rpc.Network, zkSrv *zk.Server, opts ...ClientOption) *Client {
	c := &Client{
		clusterName: clusterName,
		net:         net,
		zkSess:      zkSrv.NewSession(),
		regions:     make(map[string]*RegionMap),
		stale:       make(map[string]*RegionMap),
		retry:       RetryPolicy{}.withDefaults(),
	}
	c.retryRng = rand.New(rand.NewSource(c.retry.JitterSeed))
	c.pool = NewDialPool(net)
	for _, o := range opts {
		o(c)
	}
	return c
}

// ClusterName identifies the cluster this client talks to (used as the
// token scope).
func (c *Client) ClusterName() string { return c.clusterName }

// Close releases the client's coordination session.
func (c *Client) Close() { c.zkSess.Close() }

func (c *Client) token() (string, error) {
	if c.tokens == nil {
		return "", nil
	}
	return c.tokens.Token(c.clusterName)
}

// ErrNoMaster reports that the coordination service currently knows no
// elected master — the masterless window between a leader's death and a
// standby's takeover. It is retryable: the window closes as soon as a
// standby wins the election.
var ErrNoMaster = errors.New("hbase: no master elected")

func (c *Client) master() (string, error) {
	c.mu.Lock()
	host := c.masterHost
	c.mu.Unlock()
	if host != "" {
		return host, nil
	}
	leader, err := c.zkSess.Leader(zkMasterPath)
	if err != nil {
		return "", err
	}
	if leader == "" {
		return "", ErrNoMaster
	}
	c.mu.Lock()
	c.masterHost = leader
	c.mu.Unlock()
	return leader, nil
}

// connInvalidator is implemented by pools (conncache.Cache) that can evict
// a cached connection after a transport failure.
type connInvalidator interface {
	Invalidate(host string)
}

// recordBreaker reports a call outcome to the breaker. Context errors are
// skipped entirely: a cancelled caller (deadline, hedged-read loser) says
// nothing about the host, and counting it either way would both poison the
// failure count and mask real streaks.
func (c *Client) recordBreaker(host string, err error) {
	if c.breaker == nil {
		return
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return
	}
	transport := err != nil && (errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrConnClosed))
	c.breaker.Record(host, transport)
}

func (c *Client) call(ctx context.Context, host, method string, req rpc.Message) (rpc.Message, error) {
	if c.breaker != nil && !c.breaker.Allow(host) {
		// Fail fast without touching the wire. Wrapping ErrHostDown routes
		// the error through the same retry/failover paths a real outage
		// takes; the breaker's cooldown governs when probes resume.
		return nil, fmt.Errorf("%w: %q (circuit open)", rpc.ErrHostDown, host)
	}
	conn, release, err := c.pool.Acquire(ctx, host)
	if err != nil {
		c.recordBreaker(host, err)
		return nil, err
	}
	resp, err := conn.CallContext(ctx, method, req)
	release()
	if err != nil && (errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrConnClosed)) {
		// A caching pool would otherwise keep handing out this connection
		// even after the host recovers; drop it so the next checkout
		// re-dials.
		if inv, ok := c.pool.(connInvalidator); ok {
			inv.Invalidate(host)
		}
	}
	c.recordBreaker(host, err)
	return resp, err
}

// callRead issues a read-only region RPC with optional hedging: when the
// first try is still unanswered after the hedge delay, a speculative
// duplicate fires and the first response wins; the loser's context is
// cancelled so it abandons queues, latency sleeps, and fused scans
// promptly. Reads are idempotent, so the duplicate is safe — writes go
// through call directly.
func (c *Client) callRead(ctx context.Context, host, method string, req rpc.Message) (rpc.Message, error) {
	if c.hedgeDelay <= 0 {
		return c.call(ctx, host, method, req)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		resp   rpc.Message
		err    error
		hedged bool
	}
	meter := metrics.Scoped(ctx, c.net.Meter())
	// Buffered to both launches: the loser's send never blocks, so its
	// goroutine exits even though nobody reads the second result.
	ch := make(chan result, 2)
	// Each attempt gets its own span so the waterfall shows the race: the
	// winner is tagged, the loser is marked cancelled — a lost hedge is an
	// abandoned duplicate, not a failure and never a win.
	launch := func(hedged bool) *trace.Span {
		name := "hedge.primary"
		if hedged {
			name = "hedge.speculative"
		}
		lctx, sp := trace.StartSpan(hctx, name)
		go func() {
			resp, err := c.call(lctx, host, method, req)
			sp.SetError(err)
			sp.End()
			ch <- result{resp: resp, err: err, hedged: hedged}
		}()
		return sp
	}
	primarySp := launch(false)
	var hedgeSp *trace.Span
	timer := time.NewTimer(c.hedgeDelay)
	defer timer.Stop()
	outstanding, hedgeFired := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedgeFired {
				hedgeFired = true
				outstanding++
				meter.Inc(metrics.RPCHedges)
				hedgeSp = launch(true)
			}
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if hedgeFired {
					winner, loser := primarySp, hedgeSp
					if r.hedged {
						winner, loser = hedgeSp, primarySp
					}
					winner.SetTag("hedge", "won")
					loser.MarkCancelled()
				}
				if r.hedged {
					meter.Inc(metrics.RPCHedgeWins)
				}
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding == 0 {
				// Primary failed before the hedge fired (errors return
				// immediately — a failure is not a straggler), or both
				// attempts failed.
				return nil, firstErr
			}
		}
	}
}

// ReadFreshness reports whether any part of a read was served by a
// secondary replica (a timeline failover) and, if so, the largest explicit
// staleness bound the serving replicas attached.
type ReadFreshness struct {
	Stale   bool
	BoundMs int64
}

func (f *ReadFreshness) absorb(resp *ScanResponse) {
	if f == nil || !resp.Stale {
		return
	}
	f.Stale = true
	if resp.StalenessMs > f.BoundMs {
		f.BoundMs = resp.StalenessMs
	}
}

// callMaster sends a meta request to the current master, riding out a master
// failover under the client's retry policy — how clients survive the
// master-failover mechanism of the paper's §VI-B. Two failure shapes recur
// until a standby finishes taking over: the cached leader stops answering
// (invalidate it, re-read the election, count a rediscovery), and the
// election is empty (ErrNoMaster — back off and re-read, instead of failing
// the caller during a window that closes by itself). Non-transient errors
// return immediately.
func (c *Client) callMaster(ctx context.Context, method string, req rpc.Message) (rpc.Message, error) {
	meter := metrics.Scoped(ctx, c.net.Meter())
	var err error
	for attempt := 1; ; attempt++ {
		var host string
		host, err = c.master()
		if err == nil {
			var resp rpc.Message
			resp, err = c.call(ctx, host, method, req)
			if err == nil || !isUnreachable(err) {
				return resp, err
			}
			// The leader we knew stopped answering: drop the cached host so
			// the next attempt re-reads the election from the coordination
			// service (a rediscovery).
			c.mu.Lock()
			if c.masterHost == host {
				c.masterHost = ""
			}
			c.mu.Unlock()
		} else if !errors.Is(err, ErrNoMaster) {
			return nil, err
		}
		if attempt >= c.retry.MaxAttempts {
			return nil, err
		}
		meter.Inc(metrics.MasterRediscoveries)
		if perr := c.backoff(ctx, attempt); perr != nil {
			return nil, perr
		}
	}
}

func isUnreachable(err error) bool {
	return errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrUnknownHost) || errors.Is(err, rpc.ErrConnClosed)
}

// CreateTable creates a table pre-split at splitKeys.
func (c *Client) CreateTable(desc TableDescriptor, splitKeys [][]byte) error {
	tok, err := c.token()
	if err != nil {
		return err
	}
	_, err = c.callMaster(context.Background(), MethodCreateTable, &CreateTableRequest{Desc: desc, SplitKeys: splitKeys, Token: tok})
	return err
}

// DeleteTable drops a table.
func (c *Client) DeleteTable(name string) error {
	tok, err := c.token()
	if err != nil {
		return err
	}
	if _, err = c.callMaster(context.Background(), MethodDeleteTable, &TableRequest{Table: name, Token: tok}); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.regions, name)
	c.mu.Unlock()
	return nil
}

// ListTables names every table in the cluster.
func (c *Client) ListTables() ([]string, error) {
	tok, err := c.token()
	if err != nil {
		return nil, err
	}
	resp, err := c.callMaster(context.Background(), MethodListTables, &TableRequest{Token: tok})
	if err != nil {
		return nil, err
	}
	return resp.(*TableNames).Names, nil
}

// TableStats fetches a table's aggregate storage statistics from the
// master.
func (c *Client) TableStats(table string) (TableStats, error) {
	tok, err := c.token()
	if err != nil {
		return TableStats{}, err
	}
	resp, err := c.callMaster(context.Background(), MethodTableStats, &TableRequest{Table: table, Token: tok})
	if err != nil {
		return TableStats{}, err
	}
	return resp.(TableStats), nil
}

// Regions returns the table's regions in key order, from the client's meta
// cache when warm.
func (c *Client) Regions(table string) ([]RegionInfo, error) {
	m, err := c.RegionMap(context.Background(), table)
	if err != nil {
		return nil, err
	}
	return m.Regions(), nil
}

// RegionMap returns the table's current region-map snapshot, from the meta
// cache when warm; ctx governs the meta RPC on a miss. The snapshot never
// changes: invalidation replaces the cached map, so a caller grouping one
// batch against it sees one consistent set of boundaries.
func (c *Client) RegionMap(ctx context.Context, table string) (*RegionMap, error) {
	c.mu.Lock()
	cached, ok := c.regions[table]
	c.mu.Unlock()
	if ok {
		return cached, nil
	}
	return c.refreshRegions(ctx, table)
}

func (c *Client) refreshRegions(ctx context.Context, table string) (*RegionMap, error) {
	tok, err := c.token()
	if err != nil {
		return nil, err
	}
	resp, err := c.callMaster(ctx, MethodTableRegions, &TableRequest{Table: table, Token: tok})
	if err != nil {
		return nil, err
	}
	fresh := NewRegionMap(resp.(*RegionList).Regions)
	c.mu.Lock()
	prior := c.stale[table]
	delete(c.stale, table)
	c.regions[table] = fresh
	// Hosts the invalidated map pointed at that no cached table references
	// any more have no reason to stay in the connection pool: evict them so
	// the next call to a drained-and-restarted host re-dials instead of
	// reusing a connection from its previous life.
	var gone []string
	if prior != nil {
		live := make(map[string]bool)
		for _, cached := range c.regions {
			for _, ri := range cached.regions {
				live[ri.Host] = true
			}
		}
		seen := make(map[string]bool)
		for _, ri := range prior.regions {
			if h := ri.Host; !live[h] && !seen[h] {
				seen[h] = true
				gone = append(gone, h)
			}
		}
	}
	c.mu.Unlock()
	if inv, ok := c.pool.(connInvalidator); ok {
		for _, h := range gone {
			inv.Invalidate(h)
		}
	}
	return fresh, nil
}

// InvalidateRegions drops the cached region map for table (after splits,
// balancing, failover reassignment, or a drain move regions). The dropped
// map is remembered until the next refresh, which evicts pooled connections
// to hosts that turn out to serve nothing. Snapshots already handed out stay
// intact.
func (c *Client) InvalidateRegions(table string) {
	c.mu.Lock()
	if cached, ok := c.regions[table]; ok {
		c.stale[table] = cached
	}
	delete(c.regions, table)
	c.mu.Unlock()
}

func cellRow(c *Cell) []byte { return c.Row }

// Put writes cells: one unstamped MultiPut per region server the cells
// touch, through the same delivery round a BufferedMutator flush takes.
// Stale region locations are refreshed and the failed servers' pieces
// retried under the client's retry policy.
func (c *Client) Put(table string, cells []Cell) error {
	return c.PutContext(context.Background(), table, cells)
}

// PutContext is Put bounded by ctx. Writes never hedge: a duplicated put is
// not idempotent against versioned cells.
func (c *Client) PutContext(ctx context.Context, table string, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	return c.deliver(ctx, table, "", []*pendingBatch{{cells: cells}}, c.NewRetryBudget(table), nil)
}

// BulkLoad installs cells directly as sorted store files, bypassing the WAL
// and MemStore — the client side of HBase's completebulkload. The client
// carves the cells into per-region runs, sorts each, and each region
// installs its run as one immutable store file. A retried run that already
// landed re-installs identical cells, which version resolution collapses, so
// the call is safe to retry after partial failure.
func (c *Client) BulkLoad(table string, cells []Cell) error {
	return c.BulkLoadContext(context.Background(), table, cells)
}

// BulkLoadContext is BulkLoad bounded by ctx.
func (c *Client) BulkLoadContext(ctx context.Context, table string, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	tok, err := c.token()
	if err != nil {
		return err
	}
	for retry := c.NewRetryBudget(table); ; {
		err := c.bulkLoadOnce(ctx, table, tok, cells)
		if err == nil {
			return nil
		}
		if err = retry.Retry(ctx, err, nil); err != nil {
			return err
		}
	}
}

// bulkLoadOnce groups the cells against one region-map snapshot and sends
// each region its sorted run, in key order.
func (c *Client) bulkLoadOnce(ctx context.Context, table, tok string, cells []Cell) error {
	m, err := c.RegionMap(ctx, table)
	if err != nil {
		return err
	}
	groups, err := groupByRegion(m, cells, cellRow)
	if err != nil {
		return err
	}
	for _, g := range groups {
		ri, run := g.Region, g.Items
		// Each group is a private copy in input order, so sorting it
		// stably never reorders the caller's cells.
		sort.SliceStable(run, func(i, j int) bool { return CompareCells(&run[i], &run[j]) < 0 })
		if _, err := c.call(ctx, ri.Host, MethodBulkLoad, &BulkLoadRequest{RegionID: ri.ID, Epoch: ri.Epoch, Cells: run, Token: tok}); err != nil {
			return err
		}
	}
	return nil
}

// Get reads one row.
func (c *Client) Get(table string, row []byte, cols []Column, maxVersions int, tr TimeRange) (Result, error) {
	return c.GetContext(context.Background(), table, row, cols, maxVersions, tr)
}

// GetContext is Get bounded by ctx.
func (c *Client) GetContext(ctx context.Context, table string, row []byte, cols []Column, maxVersions int, tr TimeRange) (Result, error) {
	results, err := c.BulkGetContext(ctx, table, [][]byte{row}, cols, maxVersions, tr)
	if err != nil {
		return Result{}, err
	}
	if len(results) == 0 {
		return Result{Row: append([]byte(nil), row...)}, nil
	}
	return results[0], nil
}

// BulkGet fetches many rows, one fused RPC per same-host run of regions.
// Stale region locations are refreshed and retried under the client's retry
// policy.
func (c *Client) BulkGet(table string, rows [][]byte, cols []Column, maxVersions int, tr TimeRange) ([]Result, error) {
	return c.BulkGetContext(context.Background(), table, rows, cols, maxVersions, tr)
}

// BulkGetContext is BulkGet bounded by ctx; the per-region read RPCs hedge
// when hedged reads are enabled.
func (c *Client) BulkGetContext(ctx context.Context, table string, rows [][]byte, cols []Column, maxVersions int, tr TimeRange) ([]Result, error) {
	out, _, err := c.BulkGetFresh(ctx, table, rows, cols, maxVersions, tr)
	return out, err
}

// BulkGetFresh is BulkGetContext that additionally reports the read's
// freshness: whether any region's batch was answered by a secondary replica
// (only possible under WithConsistency(ctx, ConsistencyTimeline)) and the
// largest staleness bound attached. Strong reads always come back
// {Stale: false}. The rows are grouped against one region-map snapshot into
// one bulk-get op per region, read by a Pager; results come back grouped by
// region in key order.
func (c *Client) BulkGetFresh(ctx context.Context, table string, rows [][]byte, cols []Column, maxVersions int, tr TimeRange) ([]Result, ReadFreshness, error) {
	m, err := c.RegionMap(ctx, table)
	if err != nil {
		return nil, ReadFreshness{}, err
	}
	groups, err := groupByRegion(m, rows, func(r *[]byte) []byte { return *r })
	if err != nil {
		return nil, ReadFreshness{}, err
	}
	tmpl := &Scan{Columns: cols, MaxVersions: maxVersions, TimeRange: tr}
	ops := make([]ScanOp, len(groups))
	for i, g := range groups {
		ops[i] = ScanOp{RegionID: g.Region.ID, Epoch: g.Region.Epoch, Rows: g.Items, Scan: tmpl}
	}
	g := c.NewPager(table, "", FusedRequest{Ops: ops}, 0)
	out, err := g.all(ctx)
	if err != nil {
		return nil, ReadFreshness{}, err
	}
	return out, g.fresh, nil
}

// ScanTable scans the whole key range [scan.StartRow, scan.StopRow),
// visiting every overlapping region in key order and concatenating results.
func (c *Client) ScanTable(table string, scan *Scan) ([]Result, error) {
	return c.ScanTableContext(context.Background(), table, scan)
}

// ScanTableContext is ScanTable bounded by ctx: a drained Scanner whose pages
// are whole same-host runs of regions, so a failure resumes from the exact
// cursor instead of restarting the scan.
func (c *Client) ScanTableContext(ctx context.Context, table string, scan *Scan) ([]Result, error) {
	s, err := c.OpenScannerContext(ctx, table, scan, ScannerConfig{BatchSize: math.MaxInt})
	if err != nil {
		return nil, err
	}
	return s.All()
}

// ScanRegion scans exactly one region — the per-partition read path SHC's
// table-scan RDD uses.
func (c *Client) ScanRegion(ri RegionInfo, scan *Scan) ([]Result, error) {
	return c.ScanRegionContext(context.Background(), ri, scan)
}

// ScanRegionContext is ScanRegion bounded by ctx: one unpaged scan op on
// ri's host. A region that split after the caller read ri is remapped by
// its key range, and under timeline consistency an unreachable primary
// fails over to the region's replicas, so per-partition readers survive
// both. A fenced answer surfaces: ri's own epoch is stale.
func (c *Client) ScanRegionContext(ctx context.Context, ri RegionInfo, scan *Scan) ([]Result, error) {
	g := c.NewPager(ri.Table, ri.Host, FusedRequest{Ops: []ScanOp{{RegionID: ri.ID, Epoch: ri.Epoch, Scan: scan}}}, 0)
	g.home = &ri
	return g.all(ctx)
}

// FusedExecPage sends one page of a fused execution — every scan and get in
// req.Ops targets a region hosted on host, all in a single RPC (operators
// fusion). The server returns at most req.BatchLimit rows (0 = everything)
// starting at req.Cursor, plus — via More/Next on the response — the cursor
// for the following page; with req.Columnar set, a losslessly packable page
// comes back column-major in resp.Block instead of resp.Results. Paging
// keeps the per-response memory on both sides bounded by the batch size.
// FusedExecPage stamps req's Token.
func (c *Client) FusedExecPage(ctx context.Context, host string, req *FusedRequest) (*ScanResponse, error) {
	tok, err := c.token()
	if err != nil {
		return nil, err
	}
	req.Token = tok
	resp, err := c.callRead(ctx, host, MethodFused, req)
	if err != nil {
		return nil, err
	}
	return resp.(*ScanResponse), nil
}

// SplitRowRange clips the half-open range [start, stop) against a region
// and reports the intersection; ok is false when they do not overlap.
func SplitRowRange(ri *RegionInfo, start, stop []byte) (lo, hi []byte, ok bool) {
	if !ri.OverlapsRange(start, stop) {
		return nil, nil, false
	}
	lo = start
	if len(ri.StartKey) > 0 && (lo == nil || bytes.Compare(ri.StartKey, lo) > 0) {
		lo = ri.StartKey
	}
	hi = stop
	if len(ri.EndKey) > 0 && (hi == nil || bytes.Compare(ri.EndKey, hi) < 0) {
		hi = ri.EndKey
	}
	return lo, hi, true
}
