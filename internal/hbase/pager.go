package hbase

import (
	"context"
	"errors"
	"fmt"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/trace"
)

// Pager is the client's one read driver. Every read — a SQL partition's
// fused scan, Get and BulkGet, ScanRegion, a Scanner — is a list of ScanOps
// sent as fused RPCs (paper §VI-A.4): one contiguous same-host run of ops at
// a time, one page at a time. The pager owns the three policies a read needs
// when a page fails:
//
//   - resume: the continuation cursor marks the first row not yet returned,
//     so a re-sent page neither repeats nor drops rows;
//   - split-remap: an op whose region split or merged away is re-homed by
//     its remaining key range onto the fresh region map;
//   - timeline redirect: when refreshed meta still routes the lead op to the
//     host that just failed and the read is timeline-consistent, the run
//     goes to one of the region's secondary replicas.
//
// Hedging (callRead) and the host breaker (call) act per RPC beneath it.
type Pager struct {
	c     *Client
	table string
	// req is the page template (BatchLimit, Columnar, Aggs). Its Ops are the
	// ops not yet fully streamed, in original order; its Cursor the resume
	// position in the run being paged; its State the running partials of an
	// aggregate read, so each run starts from the partials the previous run
	// returned.
	req    FusedRequest
	host   string // host serving req.Ops[:prefix]; "" until routed
	prefix int    // length of the contiguous same-host run being paged
	limit  int    // rows owed across all pages (0 = no cap)
	sent   int
	// home is the region a ScanRegion read was addressed to. Its scan goes
	// out unclipped, so a remap first clips it to home's range; and a fenced
	// answer is final, because it says the caller's own routing is stale.
	home  *RegionInfo
	fresh ReadFreshness
	retry RetryBudget
	done  bool
	err   error
}

type pagerPage struct {
	resp *ScanResponse
	err  error
}

// NewPager starts a read of req.Ops on table. req is the page template:
// BatchLimit rows a page (0 = each run in one page), Columnar, and Aggs with
// their starting State. limit caps the rows across all pages (0 = no cap):
// each page asks for no more rows than are still owed, so the last page
// never over-fetches. host is where every op was planned; "" routes the ops
// by the cached region map before the first page.
func (c *Client) NewPager(table, host string, req FusedRequest, limit int) *Pager {
	g := &Pager{c: c, table: table, req: req, host: host, limit: limit,
		retry: c.NewRetryBudget(table), done: len(req.Ops) == 0}
	if host != "" {
		// Every op lives on host, so the first run is the whole list; runs
		// only fragment after a failover or a split.
		g.prefix = len(req.Ops)
	}
	return g
}

// Next returns the next page, or (nil, nil) once every op has streamed or
// the row cap is reached. A page may hold no rows. Errors stick.
func (g *Pager) Next(ctx context.Context) (*ScanResponse, error) {
	if g.err != nil {
		return nil, g.err
	}
	resp, err := g.fetch(ctx)
	g.err = err
	return resp, err
}

// Prefetch returns Next with double buffering: each call returns the page
// the previous call launched and launches the following one, so the
// caller's decode and the network overlap. Each launch is counted in meter.
// Pager state mutates only in the one fetch in flight, and a call launches
// the next fetch only after receiving the previous result, so access stays
// serial. The buffered channel lets the goroutine finish when the caller
// stops early. Reads that never prefetch call Next directly, which keeps
// their pager off the heap.
func (g *Pager) Prefetch(ctx context.Context, meter *metrics.Registry) func() (*ScanResponse, error) {
	var pending chan pagerPage
	return func() (*ScanResponse, error) {
		var pg pagerPage
		if pending != nil {
			pg = <-pending
			pending = nil
		} else {
			pg.resp, pg.err = g.Next(ctx)
		}
		if pg.err == nil && pg.resp != nil && !g.done {
			ch := make(chan pagerPage, 1)
			pending = ch
			metrics.Scoped(ctx, meter).Inc(metrics.PagesPrefetched)
			go func() {
				resp, err := g.Next(ctx)
				ch <- pagerPage{resp: resp, err: err}
			}()
		}
		return pg.resp, pg.err
	}
}

// all drains the pager into one result list.
func (g *Pager) all(ctx context.Context) ([]Result, error) {
	var out []Result
	for {
		resp, err := g.Next(ctx)
		if err != nil {
			return nil, err
		}
		if resp == nil {
			return out, nil
		}
		out = append(out, resp.Results...)
	}
}

// wrapErr annotates a terminal read error with where the stream stood —
// table, the region the cursor was walking, and the resume row — so a
// failure deep in a multi-region read reports its position.
func (g *Pager) wrapErr(err error) error {
	region := "?"
	if g.req.Cursor.Op >= 0 && g.req.Cursor.Op < g.prefix && g.req.Cursor.Op < len(g.req.Ops) {
		region = g.req.Ops[g.req.Cursor.Op].RegionID
	}
	return fmt.Errorf("hbase: read table=%q region=%s after-row=%x: %w", g.table, region, g.req.Cursor.Row, err)
}

// fetch sends pages until one arrives, retrying failures under the read's
// retry budget.
func (g *Pager) fetch(ctx context.Context) (*ScanResponse, error) {
	for !g.done {
		if g.host == "" {
			if err := g.replace(ctx, ""); err != nil {
				return nil, g.wrapErr(err)
			}
			continue
		}
		req := g.req
		req.Ops = g.req.Ops[:g.prefix]
		if owed := g.limit - g.sent; g.limit > 0 && (req.BatchLimit <= 0 || req.BatchLimit > owed) {
			req.BatchLimit = owed
		}
		resp, err := g.c.FusedExecPage(ctx, g.host, &req)
		if err != nil {
			if g.home != nil && errors.Is(err, ErrFenced) {
				return nil, g.wrapErr(err)
			}
			// A shed request keeps the op layout: the budget skips the regroup
			// and the same page is resent after the backoff. Otherwise ops
			// before cursor.Op have fully streamed; the cursor's own op
			// resumes mid-scan via Row/RowIdx/Sent, which survive the rebase
			// because the server walks ops from Cursor.Op.
			failed := g.host
			if rerr := g.retry.Retry(ctx, err, func() error {
				g.req.Ops = g.req.Ops[g.req.Cursor.Op:]
				g.req.Cursor.Op = 0
				return g.replace(ctx, failed)
			}); rerr != nil {
				return nil, g.wrapErr(rerr)
			}
			continue
		}
		g.retry.Progressed()
		g.fresh.absorb(resp)
		if len(g.req.Aggs) > 0 {
			if len(resp.Aggs) != len(g.req.Aggs) {
				return nil, g.wrapErr(fmt.Errorf("%d aggregate partials for %d specs", len(resp.Aggs), len(g.req.Aggs)))
			}
			g.req.State = resp.Aggs
		}
		g.sent += len(resp.Results)
		if resp.Block != nil {
			g.sent += resp.Block.Len()
		}
		if g.limit > 0 && g.sent >= g.limit {
			g.done = true
			return resp, nil
		}
		if resp.More {
			g.req.Cursor = resp.Next
			return resp, nil
		}
		// This same-host run is exhausted; advance to the next one.
		g.req.Ops = g.req.Ops[g.prefix:]
		g.req.Cursor = FusedCursor{}
		if len(g.req.Ops) == 0 {
			g.done = true
		} else if rerr := g.replace(ctx, ""); rerr != nil {
			return nil, g.wrapErr(rerr)
		}
		return resp, nil
	}
	return nil, nil
}

// replace re-resolves where the remaining ops now live and sets host/prefix
// to the leading contiguous run served by one host. Op order is preserved,
// so the rows stream in exactly the order the unbroken fused RPC would have
// produced them. Each remaining op is restamped with the region's current
// ownership epoch — the fresh locations are only honored by servers when the
// routing epoch matches what they hold.
//
// avoid names a host that just failed (empty on the normal run-exhausted
// path). When the refreshed meta still routes the leading op's primary to
// that host — the master's heartbeat has not noticed the death yet — and
// the read runs under timeline consistency, the run is redirected to one of
// the region's secondary replicas instead of burning the remaining attempts
// against a corpse: ops are stamped with the replica number the chosen host
// serves, and the pages come back tagged stale. Strong reads never
// redirect; they wait out reassignment exactly as before replicas existed.
func (g *Pager) replace(ctx context.Context, avoid string) error {
	rm, err := g.c.RegionMap(ctx, g.table)
	if err != nil {
		return err
	}
	// Fold the in-flight cursor into the lead op's own key range / row list.
	// Only the cursor key says where the stream truly stands, and a region
	// that split between pages invalidates the (RegionID, cursor) pair — so
	// bake the resume position into the op before remapping by key range.
	g.foldCursor()
	// Re-lookup ops whose region no longer exists (it split — or merged —
	// under the read) by their remaining key range. Fresh regions come back
	// sorted by start key and each op expands in place, so op order — and
	// therefore row order — is exactly what the unbroken stream would have
	// produced.
	remapped := g.req.Ops[:0:0]
	for _, op := range g.req.Ops {
		if _, ok := rm.ByID(op.RegionID); ok {
			remapped = append(remapped, op)
			continue
		}
		if g.home != nil && op.Scan != nil && len(op.Rows) == 0 {
			if lo, hi, ok := SplitRowRange(g.home, op.Scan.StartRow, op.Scan.StopRow); ok {
				sc := *op.Scan
				sc.StartRow, sc.StopRow = lo, hi
				op.Scan = &sc
			}
		}
		ops, err := remapOp(op, rm)
		if err != nil {
			return err
		}
		remapped = append(remapped, ops...)
	}
	g.req.Ops = remapped
	if len(g.req.Ops) == 0 {
		// Every remaining op folded away (cursor past the end of its range).
		g.done = true
		return nil
	}
	lead, _ := rm.ByID(g.req.Ops[0].RegionID)
	for i := range g.req.Ops {
		if in, ok := rm.ByID(g.req.Ops[i].RegionID); ok {
			g.req.Ops[i].Epoch = in.Epoch
		}
		g.req.Ops[i].Replica = 0
	}
	host := lead.Host
	if avoid != "" && host == avoid && ConsistencyFromContext(ctx) == ConsistencyTimeline {
		for i, rh := range lead.ReplicaHosts {
			if rh != "" && rh != avoid {
				host = rh
				g.req.Ops[0].Replica = i + 1
				metrics.Scoped(ctx, g.c.net.Meter()).Inc(metrics.ReplicaFailovers)
				trace.SpanFromContext(ctx).Annotate("timeline failover: %s replica %d on %s", lead.ID, i+1, rh)
				break
			}
		}
	}
	// replicaOn reports which copy of a region host serves: 0 for the
	// primary, n for replica #n, -1 when host holds no copy.
	replicaOn := func(in *RegionInfo) int {
		if in.Host == host {
			return 0
		}
		for i, rh := range in.ReplicaHosts {
			if rh != "" && rh == host {
				return i + 1
			}
		}
		return -1
	}
	g.host = host
	g.prefix = 1
	for g.prefix < len(g.req.Ops) {
		in, ok := rm.ByID(g.req.Ops[g.prefix].RegionID)
		if !ok {
			break
		}
		rep := replicaOn(in)
		if rep < 0 || (rep > 0 && g.req.Ops[0].Replica == 0) {
			// Replica-served ops only join a run that already failed over;
			// a healthy strong run stays primary-only.
			break
		}
		g.req.Ops[g.prefix].Replica = rep
		g.prefix++
	}
	return nil
}

// foldCursor rewrites the lead op so its own key range (scan) or row list
// (bulk get) starts at the continuation cursor, then clears the cursor. A
// folded op resumes exactly where the stream stood no matter which region —
// or how many, after a split — now covers its keys. The zero cursor (the
// run-exhausted path) folds to a no-op. The op list and the op's Scan are
// copied before mutation because both may be shared with the caller's ops.
func (g *Pager) foldCursor() {
	if len(g.req.Ops) == 0 {
		return
	}
	c := g.req.Cursor
	if c.Row == nil && c.RowIdx == 0 && c.Sent == 0 {
		return
	}
	op := g.req.Ops[0]
	g.req.Cursor = FusedCursor{}
	exhausted := false
	if len(op.Rows) > 0 {
		if c.RowIdx >= len(op.Rows) {
			exhausted = true
		} else if c.RowIdx > 0 {
			op.Rows = op.Rows[c.RowIdx:]
		}
	} else if op.Scan != nil {
		sc := *op.Scan
		if c.Row != nil {
			sc.StartRow = c.Row
		}
		if sc.Limit > 0 {
			sc.Limit -= c.Sent
			exhausted = sc.Limit <= 0
		}
		op.Scan = &sc
	}
	if exhausted {
		// The cursor sat exactly at the op's end: it has fully streamed.
		g.req.Ops = g.req.Ops[1:]
		return
	}
	g.req.Ops = append([]ScanOp{op}, g.req.Ops[1:]...)
}

// remapOp re-homes one op whose region vanished onto the fresh region map:
// a scan op is clipped to every fresh region its range overlaps, a bulk get
// is partitioned by which fresh region contains each row. Both expand in
// region key order and rows within an op are sorted, so expansion preserves
// stream order.
func remapOp(op ScanOp, rm *RegionMap) ([]ScanOp, error) {
	var out []ScanOp
	if len(op.Rows) > 0 {
		groups, err := groupByRegion(rm, op.Rows, func(r *[]byte) []byte { return *r })
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			out = append(out, ScanOp{RegionID: g.Region.ID, Epoch: g.Region.Epoch, Rows: g.Items, Scan: op.Scan})
		}
		return out, nil
	}
	if op.Scan == nil {
		return nil, nil
	}
	regions := rm.Regions()
	for ri := range regions {
		in := &regions[ri]
		lo, hi, ok := SplitRowRange(in, op.Scan.StartRow, op.Scan.StopRow)
		if !ok {
			continue
		}
		sc := *op.Scan
		sc.StartRow, sc.StopRow = lo, hi
		out = append(out, ScanOp{RegionID: in.ID, Epoch: in.Epoch, Scan: &sc})
	}
	return out, nil
}
