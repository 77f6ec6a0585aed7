package hbase

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

// MutatorConfig tunes a BufferedMutator. The zero value gets sane defaults.
type MutatorConfig struct {
	// WriterID identifies this mutator in the batch stamps servers
	// deduplicate on. It must be unique among concurrently writing mutators
	// of the same table, or their sequence spaces collide and distinct
	// batches deduplicate against each other. Default "mutator".
	WriterID string
	// FlushBytes is the buffered-cell threshold that triggers a flush
	// (default 16 KiB).
	FlushBytes int
	// MaxBufferBytes is the hard cap on buffered bytes: Mutate blocks once
	// the buffer reaches it and a flush is already draining, so a writer
	// outrunning the cluster exerts backpressure on its caller instead of
	// growing memory without bound. Default 4 × FlushBytes.
	MaxBufferBytes int
	// FlushInterval flushes the buffer in the background even when it stays
	// under FlushBytes, bounding the time a mutation sits unacknowledged.
	// 0 disables the background flusher (explicit Flush/Close only).
	FlushInterval time.Duration
	// MaxAttempts caps the per-flush retry loop (default: the client retry
	// policy's MaxAttempts). Ingest under chaos wants this higher than the
	// interactive default — a flush that gives up surfaces its error, and
	// its unacked cells, to the caller.
	MaxAttempts int
}

func (c MutatorConfig) withDefaults(cl *Client) MutatorConfig {
	if c.WriterID == "" {
		c.WriterID = "mutator"
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = 16 << 10
	}
	if c.MaxBufferBytes <= 0 {
		c.MaxBufferBytes = 4 * c.FlushBytes
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = cl.retry.MaxAttempts
	}
	return c
}

// BatchStamp identifies one sequence-stamped batch a mutator sent.
type BatchStamp struct {
	Writer string
	Seq    uint64
}

// BufferedMutator is the client write buffer (HBase's BufferedMutator): Mutate
// accumulates cells locally, and flushes group them per region, stamp each
// group with a (writer, sequence) pair, pack the groups per region server,
// and send one MultiPut RPC per server. Batching amortizes the per-RPC wire
// and admission cost that makes cell-at-a-time Put throughput-bound; the
// stamps make retrying a flush whose ack was lost provably exactly-once (the
// server deduplicates applied stamps).
//
// A flush retries retryable failures itself with the client's backoff: stale
// locations re-resolve (a batch whose region split regroups by the fresh
// boundaries, keeping its original stamp), and ErrServerBusy/ErrMemstoreFull
// back off without invalidating locations. Mutate blocks — bounded buffer —
// when the buffer hits MaxBufferBytes while a flush drains.
type BufferedMutator struct {
	c     *Client
	table string
	cfg   MutatorConfig

	mu       sync.Mutex
	cond     *sync.Cond
	buf      []Cell
	bufBytes int
	nextSeq  uint64
	acked    []BatchStamp
	flushing bool
	closed   bool
	bgErr    error // error a background flush recorded, pending surfacing

	stopTicker chan struct{}
	tickerDone chan struct{}
}

// NewMutator creates a buffered mutator for table.
func (c *Client) NewMutator(table string, cfg MutatorConfig) *BufferedMutator {
	m := &BufferedMutator{c: c, table: table, cfg: cfg.withDefaults(c)}
	m.cond = sync.NewCond(&m.mu)
	if m.cfg.FlushInterval > 0 {
		m.stopTicker = make(chan struct{})
		m.tickerDone = make(chan struct{})
		// The stop channel is passed in rather than re-read from the struct:
		// Close nils m.stopTicker (under m.mu) when it claims shutdown, and a
		// Close racing this goroutine's startup must not leave it selecting
		// on a nil channel forever.
		go m.backgroundFlush(m.stopTicker)
	}
	return m
}

func (m *BufferedMutator) backgroundFlush(stop <-chan struct{}) {
	defer close(m.tickerDone)
	t := time.NewTicker(m.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Record a failure for the next explicit Flush/Close to surface —
			// Mutate's documented contract for deferred errors. Flush drained
			// any previously recorded error into this return value, so
			// storing it back loses nothing.
			if err := m.Flush(context.Background()); err != nil {
				m.mu.Lock()
				m.bgErr = err
				m.mu.Unlock()
			}
		case <-stop:
			return
		}
	}
}

// Mutate buffers cells for asynchronous delivery, flushing inline when the
// buffer crosses FlushBytes. It returns a flush error only when this call
// performed the flush; errors from background flushes surface on the next
// explicit Flush or Close.
func (m *BufferedMutator) Mutate(ctx context.Context, cells ...Cell) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errors.New("hbase: mutator closed")
	}
	// Bounded buffer: while another flush drains and the buffer is at its
	// hard cap, wait rather than queue unboundedly.
	for m.flushing && m.bufBytes >= m.cfg.MaxBufferBytes {
		m.cond.Wait()
		if m.closed {
			m.mu.Unlock()
			return errors.New("hbase: mutator closed")
		}
	}
	for i := range cells {
		m.buf = append(m.buf, cells[i])
		m.bufBytes += cells[i].WireSize()
	}
	if m.bufBytes < m.cfg.FlushBytes || m.flushing {
		m.mu.Unlock()
		return nil
	}
	return m.flushLocked(ctx)
}

// Flush synchronously sends everything buffered. It also surfaces any error
// a background flush recorded since the last explicit Flush or Close.
func (m *BufferedMutator) Flush(ctx context.Context) error {
	m.mu.Lock()
	for m.flushing {
		m.cond.Wait()
	}
	bg := m.bgErr
	m.bgErr = nil
	if len(m.buf) == 0 {
		m.mu.Unlock()
		return bg
	}
	err := m.flushLocked(ctx)
	switch {
	case bg == nil:
		return err
	case err == nil:
		return bg
	default:
		return errors.Join(bg, err)
	}
}

// flushLocked takes the buffer and sends it; called with m.mu held, returns
// with it released.
func (m *BufferedMutator) flushLocked(ctx context.Context) error {
	m.flushing = true
	cells := m.buf
	m.buf = nil
	m.bufBytes = 0
	m.mu.Unlock()

	err := m.send(ctx, cells)

	m.mu.Lock()
	m.flushing = false
	m.cond.Broadcast()
	m.mu.Unlock()
	return err
}

// Close flushes the remaining buffer and stops the background flusher. Safe
// to call concurrently: only the caller that claims the ticker channel under
// the lock closes it.
func (m *BufferedMutator) Close(ctx context.Context) error {
	m.mu.Lock()
	stop := m.stopTicker
	m.stopTicker = nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-m.tickerDone
	}
	err := m.Flush(ctx)
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return err
}

// AckedBatches returns the stamps of every batch the cluster has
// acknowledged, in ack order — the client-side half of the exactly-once
// property tests.
func (m *BufferedMutator) AckedBatches() []BatchStamp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]BatchStamp(nil), m.acked...)
}

// send stamps cells per region and delivers them: one sequence-stamped
// batch per region the buffer touches, acked as its last piece lands.
func (m *BufferedMutator) send(ctx context.Context, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	metrics.Scoped(ctx, m.c.net.Meter()).Inc(metrics.MutatorFlushes)
	rm, err := m.c.RegionMap(ctx, m.table)
	if err != nil {
		return err
	}
	groups, err := groupByRegion(rm, cells, cellRow)
	if err != nil {
		return err
	}
	m.mu.Lock()
	pending := make([]*pendingBatch, 0, len(groups))
	for _, g := range groups {
		m.nextSeq++
		pending = append(pending, &pendingBatch{seq: m.nextSeq, cells: g.Items})
	}
	m.mu.Unlock()
	retry := RetryBudget{c: m.c, table: m.table, max: m.cfg.MaxAttempts}
	return m.c.deliver(ctx, m.table, m.cfg.WriterID, pending, retry, func(seq uint64) {
		m.mu.Lock()
		m.acked = append(m.acked, BatchStamp{Writer: m.cfg.WriterID, Seq: seq})
		m.mu.Unlock()
	})
}

// pendingBatch is one batch awaiting its ack: a stamp and the cells still
// undelivered. The stamp is assigned once and never changes, even when a
// split regroups the cells across fresh region boundaries. Client.Put sends
// one unstamped batch (seq 0, no writer).
type pendingBatch struct {
	seq   uint64
	cells []Cell
}

// deliver is the client's one write path: it sends pending batches in
// delivery rounds until every batch is acked or retry gives up. writer
// stamps the pieces; "" sends them unstamped, and the server applies them
// without dedup. acked, when non-nil, hears each batch's seq once its last
// piece has landed.
func (c *Client) deliver(ctx context.Context, table, writer string, pending []*pendingBatch, retry RetryBudget, acked func(seq uint64)) error {
	tok, err := c.token()
	if err != nil {
		return err
	}
	meter := metrics.Scoped(ctx, c.net.Meter())
	for {
		failed, err := c.deliverRound(ctx, table, tok, writer, pending, meter, acked)
		if err == nil {
			return nil
		}
		// A round that erred before any RPC went out (e.g. region re-lookup
		// failed while regrouping) reports no per-batch outcome and leaves
		// every batch pending. Only a verdict that names failed batches
		// replaces the pending set — an early error must never masquerade as
		// "all acked".
		if len(failed) > 0 {
			pending = failed
		}
		if err = retry.Retry(ctx, err, nil); err != nil {
			return err
		}
	}
}

// deliveryPiece is the part of one pending batch that one region holds.
type deliveryPiece struct {
	region *RegionInfo
	owner  int // index of the batch in the round's pending set
	cells  []Cell
}

// deliverRound performs one delivery attempt. Every pending batch is
// regrouped against one region-map snapshot (its stamp preserved) and the
// pieces are packed per server. Each server gets one MultiPut, one server
// after another in the key order of its first region, and a failed server
// does not stop the round. The single snapshot upholds the dedup invariant
// RegionBatch relies on: a region receives every cell of a stamped batch
// that falls in its range, in one piece. The sequential send keeps which
// call meets which seeded fault independent of goroutine scheduling. It
// returns the batches still owed, each narrowed to the cells the failed
// servers held, and the error that outranks the others.
func (c *Client) deliverRound(ctx context.Context, table, tok, writer string, pending []*pendingBatch, meter metrics.Meter, acked func(uint64)) ([]*pendingBatch, error) {
	// The low-water mark carried on every stamped piece: a writer's
	// deliveries are serialized, so everything below the smallest
	// still-pending stamp is resolved — acked, or abandoned with its error
	// surfaced — and will never be retried. Servers prune their dedup
	// windows below it.
	lowWater := pending[0].seq
	for _, pb := range pending[1:] {
		lowWater = min(lowWater, pb.seq)
	}
	rm, err := c.RegionMap(ctx, table)
	if err != nil {
		return nil, err
	}
	var pieces []deliveryPiece
	for i, pb := range pending {
		parts, err := groupByRegion(rm, pb.cells, cellRow)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			pieces = append(pieces, deliveryPiece{region: part.Region, owner: i, cells: part.Items})
		}
	}
	slices.SortStableFunc(pieces, func(a, b deliveryPiece) int { return bytes.Compare(a.region.StartKey, b.region.StartKey) })
	// Servers in order of first appearance, i.e. of their first region.
	type serverLoad struct {
		host   string
		pieces []deliveryPiece
	}
	var loads []serverLoad
	for _, p := range pieces {
		k := 0
		for k < len(loads) && loads[k].host != p.region.Host {
			k++
		}
		if k == len(loads) {
			loads = append(loads, serverLoad{host: p.region.Host})
		}
		loads[k].pieces = append(loads[k].pieces, p)
	}

	owed := make([][]Cell, len(pending))
	var firstErr error
	for _, load := range loads {
		batches := make([]RegionBatch, len(load.pieces))
		for k, p := range load.pieces {
			batches[k] = RegionBatch{RegionID: p.region.ID, Epoch: p.region.Epoch, Cells: p.cells}
			if writer != "" {
				batches[k].Writer, batches[k].Seq, batches[k].LowWater = writer, pending[p.owner].seq, lowWater
			}
		}
		meter.Inc(metrics.MultiPuts)
		_, err := c.call(ctx, load.host, MethodMultiPut, &MultiPutRequest{Batches: batches, Token: tok})
		if err == nil {
			continue
		}
		// A non-retryable error outranks retryable ones: it is the one the
		// caller must see, since no amount of regrouping fixes it.
		if firstErr == nil || (IsRetryable(firstErr) && !IsRetryable(err)) {
			firstErr = err
		}
		for _, p := range load.pieces {
			owed[p.owner] = append(owed[p.owner], p.cells...)
		}
	}

	// A batch is acked once no failed server held a piece of it. A failed
	// server may have applied some pieces before erring or losing its
	// reply: the resend deduplicates them when stamped, and rewrites the
	// same versions when not.
	var failed []*pendingBatch
	for i, pb := range pending {
		if owed[i] != nil {
			pb.cells = owed[i]
			failed = append(failed, pb)
		} else if acked != nil {
			acked(pb.seq)
		}
	}
	return failed, firstErr
}
