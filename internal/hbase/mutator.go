package hbase

import (
	"context"
	"errors"
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

// stampedBatch is one in-flight batch: a stamp plus the cells it covers. The
// stamp is assigned once and never changes, even when a split forces the
// cells to regroup across fresh region boundaries.
type stampedBatch struct {
	seq   uint64
	cells []Cell
}

// send delivers cells, grouping per region, stamping per group, packing per
// server, and retrying retryable failures with regrouping until every batch
// is acked or attempts run out.
func (m *BufferedMutator) send(ctx context.Context, cells []Cell) error {
	if len(cells) == 0 {
		return nil
	}
	tok, err := m.c.token()
	if err != nil {
		return err
	}
	meter := metrics.Scoped(ctx, m.c.net.Meter())
	meter.Inc(metrics.MutatorFlushes)

	// Group by region once to assign stamps: one sequence-stamped batch per
	// region the buffer touches.
	rm, err := m.c.RegionMap(ctx, m.table)
	if err != nil {
		return err
	}
	groups, err := groupByRegion(rm, cells, cellRow)
	if err != nil {
		return err
	}
	m.mu.Lock()
	pending := make([]*stampedBatch, 0, len(groups))
	for _, g := range groups {
		m.nextSeq++
		pending = append(pending, &stampedBatch{seq: m.nextSeq, cells: g.Items})
	}
	m.mu.Unlock()

	retry := RetryBudget{c: m.c, table: m.table, max: m.cfg.MaxAttempts}
	for {
		failed, err := m.sendRound(ctx, tok, pending, meter)
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

// sendRound performs one delivery attempt: every pending batch is regrouped
// against one region-map snapshot (its stamp preserved), packed per server,
// and sent as parallel MultiPut RPCs. The single snapshot upholds the dedup
// invariant RegionBatch relies on: a region receives every cell of a stamped
// batch that falls in its range, in one piece. It returns the batches that
// must be retried and the first error seen.
func (m *BufferedMutator) sendRound(ctx context.Context, tok string, pending []*stampedBatch, meter metrics.Meter) ([]*stampedBatch, error) {
	// The low-water mark carried on every batch: flushes are serialized, so
	// everything below the smallest still-pending stamp is resolved — acked,
	// or abandoned with its error surfaced — and will never be retried.
	// Servers prune their dedup windows below it.
	lowWater := pending[0].seq
	for _, sb := range pending[1:] {
		if sb.seq < lowWater {
			lowWater = sb.seq
		}
	}
	rm, err := m.c.RegionMap(ctx, m.table)
	if err != nil {
		return nil, err
	}
	type hostLoad struct {
		batches []RegionBatch
		owners  map[*stampedBatch]bool
	}
	hosts := make(map[string]*hostLoad)
	for _, sb := range pending {
		// One stamped batch may span several regions (the region it was
		// grouped under split): partition its cells by current boundaries,
		// each piece keeping the original stamp.
		parts, err := groupByRegion(rm, sb.cells, cellRow)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			ri := part.Region
			hl := hosts[ri.Host]
			if hl == nil {
				hl = &hostLoad{owners: make(map[*stampedBatch]bool)}
				hosts[ri.Host] = hl
			}
			hl.batches = append(hl.batches, RegionBatch{
				RegionID: ri.ID, Epoch: ri.Epoch,
				Writer: m.cfg.WriterID, Seq: sb.seq, LowWater: lowWater, Cells: part.Items,
			})
			hl.owners[sb] = true
		}
	}

	var wg sync.WaitGroup
	errs := make(map[string]error, len(hosts))
	var errMu sync.Mutex
	for host, hl := range hosts {
		wg.Add(1)
		go func(host string, hl *hostLoad) {
			defer wg.Done()
			meter.Inc(metrics.MultiPuts)
			_, err := m.c.call(ctx, host, MethodMultiPut, &MultiPutRequest{Batches: hl.batches, Token: tok})
			if err != nil {
				errMu.Lock()
				errs[host] = err
				errMu.Unlock()
			}
		}(host, hl)
	}
	wg.Wait()

	// A batch is acked only when every host holding a piece of it succeeded;
	// a failed piece keeps the whole batch pending, and the next round's
	// regrouped resend deduplicates the pieces that did land.
	failedSet := make(map[*stampedBatch]bool)
	var firstErr error
	for host, err := range errs {
		// A non-retryable error outranks retryable ones: it is the one the
		// caller must see, since no amount of regrouping fixes it.
		if firstErr == nil || (IsRetryable(firstErr) && !IsRetryable(err)) {
			firstErr = err
		}
		for sb := range hosts[host].owners {
			failedSet[sb] = true
		}
	}
	var failed []*stampedBatch
	var acked []BatchStamp
	for _, sb := range pending {
		if failedSet[sb] {
			failed = append(failed, sb)
		} else {
			acked = append(acked, BatchStamp{Writer: m.cfg.WriterID, Seq: sb.seq})
		}
	}
	if len(acked) > 0 {
		m.mu.Lock()
		m.acked = append(m.acked, acked...)
		m.mu.Unlock()
	}
	return failed, firstErr
}
