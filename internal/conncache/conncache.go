// Package conncache implements SHC's connection-caching layer (paper
// §V-B.1). Establishing an HBase connection is a heavy-weight operation —
// it involves a coordination-service round trip — so SHC keeps a pool of
// reference-counted connections keyed by target and evicts them lazily: a
// housekeeping pass closes connections whose reference count has been zero
// for longer than the configured close delay (10 minutes by default).
package conncache

import (
	"context"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// DefaultCloseDelay mirrors SparkHBaseConf.connectionCloseDelay.
const DefaultCloseDelay = 10 * time.Minute

// Config tunes the cache.
type Config struct {
	// CloseDelay is how long an idle (refcount zero) connection survives
	// before the housekeeper evicts it; defaults to DefaultCloseDelay.
	CloseDelay time.Duration
	// Now injects a clock for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.CloseDelay <= 0 {
		c.CloseDelay = DefaultCloseDelay
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

type entry struct {
	conn      *rpc.Conn
	refs      int
	zeroSince time.Time
}

// Cache is a reference-counted connection pool. It implements
// hbase.ConnPool.
type Cache struct {
	net   *rpc.Network
	cfg   Config
	meter *metrics.Registry

	mu      sync.Mutex
	entries map[string]*entry
	closed  bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a cache dialing through net. meter may be nil.
func New(net *rpc.Network, cfg Config, meter *metrics.Registry) *Cache {
	return &Cache{
		net:     net,
		cfg:     cfg.withDefaults(),
		meter:   meter,
		entries: make(map[string]*entry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Acquire returns a pooled connection to host, dialing only on a miss. The
// release function decrements the reference count; the connection stays
// open for reuse until the housekeeper evicts it. ctx bounds only the dial
// on a miss — a cache hit never blocks.
func (c *Cache) Acquire(ctx context.Context, host string) (*rpc.Conn, func(), error) {
	c.mu.Lock()
	if e, ok := c.entries[host]; ok {
		e.refs++
		c.mu.Unlock()
		metrics.Scoped(ctx, c.meter).Inc(metrics.ConnectionsReused)
		return e.conn, c.releaser(host), nil
	}
	c.mu.Unlock()

	// Dial outside the lock; connection setup is the expensive part.
	conn, err := c.net.DialContext(ctx, host)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if e, ok := c.entries[host]; ok {
		// Someone raced us; keep theirs, discard ours.
		c.mu.Unlock()
		_ = conn.Close()
		c.mu.Lock()
		e.refs++
		c.mu.Unlock()
		metrics.Scoped(ctx, c.meter).Inc(metrics.ConnectionsReused)
		return e.conn, c.releaser(host), nil
	}
	c.entries[host] = &entry{conn: conn, refs: 1}
	c.mu.Unlock()
	return conn, c.releaser(host), nil
}

func (c *Cache) releaser(host string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			e, ok := c.entries[host]
			if !ok {
				return
			}
			e.refs--
			if e.refs <= 0 {
				e.refs = 0
				e.zeroSince = c.cfg.Now()
			}
		})
	}
}

// Invalidate drops the cached connection to host (if any) so the next
// Acquire re-dials. The client calls it when an RPC on a pooled connection
// fails with a transport error (host down, connection killed): without the
// eviction the cache would keep handing out the dead connection even after
// the host recovers, because nothing else ever re-dials a cached host.
func (c *Cache) Invalidate(host string) {
	c.mu.Lock()
	e, ok := c.entries[host]
	if ok {
		delete(c.entries, host)
	}
	c.mu.Unlock()
	if ok {
		// In-flight holders see ErrConnClosed on their next call and retry
		// through a fresh checkout, exactly as if the peer had reset them.
		_ = e.conn.Close()
	}
}

// Sweep evicts connections idle longer than CloseDelay and returns how many
// it closed. The housekeeper calls this periodically; tests call it
// directly with a fake clock.
func (c *Cache) Sweep() int {
	now := c.cfg.Now()
	c.mu.Lock()
	var victims []*entry
	for host, e := range c.entries {
		if e.refs == 0 && now.Sub(e.zeroSince) >= c.cfg.CloseDelay {
			victims = append(victims, e)
			delete(c.entries, host)
		}
	}
	c.mu.Unlock()
	for _, e := range victims {
		_ = e.conn.Close()
	}
	return len(victims)
}

// Len reports the number of cached connections (any refcount).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// StartHousekeeper launches the lazy-deletion thread, which sweeps ten
// times per CloseDelay.
func (c *Cache) StartHousekeeper() {
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.cfg.CloseDelay / 10)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				c.Sweep()
			case <-c.stop:
				return
			}
		}
	}()
}

// Close stops the housekeeper and closes every cached connection.
func (c *Cache) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	entries := c.entries
	c.entries = make(map[string]*entry)
	c.closed = true
	c.mu.Unlock()
	for _, e := range entries {
		_ = e.conn.Close()
	}
}
