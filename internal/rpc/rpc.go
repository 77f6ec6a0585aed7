// Package rpc provides the simulated transport that every remote
// interaction in the stack flows through: HBase client calls, meta lookups,
// and token requests. Messages are dispatched in-process, but each call is
// metered (call count, request/response bytes) and optionally charged a
// configurable latency, so the benchmarks observe the same relative network
// costs the paper reports — fewer RPCs when connections are cached and
// operators are fused, fewer bytes when predicates and columns are pushed
// down.
//
// Every call carries a context.Context end-to-end: simulated latency
// (connection setup, call cost, injected fault latency) aborts as soon as
// the context is cancelled or its deadline passes, and the context reaches
// the server-side handler so admission queues and long scans can abandon
// work for callers that no longer want it.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/trace"
)

// Errors returned by the transport.
var (
	ErrUnknownHost   = errors.New("rpc: unknown host")
	ErrUnknownMethod = errors.New("rpc: unknown method")
	ErrHostDown      = errors.New("rpc: host down")
	ErrConnClosed    = errors.New("rpc: connection closed")
)

// callerKey carries the calling host's identity in the context, so fault
// rules can partition traffic asymmetrically (master↔server severed while
// client↔server still flows, or the reverse).
type callerKey struct{}

// WithCaller tags ctx with the calling host's name. Calls made with an
// untagged context have no caller identity and only match rules that do not
// filter on one.
func WithCaller(ctx context.Context, host string) context.Context {
	return context.WithValue(ctx, callerKey{}, host)
}

// CallerFromContext returns the caller identity set by WithCaller ("" when
// untagged).
func CallerFromContext(ctx context.Context) string {
	if v, ok := ctx.Value(callerKey{}).(string); ok {
		return v
	}
	return ""
}

// Message is anything that can cross the simulated wire. WireSize must
// report how many bytes the message would occupy serialized; the transport
// meters it but does not actually serialize.
type Message interface {
	WireSize() int
}

// Bytes adapts a raw byte slice to Message.
type Bytes []byte

// WireSize returns the slice length.
func (b Bytes) WireSize() int { return len(b) }

// Handler processes one request on the server side of a call. The context
// is the caller's: it is cancelled when the caller gives up (deadline,
// hedged-read loser, aborted query), so handlers that queue or loop should
// watch it.
type Handler func(ctx context.Context, req Message) (Message, error)

// Config tunes the simulated cost model. Zero values mean "free", which
// unit tests use; benchmarks configure small real latencies so connection
// reuse and call fusion are visible in wall-clock numbers.
type Config struct {
	// ConnLatency is charged once per Dial (connection establishment,
	// including the coordination-service lookup round trip it models).
	ConnLatency time.Duration
	// CallLatency is charged once per Call.
	CallLatency time.Duration
	// BytesPerSecond, when positive, charges transfer time for payload
	// bytes on top of CallLatency.
	BytesPerSecond int64
}

// Network is a set of named hosts that can call each other.
type Network struct {
	cfg   Config
	meter *metrics.Registry

	mu     sync.RWMutex
	hosts  map[string]*endpoint
	faults *FaultInjector
}

type endpoint struct {
	mu       sync.RWMutex
	handlers map[string]route
	down     bool
}

// route is a method's handler on a host, with the name of the method's
// latency histogram, built once so a call builds none.
type route struct {
	h       Handler
	latency string
}

// NewNetwork creates a network with the given cost model. meter may be nil.
func NewNetwork(cfg Config, meter *metrics.Registry) *Network {
	return &Network{cfg: cfg, meter: meter, hosts: make(map[string]*endpoint)}
}

// Meter returns the registry this network charges, possibly nil.
func (n *Network) Meter() *metrics.Registry { return n.meter }

// AddHost registers a host name. Adding an existing host is an error.
func (n *Network) AddHost(host string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[host]; ok {
		return fmt.Errorf("rpc: host %q already exists", host)
	}
	n.hosts[host] = &endpoint{handlers: make(map[string]route)}
	return nil
}

// Handle installs a handler for method on host.
func (n *Network) Handle(host, method string, h Handler) error {
	n.mu.RLock()
	ep, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.handlers[method] = route{h: h, latency: metrics.HistRPCLatencyPrefix + method}
	return nil
}

// SetDown marks a host unreachable (or reachable again), for failure
// injection in tests.
func (n *Network) SetDown(host string, down bool) error {
	n.mu.RLock()
	ep, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.down = down
	return nil
}

// IsDown reports whether a host is currently marked unreachable. Unknown
// hosts read as down — to every caller they are equally absent.
func (n *Network) IsDown(host string) bool {
	n.mu.RLock()
	ep, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return true
	}
	ep.mu.RLock()
	defer ep.mu.RUnlock()
	return ep.down
}

// Hosts lists registered host names (unordered).
func (n *Network) Hosts() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		out = append(out, h)
	}
	return out
}

// SleepContext sleeps d, returning early with the context's error if it is
// cancelled first. It is the cancellable form of time.Sleep every simulated
// latency in the stack goes through.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Conn is a cached, reusable connection from a client to a host. Creating
// one is deliberately expensive (ConnLatency) — SHC's connection cache
// exists to amortize exactly this cost (paper §V-B.1).
type Conn struct {
	n      *Network
	host   string
	mu     sync.Mutex
	closed bool
}

// Dial establishes a connection to host with no deadline.
func (n *Network) Dial(host string) (*Conn, error) {
	return n.DialContext(context.Background(), host)
}

// DialContext establishes a connection to host, charging connection latency
// (abandoned early if ctx is done) and incrementing the connections-created
// counter.
func (n *Network) DialContext(ctx context.Context, host string) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n.mu.RLock()
	ep, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	ep.mu.RLock()
	down := ep.down
	ep.mu.RUnlock()
	if down {
		return nil, fmt.Errorf("%w: %q", ErrHostDown, host)
	}
	dctx, sp := trace.StartSpan(ctx, "rpc:dial")
	sp.SetTag("host", host)
	defer sp.End()
	// A DropReply rule on a dial degenerates to a dial failure: there is no
	// server-side effect to preserve before the connection exists.
	if err, _ := n.injector().apply(dctx, host, MethodDial); err != nil {
		sp.SetError(err)
		return nil, err
	}
	if err := SleepContext(dctx, n.cfg.ConnLatency); err != nil {
		sp.SetError(err)
		return nil, err
	}
	metrics.Scoped(ctx, n.meter).Inc(metrics.ConnectionsCreated)
	return &Conn{n: n, host: host}, nil
}

// Host returns the remote host name.
func (c *Conn) Host() string { return c.host }

// Close marks the connection unusable. Closing twice is harmless.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Call invokes method on the connection's host with no deadline.
func (c *Conn) Call(method string, req Message) (Message, error) {
	return c.CallContext(context.Background(), method, req)
}

// CallContext invokes method on the connection's host, metering the call
// and the bytes in both directions. Simulated latency respects ctx; the
// handler receives ctx so server-side queues honor it too.
func (c *Conn) CallContext(ctx context.Context, method string, req Message) (Message, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrConnClosed
	}
	return c.n.call(ctx, c.host, method, req)
}

// call wraps dispatch with the per-call observability: a span named after
// the method (carrying host, byte sizes, and the error outcome) and the
// per-method latency histogram. Latency is recorded on the network's own
// registry and, when the context carries a query scope, on that too.
func (n *Network) call(ctx context.Context, host, method string, req Message) (Message, error) {
	// The span's name is built only under a trace; without one, sp is nil
	// and its methods do nothing.
	sctx, sp := ctx, (*trace.Span)(nil)
	if trace.FromContext(ctx) != nil {
		sctx, sp = trace.StartSpan(ctx, "rpc:"+method)
	}
	sp.SetTag("host", host)
	start := time.Now()
	resp, latency, err := n.dispatch(sctx, host, method, req)
	if latency == "" { // the host is unknown or does not handle method
		latency = metrics.HistRPCLatencyPrefix + method
	}
	metrics.Scoped(ctx, n.meter).Observe(latency, time.Since(start))
	if resp != nil {
		sp.SetAttr("resp_bytes", int64(resp.WireSize()))
	}
	sp.SetError(err)
	sp.End()
	return resp, err
}

// dispatch runs method's handler on host and returns its reply and the
// method's latency histogram name, "" when host does not handle method.
func (n *Network) dispatch(ctx context.Context, host, method string, req Message) (Message, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	n.mu.RLock()
	ep, ok := n.hosts[host]
	n.mu.RUnlock()
	if !ok {
		return nil, "", fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	ep.mu.RLock()
	rt, hok := ep.handlers[method]
	down := ep.down
	ep.mu.RUnlock()
	if down {
		return nil, "", fmt.Errorf("%w: %q", ErrHostDown, host)
	}
	if !hok {
		return nil, "", fmt.Errorf("%w: %s on %q", ErrUnknownMethod, method, host)
	}
	injErr, afterReply := n.injector().apply(ctx, host, method)
	if injErr != nil && !afterReply {
		return nil, rt.latency, injErr
	}

	reqSize := 0
	if req != nil {
		reqSize = req.WireSize()
	}
	m := metrics.Scoped(ctx, n.meter)
	m.Inc(metrics.RPCCalls)
	m.Add(metrics.RPCBytesSent, int64(reqSize))

	resp, err := rt.h(ctx, req)
	if err != nil {
		return nil, rt.latency, err
	}
	if injErr != nil {
		// Ack lost: the handler ran — its effects stand — but the reply is
		// discarded, so the caller observes a transport failure for a write
		// that in fact applied. Retry safety is the server's problem (dedup).
		return nil, rt.latency, injErr
	}
	respSize := 0
	if resp != nil {
		respSize = resp.WireSize()
	}
	m.Add(metrics.RPCBytesReceived, int64(respSize))
	if err := n.charge(ctx, reqSize+respSize); err != nil {
		return nil, rt.latency, err
	}
	return resp, rt.latency, nil
}

func (n *Network) charge(ctx context.Context, bytes int) error {
	d := n.cfg.CallLatency
	if n.cfg.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / float64(n.cfg.BytesPerSecond) * float64(time.Second))
	}
	return SleepContext(ctx, d)
}
