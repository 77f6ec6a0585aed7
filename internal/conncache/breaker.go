package conncache

import (
	"sync"
	"time"

	"github.com/shc-go/shc/internal/metrics"
)

// BreakerConfig tunes the per-host circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive transport failures open the circuit
	// for a host; defaults to 3.
	Threshold int
	// Cooldown is how long an open circuit rejects calls before letting one
	// probe through (half-open); defaults to 50ms — a few client backoff
	// periods in the simulated cost model.
	Cooldown time.Duration
	// Now injects a clock for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 50 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// breaker states.
const (
	breakerClosed   = iota // normal operation, failures counted
	breakerOpen            // rejecting calls until Cooldown elapses
	breakerHalfOpen        // one probe in flight; its outcome decides
)

type hostBreaker struct {
	state    int
	failures int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// Breaker is a per-host circuit breaker (closed → open → half-open →
// closed). It sits in front of the transport: after Threshold consecutive
// transport failures against a host the circuit opens and calls to that
// host fail fast — without consuming a connection, an RPC, or a server
// admission slot — until Cooldown elapses. Then a single probe is let
// through (half-open); success closes the circuit, failure re-opens it for
// another cooldown. This keeps a flapping or dead host from absorbing every
// caller's full retry budget (paper §VI-B's failover handling, hardened).
type Breaker struct {
	cfg   BreakerConfig
	meter *metrics.Registry

	mu    sync.Mutex
	hosts map[string]*hostBreaker
}

// NewBreaker builds a breaker. meter may be nil.
func NewBreaker(cfg BreakerConfig, meter *metrics.Registry) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), meter: meter, hosts: make(map[string]*hostBreaker)}
}

// Allow reports whether a call to host may proceed. false means the circuit
// is open and the caller should fail fast. A true result from an open
// circuit whose cooldown has elapsed admits exactly one caller as the
// half-open probe; concurrent callers keep failing fast until the probe's
// Record settles the state.
func (b *Breaker) Allow(host string) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb := b.hosts[host]
	if hb == nil {
		return true
	}
	switch hb.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.cfg.Now().Sub(hb.openedAt) < b.cfg.Cooldown {
			return false
		}
		hb.state = breakerHalfOpen
		hb.probing = true
		return true
	default: // half-open
		if hb.probing {
			return false
		}
		hb.probing = true
		return true
	}
}

// Record reports a call outcome for host. transportFailure must be true only
// for transport-level errors (host down, connection killed, dial failure) —
// application errors like a stale region or a shed request say nothing about
// the host's reachability and must not trip the circuit.
func (b *Breaker) Record(host string, transportFailure bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb := b.hosts[host]
	if hb == nil {
		if !transportFailure {
			return
		}
		hb = &hostBreaker{}
		b.hosts[host] = hb
	}
	switch hb.state {
	case breakerHalfOpen:
		hb.probing = false
		if transportFailure {
			// Probe failed: back to open for another cooldown.
			hb.state = breakerOpen
			hb.openedAt = b.cfg.Now()
			b.meter.Inc(metrics.BreakerOpens)
			return
		}
		hb.state = breakerClosed
		hb.failures = 0
	case breakerOpen:
		// Late results from calls admitted before the circuit opened; the
		// cooldown clock already governs recovery.
	default: // closed
		if !transportFailure {
			hb.failures = 0
			return
		}
		hb.failures++
		if hb.failures >= b.cfg.Threshold {
			hb.state = breakerOpen
			hb.openedAt = b.cfg.Now()
			b.meter.Inc(metrics.BreakerOpens)
		}
	}
}

// State reports the host's circuit state as a string ("closed", "open",
// "half-open") for tests and diagnostics.
func (b *Breaker) State(host string) string {
	if b == nil {
		return "closed"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	hb := b.hosts[host]
	if hb == nil {
		return "closed"
	}
	switch hb.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
