package metrics

import (
	"context"
	"time"
)

// scopeKey carries a per-query Registry through the context.
type scopeKey struct{}

// WithScope returns ctx carrying scope as the query-scoped registry.
// Instrumented layers that write metrics through Scoped meters will record
// into scope in addition to their own registry, so a query's counters can
// be read in isolation even while other queries run concurrently against
// the same cluster.
func WithScope(ctx context.Context, scope *Registry) context.Context {
	if scope == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, scope)
}

// ScopeFrom returns the context's query-scoped registry, or nil.
func ScopeFrom(ctx context.Context) *Registry {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scopeKey{}).(*Registry)
	return s
}

// Meter is a dual-sink metrics writer: every write lands in the layer's
// own registry (the cluster- or session-wide one existing tests and
// experiments read) and, when the context carries one, in the query-scoped
// registry as well. It is a small value type — build it once per operation
// with Scoped and pass it down, rather than re-resolving the context on
// every counter bump.
type Meter struct {
	primary *Registry
	scoped  *Registry
}

// Scoped builds a Meter writing to primary plus the context's scoped
// registry. When the scope is absent or is primary itself, writes land
// only once.
func Scoped(ctx context.Context, primary *Registry) Meter {
	s := ScopeFrom(ctx)
	if s == primary {
		s = nil
	}
	return Meter{primary: primary, scoped: s}
}

// Direct builds a Meter writing only to r — for call sites with no
// context (compile-time metering, legacy paths).
func Direct(r *Registry) Meter { return Meter{primary: r} }

// Add increments the named counter by delta in both sinks.
func (m Meter) Add(name string, delta int64) {
	m.primary.Add(name, delta)
	m.scoped.Add(name, delta)
}

// Inc increments the named counter by one in both sinks.
func (m Meter) Inc(name string) { m.Add(name, 1) }

// SetMax raises the named gauge to v in both sinks.
func (m Meter) SetMax(name string, v int64) {
	m.primary.SetMax(name, v)
	m.scoped.SetMax(name, v)
}

// AddPeak adjusts a current-usage gauge and its high-water mark in both
// sinks. Because the scoped registry starts from zero for each query, its
// peak is exact for that query — unlike the shared registry, whose peak is
// the high-water mark across every run since the last Reset.
func (m Meter) AddPeak(cur, peak string, delta int64) {
	m.primary.AddPeak(cur, peak, delta)
	m.scoped.AddPeak(cur, peak, delta)
}

// Observe records d into the named histogram in both sinks.
func (m Meter) Observe(name string, d time.Duration) {
	m.primary.Observe(name, d)
	m.scoped.Observe(name, d)
}
