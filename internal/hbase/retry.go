package hbase

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
	"github.com/shc-go/shc/internal/trace"
)

// RetryPolicy governs how the client retries operations that fail
// recoverably: stale region locations (ErrNotServing), unreachable or
// killed hosts (rpc.ErrHostDown, rpc.ErrConnClosed), and saturated servers
// shedding load (ErrServerBusy). Each retry first invalidates the relevant
// meta cache (except for ErrServerBusy — the locations are still right,
// the server is just overloaded), then backs off exponentially with
// jitter. The zero value means "use defaults".
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, first included
	// (default 4). Retries stop — and the last error surfaces — once it is
	// reached, so operations against a permanently dead cluster still fail.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 50ms).
	MaxBackoff time.Duration
	// Sleep performs the backoff; tests inject a recorder. When nil the
	// policy sleeps with a context-aware timer, so a cancelled caller never
	// waits out a backoff.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	return p
}

// pause sleeps d under ctx: an injected Sleep (test recorder) runs as-is,
// the default path aborts as soon as ctx is done. Returns ctx's error when
// the wait was cut short.
func (p RetryPolicy) pause(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	return rpc.SleepContext(ctx, d)
}

// backoff computes the pre-jitter delay before retry attempt n (1-based):
// BaseBackoff doubling per attempt, capped at MaxBackoff.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// RetryBudget is one operation's share of the client's RetryPolicy — the
// single place the client decides what a failed attempt costs. Callers loop
// on their own attempt and hand each failure to Retry; what stays with the
// caller is only what is really theirs (the mutator's pending set, the
// Pager's run regrouping).
type RetryBudget struct {
	c        *Client
	table    string
	max      int
	failures int
}

// NewRetryBudget starts a retry budget for an operation on table, capped at
// the policy's MaxAttempts.
func (c *Client) NewRetryBudget(table string) RetryBudget {
	return RetryBudget{c: c, table: table, max: c.retry.MaxAttempts}
}

// Retry accounts for a failed attempt. It returns nil when the caller should
// try again: err was retryable and attempts remain, the retry has been
// counted in client.retries and annotated on the span, the table's cached
// locations have been invalidated — unless the server merely shed load
// (ErrServerBusy, ErrMemstoreFull), where the locations are still right —
// and the jittered backoff has elapsed. relocate, when non-nil, runs after
// the backoff whenever locations were invalidated, and its error ends the
// operation. Otherwise Retry returns the error to surface: err itself when
// it is not retryable, err wrapped once attempts run out, or ctx's error
// when the backoff was cut short. The caller's context deadline bounds the
// whole loop.
func (b *RetryBudget) Retry(ctx context.Context, err error, relocate func() error) error {
	if !IsRetryable(err) {
		return err
	}
	b.failures++
	if b.failures >= b.max {
		return fmt.Errorf("hbase: gave up after %d attempts: %w", b.failures, err)
	}
	metrics.Scoped(ctx, b.c.net.Meter()).Inc(metrics.ClientRetries)
	trace.SpanFromContext(ctx).Annotate("retry %d: %v", b.failures, err)
	moved := !errors.Is(err, ErrServerBusy) && !errors.Is(err, ErrMemstoreFull)
	if moved {
		b.c.InvalidateRegions(b.table)
	}
	if perr := b.c.backoff(ctx, b.failures); perr != nil {
		return perr
	}
	if moved && relocate != nil {
		return relocate()
	}
	return nil
}

// Progressed resets the budget after an attempt that delivered something, so
// a resumable reader's cap bounds consecutive failures rather than all the
// failures of a long scan.
func (b *RetryBudget) Progressed() { b.failures = 0 }

// backoff sleeps the policy's jittered backoff before retry attempt n
// (1-based), stopping early — and returning the context's error — if ctx is
// done first. All retry loops share the client's seeded jitter source.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	c.retryMu.Lock()
	jitter := 0.5 + 0.5*c.retryRng.Float64()
	c.retryMu.Unlock()
	return c.retry.pause(ctx, time.Duration(float64(c.retry.backoff(attempt))*jitter))
}

// IsRetryable reports whether err is worth retrying against refreshed meta:
// the region is served elsewhere (split, balance, failover reassignment),
// its host stopped answering and the master may be reassigning it, or the
// server shed the request under load and will accept it after a backoff.
//
// Context errors are permanent by definition: a deadline that already
// passed or a caller that cancelled cannot be helped by another attempt,
// so they surface immediately instead of burning the remaining attempts.
func IsRetryable(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return errors.Is(err, ErrNotServing) || errors.Is(err, ErrFenced) || errors.Is(err, ErrServerBusy) ||
		errors.Is(err, ErrMemstoreFull) || errors.Is(err, ErrNoMaster) || isUnreachable(err)
}
