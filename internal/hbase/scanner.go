package hbase

import (
	"bytes"
	"context"
	"fmt"

	"github.com/shc-go/shc/internal/metrics"
)

// Scanner iterates a table scan in pages, the way HBase clients stream
// large scans with a caching size instead of materializing everything in
// one response. Each page is at most one RPC per region visited, and with
// Prefetch enabled the next page's RPC is issued while the caller consumes
// the current one (double buffering).
type Scanner struct {
	client    *Client
	ctx       context.Context
	table     string
	spec      Scan
	batchSize int
	prefetch  bool
	meter     *metrics.Registry

	regions  []RegionInfo
	region   int    // index of the region currently being scanned
	cursor   []byte // next start row within the current region
	lastRow  []byte // last row actually returned (for error context)
	returned int    // rows handed out so far (for spec.Limit page sizing)
	retry    RetryBudget
	done     bool
	err      error

	pending chan pageResult // in-flight prefetched page, nil when none
}

type pageResult struct {
	results []Result
	err     error
}

// ScannerConfig tunes a paged scan.
type ScannerConfig struct {
	// BatchSize bounds the rows per page (default 100).
	BatchSize int
	// Prefetch keeps the next page's RPC in flight while the current page
	// is being consumed.
	Prefetch bool
	// Meter receives client-side scanner counters (PagesPrefetched); may be
	// nil.
	Meter *metrics.Registry
}

// OpenScanner starts a paged scan. batchSize bounds the rows per page
// (default 100). The Scan's Limit, if set, caps the total across pages.
func (c *Client) OpenScanner(table string, spec *Scan, batchSize int) (*Scanner, error) {
	return c.OpenScannerWith(table, spec, ScannerConfig{BatchSize: batchSize})
}

// OpenScannerWith starts a paged scan with full configuration.
func (c *Client) OpenScannerWith(table string, spec *Scan, cfg ScannerConfig) (*Scanner, error) {
	return c.OpenScannerContext(context.Background(), table, spec, cfg)
}

// OpenScannerContext starts a paged scan whose page fetches — including
// prefetched ones — are bounded by ctx. Cancelling ctx makes the next (or
// in-flight) page fail with the context's error instead of finishing the
// scan.
func (c *Client) OpenScannerContext(ctx context.Context, table string, spec *Scan, cfg ScannerConfig) (*Scanner, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 100
	}
	rm, err := c.RegionMap(ctx, table)
	if err != nil {
		return nil, err
	}
	s := &Scanner{
		client: c, ctx: ctx, table: table, spec: *spec, batchSize: cfg.BatchSize,
		prefetch: cfg.Prefetch, meter: cfg.Meter, regions: rm.Regions(), retry: c.NewRetryBudget(table),
	}
	s.cursor = spec.StartRow
	s.skipToOverlap()
	return s, nil
}

// skipToOverlap advances past regions the scan range does not touch.
func (s *Scanner) skipToOverlap() {
	for s.region < len(s.regions) {
		ri := &s.regions[s.region]
		if ri.OverlapsRange(s.startFor(), s.spec.StopRow) {
			return
		}
		s.region++
	}
	s.done = true
}

func (s *Scanner) startFor() []byte {
	if s.cursor != nil {
		return s.cursor
	}
	return s.spec.StartRow
}

// pageLimit sizes the next page: the batch size, shrunk to the rows still
// owed under the Scan's Limit so the final page never over-fetches.
func (s *Scanner) pageLimit() int {
	if s.spec.Limit <= 0 {
		return s.batchSize
	}
	remaining := s.spec.Limit - s.returned
	if remaining < s.batchSize {
		return remaining
	}
	return s.batchSize
}

// wrapErr annotates a terminal page-fetch error with where the scan stood —
// table, region, and the last row already returned — so a failure deep in a
// multi-region scan reports its position, not just the transport error.
func (s *Scanner) wrapErr(err error, regionID string) error {
	return fmt.Errorf("hbase: scan table=%q region=%s after-row=%x: %w", s.table, regionID, s.lastRow, err)
}

// fetchPage issues RPCs until one page of results arrives or the scan is
// exhausted. It owns all scanner position state; callers serialize access.
func (s *Scanner) fetchPage() ([]Result, error) {
	for !s.done {
		limit := s.pageLimit()
		if limit <= 0 {
			s.done = true
			return nil, nil
		}
		ri := s.regions[s.region]
		page := s.spec
		page.StartRow = s.startFor()
		page.Limit = limit
		results, err := s.client.ScanRegionContext(s.ctx, ri, &page)
		if err != nil {
			// A shed request leaves the region map right: the budget skips
			// the relocate and the same page is resent after the backoff.
			if rerr := s.retry.Retry(s.ctx, err, s.relocate); rerr != nil {
				return nil, s.wrapErr(rerr, ri.ID)
			}
			continue
		}
		s.retry.Progressed()
		if len(results) == 0 {
			// Region drained: move on.
			s.region++
			s.cursor = nil
			s.skipToOverlap()
			continue
		}
		s.returned += len(results)
		last := results[len(results)-1].Row
		s.lastRow = append([]byte(nil), last...)
		s.cursor = append(append([]byte(nil), last...), 0) // resume after last row
		if len(results) < limit {
			// Short page: this region is done.
			s.region++
			s.cursor = nil
			s.skipToOverlap()
		}
		if s.spec.Limit > 0 && s.returned >= s.spec.Limit {
			s.done = true
		}
		// Clip to the region's end in case the cursor ran past it.
		if !s.done && s.cursor != nil {
			ri := s.regions[s.region]
			if len(ri.EndKey) > 0 && bytes.Compare(s.cursor, ri.EndKey) >= 0 {
				s.region++
				s.cursor = nil
				s.skipToOverlap()
			}
		}
		return results, nil
	}
	return nil, nil
}

// relocate re-reads the region map (the retry budget has invalidated the
// cache) after a failed page fetch and repositions the scanner at the region
// now containing its cursor. The cursor marks the first row not yet
// returned, so when the master has reassigned the dead server's regions the
// next page resumes on the new host with no rows duplicated or dropped.
func (s *Scanner) relocate() error {
	rm, err := s.client.RegionMap(s.ctx, s.table)
	if err != nil {
		return err
	}
	// The within-region cursor is cleared at every region boundary, but the
	// rows already returned are still marked by lastRow — rebuild the cursor
	// from it, or repositioning against fresh regions would fall back to the
	// scan's own StartRow and replay everything. This is what makes a resume
	// exact when the region under the scanner split between pages: the fresh
	// map has different boundaries, and only the cursor key says where the
	// scan truly stands.
	if s.cursor == nil && s.lastRow != nil {
		s.cursor = append(append([]byte(nil), s.lastRow...), 0)
	}
	s.regions = rm.Regions()
	s.region = 0
	s.skipToOverlap()
	return nil
}

// Next returns the next page of results, or (nil, nil) when the scan is
// exhausted. With Prefetch, the page was usually fetched while the caller
// processed the previous one, and the fetch after it is kicked off before
// Next returns.
func (s *Scanner) Next() ([]Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	var results []Result
	var err error
	if s.pending != nil {
		pr := <-s.pending
		s.pending = nil
		results, err = pr.results, pr.err
	} else {
		results, err = s.fetchPage()
	}
	if err != nil {
		s.err = err
		return nil, err
	}
	if s.prefetch && results != nil && !s.done {
		// Double buffering: the next page's RPC goes out now; the state
		// mutation in fetchPage happens-before the channel send, and the
		// next launch happens-after the receive, so access stays serial.
		ch := make(chan pageResult, 1)
		s.pending = ch
		metrics.Scoped(s.ctx, s.meter).Inc(metrics.PagesPrefetched)
		go func() {
			r, e := s.fetchPage()
			ch <- pageResult{results: r, err: e}
		}()
	}
	return results, nil
}

// All drains the scanner, honoring the Scan's Limit.
func (s *Scanner) All() ([]Result, error) {
	var out []Result
	for {
		page, err := s.Next()
		if err != nil {
			return nil, err
		}
		if page == nil {
			return out, nil
		}
		out = append(out, page...)
		if s.spec.Limit > 0 && len(out) >= s.spec.Limit {
			return out[:s.spec.Limit], nil
		}
	}
}
