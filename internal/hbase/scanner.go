package hbase

import "context"

// Scanner iterates a table scan in pages, the way HBase clients stream
// large scans with a caching size instead of materializing everything in
// one response. It is a Pager over one scan op per overlapping region, in
// key order: each page is one fused RPC to one host.
type Scanner struct {
	next func() (*ScanResponse, error)
}

// OpenScanner starts a paged scan. batchSize bounds the rows per page
// (default 100). The Scan's Limit, if set, caps the total across pages.
func (c *Client) OpenScanner(table string, spec *Scan, batchSize int) (*Scanner, error) {
	return c.OpenScannerContext(context.Background(), table, spec, batchSize)
}

// OpenScannerContext is OpenScanner with page fetches bounded by ctx.
// Cancelling ctx makes the next page fail with the context's error instead
// of finishing the scan.
func (c *Client) OpenScannerContext(ctx context.Context, table string, spec *Scan, batchSize int) (*Scanner, error) {
	if batchSize <= 0 {
		batchSize = 100
	}
	rm, err := c.RegionMap(ctx, table)
	if err != nil {
		return nil, err
	}
	// The scan's Limit is a total across regions: the pager owes it, and
	// no op carries a limit of its own.
	var ops []ScanOp
	regions := rm.Regions()
	for i := range regions {
		ri := &regions[i]
		lo, hi, ok := SplitRowRange(ri, spec.StartRow, spec.StopRow)
		if !ok {
			continue
		}
		sc := *spec
		sc.StartRow, sc.StopRow, sc.Limit = lo, hi, 0
		ops = append(ops, ScanOp{RegionID: ri.ID, Epoch: ri.Epoch, Scan: &sc})
	}
	g := c.NewPager(table, "", FusedRequest{Ops: ops, BatchLimit: batchSize}, spec.Limit)
	return &Scanner{next: func() (*ScanResponse, error) { return g.Next(ctx) }}, nil
}

// Next returns the next page of results, or (nil, nil) when the scan is
// exhausted. A page that comes back empty (a region with no rows in range)
// does not end the scan.
func (s *Scanner) Next() ([]Result, error) {
	for {
		resp, err := s.next()
		if err != nil || resp == nil {
			return nil, err
		}
		if len(resp.Results) > 0 {
			return resp.Results, nil
		}
	}
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
	}
}
