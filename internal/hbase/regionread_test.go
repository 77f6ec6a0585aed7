package hbase

import "github.com/shc-go/shc/internal/metrics"

// The region-local reads tests drive a region with directly. A region
// server reads its regions only through fused pages (fusedPage).

// RunScan executes the scan against this region, metering rows scanned vs
// returned through the region's registry.
func (r *Region) RunScan(s *Scan) []Result {
	b := binding{cols: s.Columns}
	out, _ := r.cutRows(s, keys{}, &b, metrics.Direct(r.meter), nil, nil)
	return out
}

// Get reads one row, honoring the same projection/version/time options as
// Scan.
func (r *Region) Get(row []byte, cols []Column, maxVersions int, tr TimeRange) Result {
	s := Scan{Columns: cols, MaxVersions: maxVersions, TimeRange: tr, Limit: 1}
	b := binding{cols: cols}
	var one [1]Result
	if results, n := r.cutRows(&s, keys{start: row, point: true}, &b, metrics.Direct(r.meter), nil, one[:0]); n > 0 {
		return results[0]
	}
	return Result{Row: append([]byte(nil), row...)}
}
