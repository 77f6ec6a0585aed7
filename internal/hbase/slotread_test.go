package hbase

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/bytesutil"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// This file holds the name-search oracle of the region row visitor — the
// family/qualifier string lookups it made before a request's columns were
// bound to ids (cellValue, columnWanted) — and the differential test that
// holds the slot-bound read to it.

// resolveVersions is resolve on a copy of sorted: its visible cells, with
// sorted left as it is.
func resolveVersions(sorted []Cell, maxVersions int, tr TimeRange) []Cell {
	return resolve(append([]Cell(nil), sorted...), maxVersions, tr, nil, nil)
}

// cellValue returns the value of family:qualifier in a resolved row.
func cellValue(row []Cell, family, qualifier string) ([]byte, bool) {
	for i := range row {
		if row[i].Family == family && row[i].Qualifier == qualifier {
			return row[i].Value, true
		}
	}
	return nil, false
}

// columnWanted reports whether the projection cols keeps c.
func columnWanted(c *Cell, cols []Column) bool {
	for _, want := range cols {
		if c.Family == want.Family && (want.Qualifier == "" || c.Qualifier == want.Qualifier) {
			return true
		}
	}
	return false
}

// nameScan is the region read by name, from scratch: the rows of s in r —
// or the one row point, when set — resolved from a merge of every store
// file and the MemStore, each kept when columnWanted finds a projected
// cell (any cell, for an empty projection) and s.Filter passes, cut at
// s.Limit.
func nameScan(r *Region, s *Scan, point []byte) [][]Cell {
	start, stop := s.StartRow, s.StopRow
	if point != nil {
		start, stop = point, append(append([]byte(nil), point...), 0)
	}
	if len(r.info.StartKey) > 0 && (start == nil || bytes.Compare(start, r.info.StartKey) < 0) {
		start = r.info.StartKey
	}
	if len(r.info.EndKey) > 0 && (stop == nil || bytes.Compare(stop, r.info.EndKey) > 0) {
		stop = r.info.EndKey
	}
	maxV := min(max(s.MaxVersions, 1), r.desc.maxVersions())
	r.mu.RLock()
	visible := resolveVersions(r.allCellsLocked(keys{start: start, stop: stop}), maxV, s.TimeRange)
	r.mu.RUnlock()
	var rows [][]Cell
	for i := 0; i < len(visible); {
		j := i + 1
		for j < len(visible) && bytes.Equal(visible[j].Row, visible[i].Row) {
			j++
		}
		row := visible[i:j]
		i = j
		wanted := len(s.Columns) == 0
		for k := range row {
			wanted = wanted || columnWanted(&row[k], s.Columns)
		}
		if !wanted || (s.Filter != nil && !s.Filter.Match(&Result{Row: row[0].Row, Cells: row})) {
			continue
		}
		rows = append(rows, row)
		if s.Limit > 0 && len(rows) == s.Limit {
			break
		}
	}
	return rows
}

// nameResult is the Result of a visited row under projection cols.
func nameResult(row []Cell, cols []Column) Result {
	res := Result{Row: row[0].Row}
	for i := range row {
		if len(cols) == 0 || columnWanted(&row[i], cols) {
			res.Cells = append(res.Cells, row[i])
		}
	}
	return res
}

// oracleFold folds rows in order into a copy of state, finding each
// aggregate input with cellValue.
func oracleFold(specs []AggSpec, state []AggPartial, rows [][]Cell) ([]AggPartial, error) {
	out := make([]AggPartial, len(specs))
	copy(out, state)
	for _, row := range rows {
		for k := range specs {
			s, p := &specs[k], &out[k]
			if s.Kind == AggCountRows {
				p.Count++
				continue
			}
			raw, ok := cellValue(row, s.Family, s.Qualifier)
			if !ok {
				continue
			}
			i, x, err := s.Type.decode(raw)
			if err != nil {
				return nil, err
			}
			switch s.Kind {
			case AggCountColumn:
				p.Count++
			case AggSum:
				p.Count++
				p.Sum += x
			case AggMin:
				if !p.Has || x < p.Float {
					p.Has, p.Float, p.Int = true, x, i
				}
			case AggMax:
				if !p.Has || x > p.Float {
					p.Has, p.Float, p.Int = true, x, i
				}
			}
		}
	}
	return out, nil
}

// nameResponse is the response an unpaged fused request should get, read
// by name: every op's rows in op order, returned as projected Results or
// folded into the request's partials.
func nameResponse(region func(op ScanOp) *Region, m *FusedRequest) (*ScanResponse, error) {
	resp := &ScanResponse{}
	var folded [][]Cell
	for _, op := range m.Ops {
		r, s := region(op), op.Scan
		var rows [][]Cell
		if len(op.Rows) > 0 {
			get := &Scan{Limit: 1}
			if s != nil {
				get.Columns, get.Filter, get.MaxVersions, get.TimeRange = s.Columns, s.Filter, s.MaxVersions, s.TimeRange
			}
			for _, row := range op.Rows {
				rows = append(rows, nameScan(r, get, row)...)
			}
			s = get
		} else {
			rows = nameScan(r, s, nil)
		}
		if len(m.Aggs) > 0 {
			folded = append(folded, rows...)
			continue
		}
		for _, row := range rows {
			resp.Results = append(resp.Results, nameResult(row, s.Columns))
		}
	}
	if len(m.Aggs) > 0 {
		var err error
		if resp.Aggs, err = oracleFold(m.Aggs, m.State, folded); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// TestSlotReadMatchesNameOracleAcrossSplitsAndReplicas runs a seeded random
// mix of writes, deletes, flushes, compactions, bulk loads, crash
// recoveries, splits and replica applies over regions hosted on one
// server. After every step it sends each region random fused requests —
// range scans and point gets, projections naming columns the region has
// and has never stored, filters, more than one version, time ranges,
// limits, aggregates — and requires the response to equal, byte for byte,
// the one read by family/qualifier name from a from-scratch merge. The
// cells' column names are allocated per cell, apart from the request's.
func TestSlotReadMatchesNameOracleAcrossSplitsAndReplicas(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runSlotReadOracle(t, seed) })
	}
}

func runSlotReadOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rs, err := NewRegionServer("rs", rpc.NewNetwork(rpc.Config{}, nil), metrics.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{FlushThresholdBytes: 2000, CompactThresholdFiles: 4}
	primary := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, testDesc(), cfg, metrics.NewRegistry())
	regions := []*Region{primary}
	rs.AddRegion(primary)
	var replica *Region // a secondary copy of the first primary, once made
	hosted := func(op ScanOp) *Region { return rs.Region(regionKey(op.RegionID, op.Replica)) }

	rowKey := func() []byte { return []byte(fmt.Sprintf("r%02d", rng.Intn(40))) }
	// Columns the writers use; "late" appears only after the first third.
	qualifiers := []string{"a", "b", "c"}
	randCell := func() Cell {
		c := Cell{
			Row:       rowKey(),
			Family:    strings.Clone([]string{"cf", "cg"}[rng.Intn(2)]),
			Qualifier: strings.Clone(qualifiers[rng.Intn(len(qualifiers))]),
			Timestamp: int64(1 + rng.Intn(12)),
			Type:      TypePut,
			Value:     bytesutil.EncodeInt64(int64(rng.Intn(2000) - 1000)),
		}
		if rng.Intn(5) == 0 {
			c.Type, c.Value = TypeDelete, nil
		}
		return c
	}
	owner := func(row []byte) *Region {
		for _, r := range regions {
			if r.info.ContainsRow(row) {
				return r
			}
		}
		t.Fatalf("no region holds %q", row)
		return nil
	}

	pool := []Column{{"cf", "a"}, {"cf", "b"}, {"cg", "a"}, {"cg", "c"}, {"cf", ""}, {"cg", "never"}, {"cf", "late"}}
	randScan := func() *Scan {
		s := &Scan{}
		if rng.Intn(5) != 0 {
			for i := 0; i < 1+rng.Intn(3); i++ {
				s.Columns = append(s.Columns, pool[rng.Intn(len(pool))])
			}
		}
		switch rng.Intn(8) {
		case 0, 1:
			s.Filter = &SingleColumnValueFilter{Family: "cf", Qualifier: "b", Op: CmpGreaterOrEqual, Value: bytesutil.EncodeInt64(int64(rng.Intn(2000) - 1000))}
		case 2:
			s.Filter = &RowPrefixFilter{Prefix: []byte(fmt.Sprintf("r%d", rng.Intn(4)))}
		}
		if rng.Intn(3) == 0 {
			s.MaxVersions = 2 + rng.Intn(2)
		}
		if rng.Intn(4) == 0 {
			lo := int64(rng.Intn(10))
			s.TimeRange = TimeRange{Min: lo, Max: lo + 1 + int64(rng.Intn(6))}
		}
		if rng.Intn(3) == 0 {
			s.StartRow = rowKey()
		}
		if rng.Intn(3) == 0 {
			s.StopRow = rowKey()
		}
		if rng.Intn(3) == 0 {
			s.Limit = 1 + rng.Intn(6)
		}
		return s
	}
	randAggs := func() []AggSpec {
		specs := []AggSpec{{Kind: AggCountRows}}
		for i := 0; i < 1+rng.Intn(4); i++ {
			c := pool[rng.Intn(len(pool))]
			if c.Qualifier == "" {
				continue
			}
			// Every value is 8 bytes, so it decodes (to a finite number)
			// as either type: one column can feed specs of both.
			typ := []ValueType{ValueInt64, ValueFloat64}[rng.Intn(2)]
			specs = append(specs, AggSpec{Kind: AggKind(1 + rng.Intn(4)), Family: c.Family, Qualifier: c.Qualifier, Type: typ})
		}
		return specs
	}
	// What the checks saw, so a run that never read a dirty row, a second
	// version or a folded value fails as vacuous.
	var dirtyReads, rowsRead, multiVersionRows, valuesFolded int
	check := func(what string, r *Region) {
		t.Helper()
		r.mu.RLock()
		if len(r.dirty) > 0 {
			dirtyReads++
		}
		r.mu.RUnlock()
		op := ScanOp{RegionID: r.info.ID, Replica: r.info.Replica, Scan: randScan()}
		if rng.Intn(3) == 0 {
			for i := 0; i < 1+rng.Intn(4); i++ {
				op.Rows = append(op.Rows, rowKey())
			}
		}
		m := &FusedRequest{Ops: []ScanOp{op}}
		if rng.Intn(2) == 0 {
			m.Aggs = randAggs()
		}
		got, gotErr := rs.fusedPage(context.Background(), m)
		want, wantErr := nameResponse(hosted, m)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s on %s: error %v, oracle error %v", what, regionKey(r.info.ID, r.info.Replica), gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		// A replica's staleness bound is wall-clock time: only its flag is
		// the read's.
		if got.Stale != (r.info.Replica > 0) {
			t.Fatalf("%s on %s: stale %v", what, regionKey(r.info.ID, r.info.Replica), got.Stale)
		}
		want.Stale, want.StalenessMs = got.Stale, got.StalenessMs
		if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Aggs, want.Aggs) ||
			got.More || got.Block != nil || got.WireSize() != want.WireSize() {
			t.Fatalf("%s on %s, op %+v scan %+v aggs %+v:\n got %+v\nwant %+v", what, regionKey(r.info.ID, r.info.Replica), op, *op.Scan, m.Aggs, got, want)
		}
		rowsRead += len(got.Results)
		for _, res := range got.Results {
			for i := 1; i < len(res.Cells); i++ {
				if sameColumn(&res.Cells[i-1], &res.Cells[i]) {
					multiVersionRows++
					break
				}
			}
		}
		for k, p := range got.Aggs {
			if m.Aggs[k].Kind != AggCountRows {
				valuesFolded += int(p.Count)
			}
		}
	}

	splits := 0
	for step := 0; step < 500; step++ {
		if step == 150 {
			qualifiers = append(qualifiers, "late")
		}
		var what string
		switch op := rng.Intn(100); {
		case op < 45:
			what = "put"
			c := randCell()
			if err := putCells(owner(c.Row), c); err != nil {
				t.Fatal(err)
			}
		case op < 52:
			what = "batch put"
			c := randCell()
			r := owner(c.Row)
			batch := []Cell{c}
			for i := 0; i < rng.Intn(4); i++ {
				if d := randCell(); r.info.ContainsRow(d.Row) {
					batch = append(batch, d)
				}
			}
			if err := putCells(r, batch...); err != nil {
				t.Fatal(err)
			}
		case op < 62:
			what = "flush"
			regions[rng.Intn(len(regions))].Flush()
		case op < 67:
			what = "compact"
			regions[rng.Intn(len(regions))].Compact()
		case op < 74:
			what = "bulk load"
			r := regions[rng.Intn(len(regions))]
			var cells []Cell
			for i := 0; i < 1+rng.Intn(6); i++ {
				if c := randCell(); r.info.ContainsRow(c.Row) {
					cells = append(cells, c)
				}
			}
			if err := r.BulkLoad(sortCells(cells)); err != nil {
				t.Fatal(err)
			}
		case op < 78:
			what = "recover from WAL"
			if err := regions[rng.Intn(len(regions))].RecoverFromWAL(); err != nil {
				t.Fatal(err)
			}
		case op < 82 && replica == nil:
			what = "replica bootstrap"
			replica = primary.NewReplica(1)
			rs.AddRegion(replica)
		case op < 86 && replica != nil:
			what = "replica apply hold/release"
			replica.HoldApply(rng.Intn(2) == 0)
		case op < 89 && splits < 4:
			what = "split"
			i := rng.Intn(len(regions))
			key := rowKey()
			if !regions[i].info.ContainsRow(key) || bytes.Equal(key, regions[i].info.StartKey) {
				continue
			}
			id := regions[i].info.ID
			low, high, err := regions[i].SplitInto(id+"a", id+"b", key, 0)
			if err != nil {
				t.Fatal(err)
			}
			rs.RemoveRegion(id)
			rs.AddRegion(low)
			rs.AddRegion(high)
			regions = append(regions[:i], append([]*Region{low, high}, regions[i+1:]...)...)
			splits++
		default:
			what = "read"
		}
		what = fmt.Sprintf("step %d (%s)", step, what)
		for _, r := range regions {
			check(what, r)
		}
		if replica != nil {
			check(what, replica)
		}
	}
	if dirtyReads == 0 || rowsRead == 0 || multiVersionRows == 0 || valuesFolded == 0 || replica == nil || splits == 0 {
		t.Fatalf("vacuous run: %d dirty reads, %d rows, %d multi-version rows, %d values folded, replica %v, %d splits",
			dirtyReads, rowsRead, multiVersionRows, valuesFolded, replica != nil, splits)
	}
}

// TestSlotBindingPastInlineSizes binds a projection and aggregates past
// what a binding holds inline — column ids of 64 and up, more than 8
// aggregates — and holds the read to the name oracle.
func TestSlotBindingPastInlineSizes(t *testing.T) {
	rs, err := NewRegionServer("rs", rpc.NewNetwork(rpc.Config{}, nil), metrics.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegion(RegionInfo{Table: "t", ID: "t-0"}, testDesc(), StoreConfig{}, metrics.NewRegistry())
	rs.AddRegion(r)
	for row := 0; row < 20; row++ {
		for q := 0; q < 150; q++ {
			if (row+q)%3 == 0 {
				continue // a NULL
			}
			c := Cell{Row: []byte(fmt.Sprintf("r%02d", row)), Family: []string{"cf", "cg"}[q%2], Qualifier: fmt.Sprintf("q%03d", q),
				Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeInt64(int64(row*q - 700))}
			if err := putCells(r, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	cols := []Column{{"cf", "q000"}, {"cg", "q067"}, {"cf", "q130"}, {"cg", "q149"}, {"cg", "never"}}
	var aggs []AggSpec
	for k := 0; k < 12; k++ {
		c := cols[k%len(cols)]
		aggs = append(aggs, AggSpec{Kind: AggKind(1 + k%4), Family: c.Family, Qualifier: c.Qualifier, Type: ValueInt64})
	}
	hosted := func(ScanOp) *Region { return r }
	for _, m := range []*FusedRequest{
		{Ops: []ScanOp{{RegionID: "t-0", Scan: &Scan{Columns: cols}}}},
		{Ops: []ScanOp{{RegionID: "t-0", Scan: &Scan{Columns: []Column{{"cg", ""}}}}}},
		{Ops: []ScanOp{{RegionID: "t-0", Scan: &Scan{Columns: cols}}}, Aggs: aggs},
		{Ops: []ScanOp{{RegionID: "t-0", Scan: &Scan{Columns: cols}, Rows: [][]byte{[]byte("r03"), []byte("r17")}}}, Aggs: aggs},
	} {
		got, err := rs.fusedPage(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := nameResponse(hosted, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Aggs, want.Aggs) {
			t.Fatalf("request %+v:\n got %+v\nwant %+v", m, got, want)
		}
		if len(got.Results) == 0 && len(got.Aggs) == 0 {
			t.Fatalf("request %+v read nothing", m)
		}
	}
}

// TestBindingSeesColumnsAddedSinceBound reuses one binding across reads,
// as the rows of a bulk get do, with a write between them bringing a
// column the binding had bound as absent: the second read must rebind and
// find it.
func TestBindingSeesColumnsAddedSinceBound(t *testing.T) {
	r := newTestRegion(t, StoreConfig{})
	put := func(q string, v int64) {
		t.Helper()
		if err := putCells(r, Cell{Row: []byte("r1"), Family: "cf", Qualifier: q, Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeInt64(v)}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	fold, err := newAggFold([]AggSpec{{Kind: AggSum, Family: "cf", Qualifier: "late", Type: ValueInt64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := binding{cols: []Column{{"cf", "late"}}}
	sums := binding{fold: fold}
	s := Scan{Limit: 1}
	point := keys{start: []byte("r1"), point: true}
	m := metrics.Direct(r.meter)
	if got := r.scanRows(&s, point, &rows, m, nil); len(got) != 0 {
		t.Fatalf("before the column exists: got %+v", got)
	}
	if err := r.foldScan(&s, point, &sums, m); err != nil || fold.state[0].Count != 0 {
		t.Fatalf("before the column exists: fold %+v, err %v", fold.state[0], err)
	}
	put("late", 7)
	got := r.scanRows(&s, point, &rows, m, nil)
	if len(got) != 1 || len(got[0].Cells) != 1 || got[0].Cells[0].Qualifier != "late" {
		t.Fatalf("after the column exists: got %+v", got)
	}
	if err := r.foldScan(&s, point, &sums, m); err != nil || fold.state[0].Count != 1 || fold.state[0].Sum != 7 {
		t.Fatalf("after the column exists: fold %+v, err %v", fold.state[0], err)
	}
}

// TestWideRowColumnsRecordInPlace writes rows that each bring their own
// qualifiers, as HBase-style wide rows do, so the dictionary keeps
// growing: adding a column must not copy the dictionary, so the
// allocations per new column stay below one, amortized.
func TestWideRowColumnsRecordInPlace(t *testing.T) {
	const rows, perRow = 2000, 4
	r := newTestRegion(t, StoreConfig{})
	for i := range rows {
		for q := range perRow {
			c := Cell{Row: []byte(fmt.Sprintf("r%05d", i)), Family: "cf", Qualifier: fmt.Sprintf("r%05d.q%d", i, q),
				Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeInt64(int64(i + q))}
			if err := putCells(r, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := r.cols.size(); got != rows*perRow {
		t.Fatalf("dictionary holds %d columns, want %d", got, rows*perRow)
	}
	names := make([]string, 1000)
	for i := range names {
		names[i] = fmt.Sprintf("new%04d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(names)-1, func() {
		r.cols.record("cf", names[next])
		next++
	})
	if allocs >= 1 {
		t.Fatalf("recording a new column in a dictionary of %d costs %.2f allocations, want < 1", rows*perRow, allocs)
	}
}

// TestColumnsAddedWhileReading writes rows that bring new columns while
// other goroutines read the region — row reads, point gets and folds, on
// the view and on dirty rows — so the race detector sees readers looking
// up the dictionary after the region lock is released while the writer
// adds to it. Every row acked before a read starts must be read whole.
func TestColumnsAddedWhileReading(t *testing.T) {
	const rows = 300
	r := newTestRegion(t, StoreConfig{FlushThresholdBytes: 4 << 10, CompactThresholdFiles: 3})
	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range rows {
			row := []byte(fmt.Sprintf("r%04d", i))
			for _, q := range []string{"v", fmt.Sprintf("own%04d", i)} {
				if err := putCells(r, Cell{Row: row, Family: "cf", Qualifier: q, Timestamp: 1, Type: TypePut, Value: bytesutil.EncodeInt64(int64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
			acked.Store(int64(i + 1))
		}
	}()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				finished := false
				select {
				case <-done:
					finished = true
				default:
				}
				k := int(acked.Load())
				if k == 0 {
					continue
				}
				i := (n*7 + w) % k
				own := Column{"cf", fmt.Sprintf("own%04d", i)}
				if got := r.Get([]byte(fmt.Sprintf("r%04d", i)), []Column{own, {"cf", "v"}}, 1, TimeRange{}); len(got.Cells) != 2 {
					t.Errorf("get of acked row %d: %+v", i, got)
					return
				}
				fold, err := newAggFold([]AggSpec{{Kind: AggCountRows}, {Kind: AggSum, Family: own.Family, Qualifier: own.Qualifier, Type: ValueInt64}}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				b := binding{cols: []Column{own}, fold: fold}
				if err := r.foldScan(&Scan{}, keys{}, &b, metrics.Direct(r.meter)); err != nil || fold.state[1].Count != 1 || fold.state[1].Sum != float64(i) {
					t.Errorf("fold of acked row %d's column: %+v, err %v", i, fold.state, err)
					return
				}
				if n%16 == 0 {
					if got := r.RunScan(&Scan{Columns: []Column{{"cf", ""}}}); len(got) < k {
						t.Errorf("scan read %d rows, %d acked", len(got), k)
						return
					}
				}
				if finished {
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}
