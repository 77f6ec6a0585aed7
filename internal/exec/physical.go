package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// Context carries execution-wide machinery.
type Context struct {
	// Ctx bounds the whole query: every task, RPC, retry backoff, and
	// latency sleep under this execution derives from it. nil means no
	// deadline (context.Background()).
	Ctx       context.Context
	Scheduler *Scheduler
	Meter     *metrics.Registry
}

// ctx returns the query context, defaulting to context.Background().
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// meter returns the dual-sink meter for this execution: the session
// registry plus any per-query scoped registry carried by Ctx.
func (c *Context) meter() metrics.Meter {
	return metrics.Scoped(c.ctx(), c.Meter)
}

// shufflePartitions is the reduce-side parallelism for joins and
// aggregations: one bucket per executor slot.
func (c *Context) shufflePartitions() int {
	if n := c.Scheduler.TotalSlots(); n > 0 {
		return n
	}
	return 1
}

// PhysicalPlan is an executable operator tree.
type PhysicalPlan interface {
	// Schema describes the operator's output.
	Schema() plan.Schema
	// Execute materializes the operator's rows.
	Execute(ctx *Context) ([]plan.Row, error)
	// Explain renders one line for EXPLAIN output.
	Explain() string
	// Children returns input operators.
	Children() []PhysicalPlan
}

// ScanExec reads a data source's partitions in parallel with locality.
type ScanExec struct {
	Source     datasource.PrunedFilteredScan
	Columns    []string
	Filters    []datasource.Filter
	OutSchema  plan.Schema
	Partitions []datasource.Partition
}

// Schema implements PhysicalPlan.
func (s *ScanExec) Schema() plan.Schema { return s.OutSchema }

// Children implements PhysicalPlan.
func (s *ScanExec) Children() []PhysicalPlan { return nil }

// Explain implements PhysicalPlan.
func (s *ScanExec) Explain() string {
	parts := make([]string, len(s.Filters))
	for i, f := range s.Filters {
		parts[i] = f.String()
	}
	return fmt.Sprintf("ScanExec %s cols=[%s] pushed=[%s] partitions=%d",
		s.Source.Name(), strings.Join(s.Columns, ","), strings.Join(parts, " AND "), len(s.Partitions))
}

// Execute implements PhysicalPlan: one task per partition, placed on the
// partition's preferred host.
func (s *ScanExec) Execute(ctx *Context) ([]plan.Row, error) {
	results := make([][]plan.Row, len(s.Partitions))
	tasks := make([]Task, len(s.Partitions))
	for i, p := range s.Partitions {
		i, p := i, p
		tasks[i] = Task{
			PreferredHost: p.PreferredHost(),
			Run: func(tctx context.Context) error {
				rows, err := p.Compute(tctx)
				if err != nil {
					return err
				}
				var bytes int64
				for _, r := range rows {
					bytes += int64(plan.RowSize(r))
				}
				m := metrics.Scoped(tctx, ctx.Meter)
				m.Add(metrics.MemoryCharged, bytes)
				// Materialized scans hold every decoded row until the query
				// finishes; the streamed pipeline releases per batch, and the
				// (MemoryHeld, MemoryPeak) pair makes that difference visible.
				m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, bytes)
				results[i] = rows
				return nil
			},
		}
	}
	return runAll(ctx, tasks, results)
}

// FilterExec keeps rows matching a resolved predicate.
type FilterExec struct {
	Cond  plan.Expr
	Child PhysicalPlan
}

// Schema implements PhysicalPlan.
func (f *FilterExec) Schema() plan.Schema { return f.Child.Schema() }

// Children implements PhysicalPlan.
func (f *FilterExec) Children() []PhysicalPlan { return []PhysicalPlan{f.Child} }

// Explain implements PhysicalPlan.
func (f *FilterExec) Explain() string { return "FilterExec " + f.Cond.String() }

// Execute implements PhysicalPlan.
func (f *FilterExec) Execute(ctx *Context) ([]plan.Row, error) {
	rows, err := f.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := rows[:0:0]
	for _, r := range rows {
		ok, err := plan.EvalPredicate(f.Cond, r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// ProjectExec computes output expressions per row.
type ProjectExec struct {
	Exprs     []plan.NamedExpr
	OutSchema plan.Schema
	Child     PhysicalPlan
}

// Schema implements PhysicalPlan.
func (p *ProjectExec) Schema() plan.Schema { return p.OutSchema }

// Children implements PhysicalPlan.
func (p *ProjectExec) Children() []PhysicalPlan { return []PhysicalPlan{p.Child} }

// Explain implements PhysicalPlan.
func (p *ProjectExec) Explain() string {
	parts := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		parts[i] = ne.Name
	}
	return "ProjectExec " + strings.Join(parts, ", ")
}

// Execute implements PhysicalPlan.
func (p *ProjectExec) Execute(ctx *Context) ([]plan.Row, error) {
	rows, err := p.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]plan.Row, len(rows))
	for i, r := range rows {
		nr := make(plan.Row, len(p.Exprs))
		for j, ne := range p.Exprs {
			v, err := ne.Expr.Eval(r)
			if err != nil {
				return nil, err
			}
			nr[j] = v
		}
		out[i] = nr
	}
	return out, nil
}

// appendKey appends the key tuple r[idx...] to dst: per column, the byte
// length of the value's %v rendering, a comma, the rendering, a semicolon.
// The length prefix keeps composite keys apart whatever bytes the values
// hold; values of different types with the same rendering (int32 7 and
// int64 7) get the same key, which is what lets join keys of different
// integer widths match.
func appendKey(dst []byte, r plan.Row, idx []int) []byte {
	var scratch [32]byte
	for _, i := range idx {
		if s, ok := r[i].(string); ok {
			dst = append(strconv.AppendInt(dst, int64(len(s)), 10), ',')
			dst = append(append(dst, s...), ';')
			continue
		}
		v := appendValue(scratch[:0], r[i])
		dst = append(strconv.AppendInt(dst, int64(len(v)), 10), ',')
		dst = append(append(dst, v...), ';')
	}
	return dst
}

// appendValue appends v's %v rendering to dst, through strconv for the
// types keys usually hold.
func appendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return append(dst, x...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case int16:
		return strconv.AppendInt(dst, int64(x), 10)
	case int8:
		return strconv.AppendInt(dst, int64(x), 10)
	case bool:
		return strconv.AppendBool(dst, x)
	case float64:
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	}
	return fmt.Appendf(dst, "%v", v)
}

// intKey returns the integer whose decimal rendering is v's rendering, so
// an int64-keyed join table matches exactly the pairs appendKey's bytes
// match: every integer width, and any other value (the string "7", say)
// that renders as a canonical integer. ok is false for any other value.
func intKey(v any) (k int64, ok bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int32:
		return int64(x), true
	case int:
		return int64(x), true
	case int16:
		return int64(x), true
	case int8:
		return int64(x), true
	}
	var scratch, canon [32]byte
	r := appendValue(scratch[:0], v)
	k, err := strconv.ParseInt(string(r), 10, 64)
	return k, err == nil && string(strconv.AppendInt(canon[:0], k, 10)) == string(r)
}

// integer reports whether t is one of the integer types int8–int64.
func integer(t plan.DataType) bool {
	switch t {
	case plan.TypeInt8, plan.TypeInt16, plan.TypeInt32, plan.TypeInt64:
		return true
	}
	return false
}

// fnv64a is FNV-1a over b, equal to hash/fnv's New64a without a hasher
// per call.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// exchange hash-partitions rows by key into n buckets, metering every
// moved record as shuffle traffic.
func exchange(ctx *Context, rows []plan.Row, keyIdx []int, n int) [][]plan.Row {
	buckets := make([][]plan.Row, n)
	var bytes int64
	var key []byte
	for _, r := range rows {
		key = appendKey(key[:0], r, keyIdx)
		b := int(fnv64a(key) % uint64(n))
		buckets[b] = append(buckets[b], r)
		bytes += int64(plan.RowSize(r))
	}
	m := ctx.meter()
	m.Add(metrics.ShuffleBytes, bytes)
	m.Add(metrics.ShuffleRecords, int64(len(rows)))
	return buckets
}

// HashJoinExec is an equi-join that broadcasts its build side: one
// joinTable is built over it, and the probe side is split into contiguous
// chunks, one task per scheduler slot, that all read that table. An inner
// join builds on the smaller side; a left-outer join builds on the right,
// and each chunk NULL-extends its own unmatched left rows. Output follows
// probe order.
//
// Under a HashAggExec the join streams instead (see stream): its rows go
// to the aggregate's fold one at a time, and none is materialized.
type HashJoinExec struct {
	Left, Right         PhysicalPlan
	LeftKeys, RightKeys []plan.Expr // resolved against the child schemas
	Type                plan.JoinType
	OutSchema           plan.Schema
}

// Schema implements PhysicalPlan.
func (j *HashJoinExec) Schema() plan.Schema { return j.OutSchema }

// Children implements PhysicalPlan.
func (j *HashJoinExec) Children() []PhysicalPlan { return []PhysicalPlan{j.Left, j.Right} }

// Explain implements PhysicalPlan.
func (j *HashJoinExec) Explain() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	return fmt.Sprintf("HashJoinExec[%s] %s", j.Type, strings.Join(parts, " AND "))
}

// Execute implements PhysicalPlan.
func (j *HashJoinExec) Execute(ctx *Context) ([]plan.Row, error) {
	pr, probe, err := j.open(ctx, false, false)
	if err != nil {
		return nil, err
	}
	n := min(ctx.shufflePartitions(), len(probe))
	pr.broadcast(ctx, n)
	results := make([][]plan.Row, n)
	tasks := make([]Task, n)
	for i := range tasks {
		chunk := probe[i*len(probe)/n : (i+1)*len(probe)/n]
		tasks[i] = Task{Run: func(_ context.Context) error {
			results[i] = pr.probe(chunk)
			return nil
		}}
	}
	return runAll(ctx, tasks, results)
}

// rowStream is an operator that can hand its output to a consumer one row
// at a time instead of materializing it. The row passed to emit is reused
// once emit returns: a consumer that keeps any part of the slice must copy
// it.
type rowStream interface {
	stream(ctx *Context, emit func(plan.Row) error) error
}

// streamOf returns p as a row stream when it is a hash join, instrumented
// or not.
func streamOf(p PhysicalPlan) (rowStream, bool) {
	if n, ok := p.(*instrumented); ok {
		if _, ok := n.inner.(*HashJoinExec); ok {
			return n, true
		}
	}
	if j, ok := p.(*HashJoinExec); ok {
		return j, true
	}
	return nil, false
}

// stream implements rowStream on the caller's goroutine. A child that is
// itself a hash join streams into the probe — for a left-outer join only
// the left child may, since the left side is the one NULL-extended — and
// the other child is built. When neither child streams, both are
// materialized and the build side is chosen as Execute chooses it. Every
// joined row is written into one reused row.
func (j *HashJoinExec) stream(ctx *Context, emit func(plan.Row) error) error {
	src, left := streamOf(j.Left)
	right := false
	if !left && j.Type == plan.InnerJoin {
		src, right = streamOf(j.Right)
	}
	pr, probe, err := j.open(ctx, left, right)
	if err != nil {
		return err
	}
	// One consumer reads the build side.
	pr.broadcast(ctx, 1)
	row := make(plan.Row, pr.width)
	reuse := func() plan.Row { return row }
	var key []byte
	each := func(r plan.Row) error {
		return pr.probeRow(r, pr.table.lookup(r, pr.key, &key), reuse, emit)
	}
	if src != nil {
		return src.stream(ctx, each)
	}
	for _, r := range probe {
		if err := each(r); err != nil {
			return err
		}
	}
	return nil
}

// open materializes the join's inputs, except a streamed child (the left
// one when streamLeft, the right one when streamRight), and builds the
// table over the build side, returning the materialized probe side (nil
// when a child streams). A streamed child is the probe side. Otherwise an
// inner join builds on whichever side turned out smaller, and a left-outer
// join builds on the right, since it must probe with the left side to
// NULL-extend it.
func (j *HashJoinExec) open(ctx *Context, streamLeft, streamRight bool) (*prober, []plan.Row, error) {
	lKey := keyIndexes(j.LeftKeys)
	rKey := keyIndexes(j.RightKeys)
	if lKey == nil || rKey == nil {
		return nil, nil, fmt.Errorf("exec: join keys must be resolved column references")
	}
	var left, right []plan.Row
	var err error
	if !streamLeft {
		if left, err = j.Left.Execute(ctx); err != nil {
			return nil, nil, err
		}
	}
	if !streamRight {
		if right, err = j.Right.Execute(ctx); err != nil {
			return nil, nil, err
		}
	}
	lSchema, rSchema := j.Left.Schema(), j.Right.Schema()
	intKeyed := len(lKey) == 1 && integer(lSchema[lKey[0]].Type) && integer(rSchema[rKey[0]].Type)
	pr := &prober{key: lKey, outer: j.Type == plan.LeftOuterJoin, leftWidth: len(lSchema), width: len(lSchema) + len(rSchema)}
	probe, build, bKey := left, right, rKey
	if streamRight || !streamLeft && j.Type == plan.InnerJoin && len(left) < len(right) {
		probe, build, bKey = right, left, lKey
		pr.key, pr.buildLeft = rKey, true
	}
	pr.table = buildTable(build, bKey, intKeyed)
	pr.buildRows = len(build)
	for _, r := range build {
		pr.buildBytes += int64(plan.RowSize(r))
	}
	return pr, probe, nil
}

// runAll runs tasks on the scheduler and concatenates their results in
// task order.
func runAll(ctx *Context, tasks []Task, results [][]plan.Row) ([]plan.Row, error) {
	if err := ctx.Scheduler.RunContext(ctx.ctx(), tasks); err != nil {
		return nil, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	n := 0
	for _, rs := range results {
		n += len(rs)
	}
	out := make([]plan.Row, 0, n)
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out, nil
}

// joinTable is a hash join's build side: rows grouped by key, each group's
// rows contiguous and in build order. It is keyed by int64 when both key
// columns are integers and by appendKey bytes otherwise. Rows with a NULL
// key are left out — SQL NULL keys never match.
type joinTable struct {
	ints  map[int64]int32  // key → group for an int64-keyed table, else nil
	keys  map[string]int32 // key bytes → group otherwise
	start []int32          // group g's rows are rows[start[g]:start[g+1]]
	rows  []plan.Row
}

// buildTable groups rows by their key at idx. intKeyed asks for the int64
// table; a key value that does not render as an integer falls the whole
// table back to key bytes.
func buildTable(rows []plan.Row, idx []int, intKeyed bool) *joinTable {
	t := &joinTable{}
	gid := make([]int32, len(rows)) // each row's group, -1 for a NULL key
	groups := -1
	if intKeyed {
		groups = t.groupInts(rows, idx[0], gid)
	}
	if groups < 0 {
		groups = t.groupKeys(rows, idx, gid)
	}
	// A counting sort by group keeps each group's rows contiguous and in
	// build order, in two allocations.
	t.start = make([]int32, groups+1)
	for _, g := range gid {
		if g >= 0 {
			t.start[g+1]++
		}
	}
	for g := 1; g <= groups; g++ {
		t.start[g] += t.start[g-1]
	}
	t.rows = make([]plan.Row, t.start[groups])
	next := append([]int32(nil), t.start[:groups]...)
	for i, g := range gid {
		if g >= 0 {
			t.rows[next[g]] = rows[i]
			next[g]++
		}
	}
	return t
}

// groupInts numbers the groups of rows by the integer key in column c,
// returning the group count, or -1 if a key is not an integer.
func (t *joinTable) groupInts(rows []plan.Row, c int, gid []int32) int {
	ints := make(map[int64]int32, len(rows))
	for i, r := range rows {
		if r[c] == nil {
			gid[i] = -1
			continue
		}
		k, ok := intKey(r[c])
		if !ok {
			return -1
		}
		g, seen := ints[k]
		if !seen {
			g = int32(len(ints))
			ints[k] = g
		}
		gid[i] = g
	}
	t.ints = ints
	return len(ints)
}

// groupKeys numbers the groups of rows by their appendKey bytes, rendered
// into one reused buffer; a key string is allocated only for a new group.
func (t *joinTable) groupKeys(rows []plan.Row, idx []int, gid []int32) int {
	t.keys = make(map[string]int32, len(rows))
	var key []byte
	for i, r := range rows {
		if hasNilKey(r, idx) {
			gid[i] = -1
			continue
		}
		key = appendKey(key[:0], r, idx)
		g, seen := t.keys[string(key)]
		if !seen {
			g = int32(len(t.keys))
			t.keys[string(key)] = g
		}
		gid[i] = g
	}
	return len(t.keys)
}

// lookup returns the group r's key at idx falls in, or -1 for none.
func (t *joinTable) lookup(r plan.Row, idx []int, key *[]byte) int32 {
	if hasNilKey(r, idx) {
		return -1
	}
	var g int32
	var ok bool
	if t.ints != nil {
		var k int64
		if k, ok = intKey(r[idx[0]]); ok {
			g, ok = t.ints[k]
		}
	} else {
		*key = appendKey((*key)[:0], r, idx)
		g, ok = t.keys[string(*key)]
	}
	if !ok {
		return -1
	}
	return g
}

// prober joins probe rows against a broadcast joinTable.
type prober struct {
	table     *joinTable
	key       []int // the probe side's key columns
	outer     bool  // left-outer: NULL-extend unmatched probe rows
	buildLeft bool  // the build side is the join's left input
	leftWidth int   // columns of the left input
	width     int   // columns of a joined row
	// buildRows and buildBytes measure the build side, which every
	// consumer of the table reads.
	buildRows  int
	buildBytes int64
}

// broadcast meters the build side as read by n consumers: that is what a
// broadcast moves.
func (p *prober) broadcast(ctx *Context, n int) {
	m := ctx.meter()
	m.Add(metrics.ShuffleBytes, p.buildBytes*int64(n))
	m.Add(metrics.ShuffleRecords, int64(p.buildRows*n))
}

// probe joins a chunk of probe rows in order. A first pass finds each
// row's group and counts the output, so every joined row is carved from
// one slab.
func (p *prober) probe(chunk []plan.Row) []plan.Row {
	t := p.table
	groups := make([]int32, len(chunk))
	n := 0
	var key []byte
	for i, r := range chunk {
		g := t.lookup(r, p.key, &key)
		groups[i] = g
		if g >= 0 {
			n += int(t.start[g+1] - t.start[g])
		} else if p.outer {
			n++
		}
	}
	out := make([]plan.Row, 0, n)
	slab := make([]any, n*p.width)
	next := func() plan.Row {
		row := plan.Row(slab[:p.width:p.width])
		slab = slab[p.width:]
		return row
	}
	keep := func(row plan.Row) error {
		out = append(out, row)
		return nil
	}
	for i, r := range chunk {
		_ = p.probeRow(r, groups[i], next, keep)
	}
	return out
}

// probeRow joins probe row r, whose key fell in group g (-1 for none): each
// joined row is written into the row next returns and handed to emit, and
// an unmatched row of a left-outer join is NULL-extended. It is the one
// per-row probe loop of both the materialized join and the stream.
func (p *prober) probeRow(r plan.Row, g int32, next func() plan.Row, emit func(plan.Row) error) error {
	if g < 0 {
		if !p.outer {
			return nil
		}
		row := next()
		copy(row, r)
		clear(row[p.leftWidth:])
		return emit(row)
	}
	t := p.table
	for _, b := range t.rows[t.start[g]:t.start[g+1]] {
		row := next()
		if p.buildLeft {
			copy(row, b)
			copy(row[p.leftWidth:], r)
		} else {
			copy(row, r)
			copy(row[p.leftWidth:], b)
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

func keyIndexes(keys []plan.Expr) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		c, ok := k.(*plan.ColumnRef)
		if !ok || c.Index() < 0 {
			return nil
		}
		out[i] = c.Index()
	}
	return out
}

func hasNilKey(r plan.Row, idx []int) bool {
	for _, i := range idx {
		if r[i] == nil {
			return true
		}
	}
	return false
}

// SortExec orders rows by the resolved sort keys.
type SortExec struct {
	Orders []plan.SortOrder
	Child  PhysicalPlan
}

// Schema implements PhysicalPlan.
func (s *SortExec) Schema() plan.Schema { return s.Child.Schema() }

// Children implements PhysicalPlan.
func (s *SortExec) Children() []PhysicalPlan { return []PhysicalPlan{s.Child} }

// Explain implements PhysicalPlan.
func (s *SortExec) Explain() string { return "SortExec" }

// Execute implements PhysicalPlan.
func (s *SortExec) Execute(ctx *Context) ([]plan.Row, error) {
	rows, err := s.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for _, o := range s.Orders {
			vi, err := o.Expr.Eval(rows[i])
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := o.Expr.Eval(rows[j])
			if err != nil {
				sortErr = err
				return false
			}
			c, err := plan.Compare(vi, vj)
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	return rows, nil
}

// UnionExec concatenates child outputs (UNION ALL).
type UnionExec struct {
	Inputs []PhysicalPlan
}

// Schema implements PhysicalPlan.
func (u *UnionExec) Schema() plan.Schema { return u.Inputs[0].Schema() }

// Children implements PhysicalPlan.
func (u *UnionExec) Children() []PhysicalPlan { return u.Inputs }

// Explain implements PhysicalPlan.
func (u *UnionExec) Explain() string { return fmt.Sprintf("UnionExec (%d inputs)", len(u.Inputs)) }

// Execute implements PhysicalPlan.
func (u *UnionExec) Execute(ctx *Context) ([]plan.Row, error) {
	var out []plan.Row
	for _, in := range u.Inputs {
		rows, err := in.Execute(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// LimitExec keeps the first N rows.
type LimitExec struct {
	N     int
	Child PhysicalPlan
}

// Schema implements PhysicalPlan.
func (l *LimitExec) Schema() plan.Schema { return l.Child.Schema() }

// Children implements PhysicalPlan.
func (l *LimitExec) Children() []PhysicalPlan { return []PhysicalPlan{l.Child} }

// Explain implements PhysicalPlan.
func (l *LimitExec) Explain() string { return fmt.Sprintf("LimitExec %d", l.N) }

// Execute implements PhysicalPlan.
func (l *LimitExec) Execute(ctx *Context) ([]plan.Row, error) {
	rows, err := l.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	if len(rows) > l.N {
		rows = rows[:l.N]
	}
	return rows, nil
}

// HashAggExec groups rows and computes aggregates. It pre-aggregates
// locally and meters the (much smaller) partial states as the exchange they
// would cross — the partial-aggregation shape Spark uses, which keeps the
// shuffle proportional to the number of groups rather than rows — then
// finalizes the groups on the caller, in first-seen order. A hash-join
// child streams its joined rows into the fold, so no joined row of the
// chain below is materialized.
type HashAggExec struct {
	GroupBy   []plan.NamedExpr
	Aggs      []plan.AggExpr
	OutSchema plan.Schema
	Child     PhysicalPlan
}

// Schema implements PhysicalPlan.
func (a *HashAggExec) Schema() plan.Schema { return a.OutSchema }

// Children implements PhysicalPlan.
func (a *HashAggExec) Children() []PhysicalPlan { return []PhysicalPlan{a.Child} }

// Explain implements PhysicalPlan.
func (a *HashAggExec) Explain() string {
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = g.Name
	}
	return "HashAggExec group=[" + strings.Join(groups, ",") + "]"
}

// accumulator holds partial state for one group.
type accumulator struct {
	groupVals []any
	states    []aggState
}

type aggState struct {
	count    int64
	sum      float64
	mean     float64 // Welford running mean
	m2       float64 // Welford running squared deviation
	min, max any
	distinct map[string]bool
}

func (s *aggState) update(kind plan.AggKind, v any) error {
	if v == nil {
		return nil
	}
	switch kind {
	case plan.AggCount:
		s.count++
	case plan.AggCountDistinct:
		if s.distinct == nil {
			s.distinct = make(map[string]bool)
		}
		var scratch [48]byte
		if key := appendKey(scratch[:0], plan.Row{v}, []int{0}); !s.distinct[string(key)] {
			s.distinct[string(key)] = true
		}
	case plan.AggSum, plan.AggAvg:
		f, ok := plan.ToFloat(v)
		if !ok {
			return fmt.Errorf("exec: %s over non-numeric %T", kind, v)
		}
		s.count++
		s.sum += f
	case plan.AggStddevSamp:
		f, ok := plan.ToFloat(v)
		if !ok {
			return fmt.Errorf("exec: stddev over non-numeric %T", v)
		}
		s.count++
		d := f - s.mean
		s.mean += d / float64(s.count)
		s.m2 += d * (f - s.mean)
	case plan.AggMin:
		if s.min == nil {
			s.min = v
		} else if c, err := plan.Compare(v, s.min); err != nil {
			return err
		} else if c < 0 {
			s.min = v
		}
	case plan.AggMax:
		if s.max == nil {
			s.max = v
		} else if c, err := plan.Compare(v, s.max); err != nil {
			return err
		} else if c > 0 {
			s.max = v
		}
	}
	return nil
}

func (s *aggState) merge(kind plan.AggKind, o *aggState) error {
	switch kind {
	case plan.AggCount:
		s.count += o.count
	case plan.AggCountDistinct:
		if s.distinct == nil {
			s.distinct = make(map[string]bool)
		}
		for k := range o.distinct {
			s.distinct[k] = true
		}
	case plan.AggSum, plan.AggAvg:
		s.count += o.count
		s.sum += o.sum
	case plan.AggStddevSamp:
		// Chan et al. parallel variance merge.
		if o.count == 0 {
			return nil
		}
		if s.count == 0 {
			*s = *o
			return nil
		}
		n := float64(s.count + o.count)
		d := o.mean - s.mean
		s.m2 += o.m2 + d*d*float64(s.count)*float64(o.count)/n
		s.mean += d * float64(o.count) / n
		s.count += o.count
	case plan.AggMin:
		if o.min != nil {
			return s.update(plan.AggMin, o.min)
		}
	case plan.AggMax:
		if o.max != nil {
			return s.update(plan.AggMax, o.max)
		}
	}
	return nil
}

func (s *aggState) final(kind plan.AggKind) any {
	switch kind {
	case plan.AggCount:
		return s.count
	case plan.AggCountDistinct:
		return int64(len(s.distinct))
	case plan.AggSum:
		if s.count == 0 {
			return nil
		}
		return s.sum
	case plan.AggAvg:
		if s.count == 0 {
			return nil
		}
		return s.sum / float64(s.count)
	case plan.AggStddevSamp:
		if s.count < 2 {
			return nil
		}
		return math.Sqrt(s.m2 / float64(s.count-1))
	case plan.AggMin:
		return s.min
	case plan.AggMax:
		return s.max
	}
	return nil
}

// stateSize approximates the shuffled size of a partial aggregate record.
func (a *accumulator) stateSize() int {
	n := len(a.states) * 40
	return n + plan.RowSize(a.groupVals)
}

// Execute implements PhysicalPlan.
func (a *HashAggExec) Execute(ctx *Context) ([]plan.Row, error) {
	// Phase 1: local partial aggregation. A hash-join child streams its
	// rows into the fold; any other child is materialized first.
	f := newGroupFold(a)
	if src, ok := streamOf(a.Child); ok {
		if err := src.stream(ctx, f.add); err != nil {
			return nil, err
		}
	} else {
		rows, err := a.Child.Execute(ctx)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := f.add(r); err != nil {
				return nil, err
			}
		}
	}
	// Phase 2: the partial states cross the exchange (metered shuffle).
	m := ctx.meter()
	m.Add(metrics.ShuffleBytes, f.shuffleBytes)
	m.Add(metrics.ShuffleRecords, int64(len(f.groups)))
	// Phase 3: finalize on the caller, every output row carved from one
	// slab.
	w := len(a.GroupBy) + len(a.Aggs)
	slab := make([]any, len(f.groups)*w)
	out := make([]plan.Row, len(f.groups))
	for g, acc := range f.groups {
		row := plan.Row(slab[g*w : (g+1)*w : (g+1)*w])
		copy(row, acc.groupVals)
		for i, agg := range a.Aggs {
			row[len(a.GroupBy)+i] = acc.states[i].final(agg.Kind)
		}
		out[g] = row
	}
	// Global aggregates over an empty input still produce one row.
	if len(a.GroupBy) == 0 && len(out) == 0 {
		row := make(plan.Row, len(a.Aggs))
		for i, agg := range a.Aggs {
			var s aggState
			row[i] = s.final(agg.Kind)
		}
		out = append(out, row)
	}
	return out, nil
}

// groupFold folds rows into a HashAggExec's groups. Group values are
// evaluated into one reused row and keyed through one reused buffer; only
// a new group copies them, and its accumulator, values and states are
// carved from chunked slabs. Groups are kept in first-seen input order, so
// the output order never depends on map iteration. add keeps no part of
// the row it is given, so a stream may reuse it.
type groupFold struct {
	a            *HashAggExec
	partials     map[string]*accumulator
	groups       []*accumulator
	shuffleBytes int64
	vals         plan.Row
	key          []byte
	accs         slab[accumulator]
	groupVals    slab[any]
	states       slab[aggState]
}

func newGroupFold(a *HashAggExec) *groupFold {
	return &groupFold{a: a, partials: make(map[string]*accumulator), vals: make(plan.Row, len(a.GroupBy))}
}

// add folds row r into its group.
func (f *groupFold) add(r plan.Row) error {
	a := f.a
	var err error
	f.key = f.key[:0]
	for i, g := range a.GroupBy {
		if f.vals[i], err = g.Expr.Eval(r); err != nil {
			return err
		}
		f.key = appendKey(f.key, f.vals, []int{i})
	}
	acc, ok := f.partials[string(f.key)]
	if !ok {
		acc = &f.accs.take(1)[0]
		acc.groupVals = f.groupVals.take(len(f.vals))
		copy(acc.groupVals, f.vals)
		acc.states = f.states.take(len(a.Aggs))
		f.partials[string(f.key)] = acc
		f.groups = append(f.groups, acc)
		f.shuffleBytes += int64(acc.stateSize())
	}
	for i, agg := range a.Aggs {
		var v any = int64(1) // COUNT(*) counts rows
		if agg.Arg != nil {
			if v, err = agg.Arg.Eval(r); err != nil {
				return err
			}
		} else if agg.Kind != plan.AggCount {
			return fmt.Errorf("exec: %s requires an argument", agg.Kind)
		}
		if agg.Kind == plan.AggCount && agg.Arg != nil && v == nil {
			continue // COUNT(col) skips NULLs
		}
		if err := acc.states[i].update(agg.Kind, v); err != nil {
			return err
		}
	}
	return nil
}

// slab hands out short slices carved from chunks, so many small slices
// cost a few allocations. Chunks double from 8 slices to 64, which bounds
// the unused tail of the last one. A slice it returns is never handed out
// again.
type slab[T any] struct {
	free  []T
	chunk int
}

// take returns a zeroed slice of n elements.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.chunk = min(max(2*s.chunk, 8*n), 64*n)
		s.free = make([]T, s.chunk)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Explain renders the whole physical tree.
func Explain(p PhysicalPlan) string {
	var b strings.Builder
	var walk func(PhysicalPlan, int)
	walk = func(n PhysicalPlan, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Explain())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
