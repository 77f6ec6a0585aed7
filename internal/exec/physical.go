package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// Execute implements PhysicalPlan: the scan's batches as rows.
func (s *ScanExec) Execute(ctx *Context) ([]plan.Row, error) {
	return rowsOf(func(emit func(*plan.Batch) error) error { return s.batches(ctx, emit) })
}

// batches implements batchStream: one task per partition, placed on the
// partition's preferred host, keeps every batch the partition yields
// (datasource.BatchOptions.Keep) — typed vectors, or the rows a source
// decodes whole boxed into one batch. They are emitted in partition order
// once every partition is read. A materialized scan holds every decoded
// row until the query finishes; the streamed pipeline releases per batch,
// and the (MemoryHeld, MemoryPeak) pair makes that difference visible.
func (s *ScanExec) batches(ctx *Context, emit func(*plan.Batch) error) error {
	results := make([][]*plan.Batch, len(s.Partitions))
	tasks := make([]Task, len(s.Partitions))
	for i, p := range s.Partitions {
		tasks[i] = Task{PreferredHost: p.PreferredHost(), Run: func(tctx context.Context) error {
			err := p.Batches(tctx, datasource.BatchOptions{Keep: true}, func(b *plan.Batch) error {
				results[i] = append(results[i], b)
				return nil
			})
			if err != nil {
				return err
			}
			m := metrics.Scoped(tctx, ctx.Meter)
			var bytes int64
			for _, b := range results[i] {
				bytes += b.RowBytes()
				if !b.Boxed() {
					m.Add(metrics.VectorRows, int64(b.Len()))
				}
			}
			m.Add(metrics.MemoryCharged, bytes)
			m.AddPeak(metrics.MemoryHeld, metrics.MemoryPeak, bytes)
			return nil
		}}
	}
	if err := ctx.Scheduler.RunContext(ctx.ctx(), tasks); err != nil {
		return err
	}
	var err error
	for _, b := range slices.Concat(results...) {
		if err = emit(b); err != nil {
			break
		}
	}
	return err
}

// rowsOf materializes the batches run emits as rows.
func rowsOf(run func(emit func(*plan.Batch) error) error) ([]plan.Row, error) {
	var out []plan.Row
	err := run(func(b *plan.Batch) error {
		var err error
		out, err = b.AppendRows(out)
		return err
	})
	return out, err
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
	for _, i := range idx {
		dst = appendKeyValue(dst, r[i])
	}
	return dst
}

// appendKeyValue appends one column of a key as appendKey renders it.
func appendKeyValue(dst []byte, v any) []byte {
	if s, ok := v.(string); ok {
		return appendKeyString(dst, s)
	}
	var scratch [32]byte
	r := appendValue(scratch[:0], v)
	dst = append(strconv.AppendInt(dst, int64(len(r)), 10), ',')
	return append(append(dst, r...), ';')
}

// appendKeyString is appendKeyValue for a string, which it does not box.
func appendKeyString(dst []byte, s string) []byte {
	dst = append(strconv.AppendInt(dst, int64(len(s)), 10), ',')
	return append(append(dst, s...), ';')
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
// an int64-keyed table matches exactly the pairs appendKey's bytes match:
// every integer width, and any other value (the string "7", say) that
// renders as a canonical integer. ok is false for any other value.
func intKey(v any) (k int64, ok bool) {
	if _, f := v.(float64); !f {
		if k, ok := plan.ToInt(v); ok {
			return k, true
		}
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

// maxIntKeys is the most columns an int64-keyed keyMap keys by.
const maxIntKeys = 2

// intTuple is a key tuple of integers: a NULL column is a bit of nulls.
type intTuple struct {
	vals  [maxIntKeys]int64
	nulls uint8
}

// hash mixes every bit of t into the low bits a table masks.
func (t *intTuple) hash() int {
	h := uint64(t.nulls)
	for _, v := range t.vals {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return int(h)
}

// intEntry is an int64 key and its number.
type intEntry struct {
	key intTuple
	g   int32
}

// keyMap numbers key tuples, read from a batch's vectors, densely in
// first-seen order. In an int64-keyed map, one whose key columns are all of
// integer types, a tuple whose values all render as integers (intKey) is
// keyed by those integers in an open-addressing table; any other tuple is
// keyed by its appendKey bytes. Tuples match when their appendKey bytes
// match, except that a NULL matches only a NULL. A key is loaded, then
// looked up.
type keyMap struct {
	intKeyed bool
	n        int32            // numbers given
	strs     map[string]int32 // bytes keys
	slots    []int32          // int64 keys: an entry's index plus one, 0 empty
	entries  []intEntry
	isInt    bool     // the loaded key is tuple, not buf
	tuple    intTuple // the loaded key
	buf      []byte
}

// newKeyMap returns a keyMap sized for hint tuples.
func newKeyMap(intKeyed bool, hint int) keyMap {
	if !intKeyed {
		return keyMap{strs: make(map[string]int32, hint)}
	}
	n := 16
	for n < 2*hint {
		n *= 2
	}
	return keyMap{intKeyed: true, slots: make([]int32, n), entries: make([]intEntry, 0, hint)}
}

// load reads row i's key over cols. Join and aggregate batches hold no
// lazy vector, the one kind whose Value fails.
func (m *keyMap) load(cols []*plan.Vector, i int) {
	if m.isInt = m.intKeyed && m.loadInts(cols, i); m.isInt {
		return
	}
	m.buf = m.buf[:0]
	for _, v := range cols {
		if v.Kind == plan.KindString && !v.Null(i) {
			m.buf = appendKeyString(m.buf, v.Strings[i])
		} else {
			x, _ := v.Value(i)
			m.buf = appendKeyValue(m.buf, x)
		}
	}
}

// loadInts loads row i's key as a tuple of integers, reporting false when
// a value does not render as one.
func (m *keyMap) loadInts(cols []*plan.Vector, i int) bool {
	m.tuple = intTuple{}
	for c, v := range cols {
		switch {
		case v.Null(i):
			m.tuple.nulls |= 1 << c
		case v.Kind == plan.KindInt64:
			m.tuple.vals[c] = v.Int64s[i]
		default:
			x, _ := v.Value(i)
			k, ok := intKey(x)
			if !ok {
				return false
			}
			m.tuple.vals[c] = k
		}
	}
	return true
}

// lookup returns the loaded key's number; a key without one gets the next
// number when add is set, else -1. seen reports that it had one.
func (m *keyMap) lookup(add bool) (g int32, seen bool) {
	slot := 0
	if m.isInt {
		mask := len(m.slots) - 1
		for slot = m.tuple.hash() & mask; m.slots[slot] != 0; slot = (slot + 1) & mask {
			if e := &m.entries[m.slots[slot]-1]; e.key == m.tuple {
				return e.g, true
			}
		}
	} else if g, seen = m.strs[string(m.buf)]; seen {
		return g, true
	}
	if !add {
		return -1, false
	}
	g, m.n = m.n, m.n+1
	if !m.isInt {
		if m.strs == nil {
			m.strs = make(map[string]int32)
		}
		m.strs[string(m.buf)] = g
		return g, false
	}
	m.entries = append(m.entries, intEntry{m.tuple, g})
	m.slots[slot] = int32(len(m.entries))
	if 2*len(m.entries) > len(m.slots) {
		m.slots = make([]int32, 2*len(m.slots))
		mask := len(m.slots) - 1
		for j := range m.entries {
			s := m.entries[j].key.hash() & mask
			for m.slots[s] != 0 {
				s = (s + 1) & mask
			}
			m.slots[s] = int32(j + 1)
		}
	}
	return g, false
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

// HashJoinExec is an equi-join over batches that broadcasts its build
// side: one joinTable is built over the build side's batches, and each
// probe batch is joined into a batch of its selected rows beside the build
// rows they match. An inner join builds on the smaller side; a left-outer
// join builds on the right and NULL-extends its unmatched left rows.
// Output follows probe order.
//
// A child that is itself a hash join streams its batches into the probe,
// so a chain of joins under a HashAggExec hands each joined batch to the
// aggregate's fold and materializes no row.
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

// Execute implements PhysicalPlan: the join's output as rows, which it
// carves straight from its inputs (prober.joinRows).
func (j *HashJoinExec) Execute(ctx *Context) ([]plan.Row, error) {
	return rowsOf(func(emit func(*plan.Batch) error) error { return j.run(ctx, true, emit) })
}

// batchStream is a scan or a hash join, instrumented or not: an operator
// that can hand its output to a consumer as owned batches, which the
// consumer may keep.
type batchStream interface {
	batches(ctx *Context, emit func(*plan.Batch) error) error
}

// operator returns p's operator, instrumented or not.
func operator(p PhysicalPlan) PhysicalPlan {
	if n, ok := p.(*instrumented); ok {
		return n.inner
	}
	return p
}

// isHashJoin reports whether p is a hash join, instrumented or not.
func isHashJoin(p PhysicalPlan) bool {
	_, ok := operator(p).(*HashJoinExec)
	return ok
}

// eachBatch hands p's output to fn batch by batch (collectBatches). A
// hash join streams its batches into fn, so fn runs inside its span; any
// other output is collected first.
func eachBatch(ctx *Context, p PhysicalPlan, fn func(*plan.Batch) error) error {
	if isHashJoin(p) {
		return p.(batchStream).batches(ctx, fn)
	}
	bs, err := collectBatches(ctx, p)
	for i := 0; err == nil && i < len(bs); i++ {
		err = fn(bs[i])
	}
	return err
}

// collectBatches returns p's whole output as batches: a scan's and a hash
// join's own, any other operator's rows boxed into one.
func collectBatches(ctx *Context, p PhysicalPlan) ([]*plan.Batch, error) {
	switch operator(p).(type) {
	case *HashJoinExec, *ScanExec:
		var out []*plan.Batch
		err := p.(batchStream).batches(ctx, func(b *plan.Batch) error {
			out = append(out, b)
			return nil
		})
		return out, err
	}
	rows, err := p.Execute(ctx)
	return []*plan.Batch{plan.BoxedBatch(p.Schema(), rows)}, err
}

// batches implements batchStream.
func (j *HashJoinExec) batches(ctx *Context, emit func(*plan.Batch) error) error {
	return j.run(ctx, false, emit)
}

// run joins on the caller's goroutine, emitting batches of rows when rows
// is set (the consumer reads rows) and of vectors otherwise. A child that
// is itself a hash join is the probe side and streams into it — for a
// left-outer join only the left child may, since the left side is the one
// NULL-extended — and the other child is built. When neither child
// streams, both are collected, and an inner join builds on whichever side
// turned out smaller.
func (j *HashJoinExec) run(ctx *Context, rows bool, emit func(*plan.Batch) error) error {
	lKey, rKey := keyIndexes(j.LeftKeys), keyIndexes(j.RightKeys)
	if lKey == nil || rKey == nil {
		return fmt.Errorf("exec: join keys must be resolved column references")
	}
	lSchema, rSchema := j.Left.Schema(), j.Right.Schema()
	streamLeft := isHashJoin(j.Left)
	streamRight := !streamLeft && j.Type == plan.InnerJoin && isHashJoin(j.Right)
	var left, right []*plan.Batch
	var err error
	if !streamLeft {
		left, err = collectBatches(ctx, j.Left)
	}
	if err == nil && !streamRight {
		right, err = collectBatches(ctx, j.Right)
	}
	if err != nil {
		return err
	}
	intKeyed := len(lKey) <= maxIntKeys
	for k := range lKey {
		intKeyed = intKeyed && integer(lSchema[lKey[k]].Type) && integer(rSchema[rKey[k]].Type)
	}
	pr := &prober{key: lKey, outer: j.Type == plan.LeftOuterJoin, rows: rows, schema: j.OutSchema}
	probe, build, bKey, bSchema := left, right, rKey, rSchema
	if streamRight || !streamLeft && j.Type == plan.InnerJoin && batchRows(left) < batchRows(right) {
		probe, build, bKey, bSchema = right, left, lKey, lSchema
		pr.key, pr.buildLeft = rKey, true
	}
	b, err := plan.Concat(bSchema, build)
	if err != nil {
		return err
	}
	pr.table = buildTable(b, bKey, intKeyed)
	// One consumer reads the build side: a broadcast moves it once.
	m := ctx.meter()
	m.Add(metrics.ShuffleBytes, b.RowBytes())
	m.Add(metrics.ShuffleRecords, int64(b.Len()))
	each := func(pb *plan.Batch) error {
		out, err := pr.join(pb)
		if err != nil || out.Len() == 0 {
			return err
		}
		return emit(out)
	}
	switch {
	case streamLeft:
		return j.Left.(batchStream).batches(ctx, each)
	case streamRight:
		return j.Right.(batchStream).batches(ctx, each)
	}
	for i := 0; err == nil && i < len(probe); i++ {
		err = each(probe[i])
	}
	return err
}

// batchRows counts the rows of bs.
func batchRows(bs []*plan.Batch) int {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	return n
}

// keyCols returns b's columns at idx, appended to dst[:0].
func keyCols(dst []*plan.Vector, b *plan.Batch, idx []int) []*plan.Vector {
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, b.Cols[i])
	}
	return dst
}

// joinTable is a hash join's build side: a batch whose rows are grouped by
// key, each group's row indexes contiguous and in build order. Rows with a
// NULL key are left out — SQL NULL keys never match.
type joinTable struct {
	keys  keyMap         // key → group
	cols  []*plan.Vector // scratch: a probe batch's key columns
	start []int32        // group g's rows are rows[start[g]:start[g+1]]
	rows  []int32
	batch *plan.Batch
	boxed []plan.Row // batch's rows, boxed when a probe batch of rows first needs them
}

// buildTable groups b's rows by their key at idx, in an int64-keyed table
// when intKeyed.
func buildTable(b *plan.Batch, idx []int, intKeyed bool) *joinTable {
	t := &joinTable{batch: b, keys: newKeyMap(intKeyed, b.Len())}
	cols := keyCols(nil, b, idx)
	gid := make([]int32, b.Len()) // each row's group, -1 for a NULL key
	for i := range gid {
		gid[i] = -1
		if !hasNull(cols, i) {
			t.keys.load(cols, i)
			gid[i], _ = t.keys.lookup(true)
		}
	}
	// A counting sort by group keeps each group's rows contiguous and in
	// build order, in two allocations.
	groups := int(t.keys.n)
	t.start = make([]int32, groups+1)
	for _, g := range gid {
		if g >= 0 {
			t.start[g+1]++
		}
	}
	for g := 1; g <= groups; g++ {
		t.start[g] += t.start[g-1]
	}
	t.rows = make([]int32, t.start[groups])
	next := append([]int32(nil), t.start[:groups]...)
	for i, g := range gid {
		if g >= 0 {
			t.rows[next[g]] = int32(i)
			next[g]++
		}
	}
	return t
}

// find returns the group row i's key over cols falls in, or -1 for none.
func (t *joinTable) find(cols []*plan.Vector, i int) int32 {
	if hasNull(cols, i) {
		return -1
	}
	t.keys.load(cols, i)
	g, _ := t.keys.lookup(false)
	return g
}

// prober joins probe batches against a broadcast joinTable.
type prober struct {
	table     *joinTable
	key       []int // the probe side's key columns
	outer     bool  // left-outer: NULL-extend unmatched probe rows
	buildLeft bool  // the build side is the join's left input
	rows      bool  // emit rows (joinRows), not vectors
	schema    plan.Schema
	// Scratch: each probe row's group, then the probe and build row of
	// each output row.
	groups, probeIdx, buildIdx []int32
}

// join returns probe batch pb joined: each row once per build row its key
// matches, in order, with an unmatched row of a left-outer join
// NULL-extended. Where every row matches exactly one build row, pb's
// vectors are the output's as they are. A prober that emits rows joins
// into rows (joinRows).
func (p *prober) join(pb *plan.Batch) (*plan.Batch, error) {
	t := p.table
	t.cols = keyCols(t.cols, pb, p.key)
	gs := slices.Grow(p.groups[:0], pb.Len())[:pb.Len()]
	p.groups = gs
	n, same := 0, true
	for i := range gs {
		g := t.find(t.cols, i)
		gs[i] = g
		switch {
		case g >= 0:
			m := int(t.start[g+1] - t.start[g])
			n, same = n+m, same && m == 1
		case p.outer:
			n, same = n+1, false
		default:
			same = false
		}
	}
	var pi, bi []int32 // pi nil: the probe rows in order
	if same {
		bi = gs
		for i, g := range gs {
			bi[i] = t.rows[t.start[g]]
		}
	} else {
		pi = slices.Grow(p.probeIdx[:0], n)
		bi = slices.Grow(p.buildIdx[:0], n)
		for i, g := range gs {
			switch {
			case g >= 0:
				for _, r := range t.rows[t.start[g]:t.start[g+1]] {
					pi, bi = append(pi, int32(i)), append(bi, r)
				}
			case p.outer:
				pi, bi = append(pi, int32(i)), append(bi, -1)
			}
		}
		p.probeIdx, p.buildIdx = pi, bi
	}
	if p.rows {
		return p.joinRows(pb, pi, bi)
	}
	probed := pb.Cols
	if pi != nil {
		probed = make([]*plan.Vector, len(pb.Cols))
		for c, v := range pb.Cols {
			probed[c] = v.Gather(pi)
		}
	}
	cols := make([]*plan.Vector, 0, len(p.schema))
	if !p.buildLeft {
		cols = append(cols, probed...)
	}
	for _, v := range t.batch.Cols {
		cols = append(cols, v.Gather(bi))
	}
	if p.buildLeft {
		cols = append(cols, probed...)
	}
	out := &plan.Batch{Schema: p.schema, Cols: cols}
	out.SetLen(n)
	return out, nil
}

// joinRows returns pb joined as rows: output row k is probe row pi[k] (row
// k when pi is nil) beside build row bi[k], NULLs for -1, in the schema's
// order, all carved from one slab. Rows are copied from a BoxedBatch as
// they are, and boxed from any other batch.
func (p *prober) joinRows(pb *plan.Batch, pi, bi []int32) (*plan.Batch, error) {
	t := p.table
	probe, err := pb.AppendRows(nil)
	if err == nil && t.boxed == nil {
		t.boxed, err = t.batch.AppendRows(nil)
	}
	if err != nil {
		return nil, err
	}
	w, pw := len(p.schema), len(pb.Cols)
	po, bo := 0, pw // where the probe and the build values go
	if p.buildLeft {
		po, bo = w-pw, 0
	}
	slab := make([]any, len(bi)*w)
	rows := make([]plan.Row, len(bi))
	for k, b := range bi {
		r, i := slab[k*w:(k+1)*w:(k+1)*w], k
		if pi != nil {
			i = int(pi[k])
		}
		copy(r[po:po+pw], probe[i])
		if b >= 0 {
			copy(r[bo:bo+w-pw], t.boxed[b])
		}
		rows[k] = r
	}
	return plan.BoxedBatch(p.schema, rows), nil
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

// hasNull reports whether row i is NULL in any of cols.
func hasNull(cols []*plan.Vector, i int) bool {
	for _, v := range cols {
		if v.Null(i) {
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

// aggState is one aggregate's partial state. Which fields it uses depends
// on the aggregate, so they are shared: sum is stddev_samp's Welford
// running mean, and best is min's or max's value.
type aggState struct {
	count    int64
	sum      float64
	m2       float64 // stddev_samp's Welford running squared deviation
	best     any
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
		if key := appendKeyValue(scratch[:0], v); !s.distinct[string(key)] {
			s.distinct[string(key)] = true
		}
	case plan.AggSum, plan.AggAvg, plan.AggStddevSamp:
		f, ok := plan.ToFloat(v)
		if !ok {
			return fmt.Errorf("exec: %s over non-numeric %T", kind, v)
		}
		s.add(kind, f)
	case plan.AggMin, plan.AggMax:
		if s.best == nil {
			s.best = v
		} else if c, err := plan.Compare(v, s.best); err != nil {
			return err
		} else if kind == plan.AggMin && c < 0 || kind == plan.AggMax && c > 0 {
			s.best = v
		}
	}
	return nil
}

// updateAt folds entry i of v. Counts, sums, avgs and stddevs read an
// integer or float vector unboxed, and a numeric extreme boxes only the
// value that beats it; anything else goes through update.
func (s *aggState) updateAt(kind plan.AggKind, v *plan.Vector, i int) error {
	if v.Null(i) {
		return nil
	}
	f, typed := 0.0, true
	switch v.Kind {
	case plan.KindInt64:
		f = float64(v.Int64s[i])
	case plan.KindFloat64:
		f = v.Float64s[i]
	default:
		typed = false
	}
	switch {
	case !typed || kind == plan.AggCountDistinct:
	case kind == plan.AggMin || kind == plan.AggMax:
		if b, ok := plan.ToFloat(s.best); ok && (f >= b) == (kind == plan.AggMin) {
			return nil
		}
	default:
		s.add(kind, f)
		return nil
	}
	x, err := v.Value(i)
	if err != nil {
		return err
	}
	return s.update(kind, x)
}

// updateSel folds v's entries at sel: an integer or float vector through a
// typed loop, in which an extreme finds the batch's first best entry
// (compared as float64, as plan.Compare does) and updates with it alone.
func (s *aggState) updateSel(kind plan.AggKind, v *plan.Vector, sel []int) error {
	switch {
	case kind == plan.AggCountDistinct:
	case v.Kind == plan.KindInt64:
		return updateNums(s, kind, v, v.Int64s, sel)
	case v.Kind == plan.KindFloat64:
		return updateNums(s, kind, v, v.Float64s, sel)
	}
	for _, i := range sel {
		if err := s.updateAt(kind, v, i); err != nil {
			return err
		}
	}
	return nil
}

func updateNums[T int64 | float64](s *aggState, kind plan.AggKind, v *plan.Vector, data []T, sel []int) error {
	extreme, best := kind == plan.AggMin || kind == plan.AggMax, -1
	for _, i := range sel {
		switch {
		case v.Null(i):
		case !extreme:
			s.add(kind, float64(data[i]))
		case best < 0 || kind == plan.AggMin && float64(data[i]) < float64(data[best]) ||
			kind == plan.AggMax && float64(data[i]) > float64(data[best]):
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return s.updateAt(kind, v, best)
}

// add folds a non-NULL value, read as f, into a count, sum, avg or
// stddev_samp.
func (s *aggState) add(kind plan.AggKind, f float64) {
	s.count++
	switch kind {
	case plan.AggSum, plan.AggAvg:
		s.sum += f
	case plan.AggStddevSamp:
		d := f - s.sum
		s.sum += d / float64(s.count)
		s.m2 += d * (f - s.sum)
	}
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
		d := o.sum - s.sum
		s.m2 += o.m2 + d*d*float64(s.count)*float64(o.count)/n
		s.sum += d * float64(o.count) / n
		s.count += o.count
	case plan.AggMin, plan.AggMax:
		if o.best != nil {
			return s.update(kind, o.best)
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
	case plan.AggMin, plan.AggMax:
		return s.best
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
	// Phase 1: local partial aggregation over the child's batches; a hash
	// join streams them into the fold.
	f := newGroupFold(a)
	if err := eachBatch(ctx, a.Child, f.add); err != nil {
		return nil, err
	}
	// Phase 2: the partial states cross the exchange (metered shuffle).
	m := ctx.meter()
	m.Add(metrics.ShuffleBytes, f.shuffleBytes)
	m.Add(metrics.ShuffleRecords, int64(len(f.groups)))
	// Phase 3: finalize on the caller, every output row carved from one
	// slab. A global aggregate over no rows still makes one row.
	if len(a.GroupBy) == 0 && len(f.groups) == 0 {
		f.newGroup(0)
	}
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
	return out, nil
}

// groupFold folds batches into a HashAggExec's groups, reading group and
// argument values from typed vectors. Groups are numbered through a
// keyMap, int64-keyed when every group column is of an integer type, and
// kept in first-seen input order, so the output order never depends on map
// iteration. Only a new group boxes its values; its
// accumulator, values and states are carved from chunked slabs.
type groupFold struct {
	a            *HashAggExec
	intKeyed     bool
	keys         keyMap
	groups       []*accumulator
	shuffleBytes int64
	cols         []*plan.Vector // scratch: a batch's group columns
	gids         []int32        // scratch: each row's group
	accs         slab[accumulator]
	groupVals    slab[any]
	states       slab[aggState]
}

func newGroupFold(a *HashAggExec) *groupFold {
	intKeyed := len(a.GroupBy) <= maxIntKeys
	for _, g := range a.GroupBy {
		intKeyed = intKeyed && integer(g.Expr.Type())
	}
	return &groupFold{a: a, intKeyed: intKeyed}
}

// add folds batch b into its groups: each row's group is found first, then
// each aggregate folds its argument column.
func (f *groupFold) add(b *plan.Batch) error {
	a := f.a
	if len(f.groups) == 0 {
		// The first rows size the keys: they hold at most as many groups,
		// and a global aggregate's one.
		f.keys = newKeyMap(f.intKeyed, min(b.Len(), 1+len(a.GroupBy)*b.Len()))
	}
	var rows []plan.Row // b's rows, boxed only if an expression needs them
	f.cols = f.cols[:0]
	for _, g := range a.GroupBy {
		v, err := exprVector(g.Expr, b, &rows)
		if err != nil {
			return err
		}
		f.cols = append(f.cols, v)
	}
	f.gids = f.gids[:0]
	for i := 0; i < b.Len(); i++ {
		f.keys.load(f.cols, i)
		g, seen := f.keys.lookup(true)
		if !seen {
			f.newGroup(i)
		}
		f.gids = append(f.gids, g)
	}
	for k, agg := range a.Aggs {
		if agg.Arg == nil {
			if agg.Kind != plan.AggCount && b.Len() > 0 {
				return fmt.Errorf("exec: %s requires an argument", agg.Kind)
			}
			for _, g := range f.gids {
				f.groups[g].states[k].count++ // COUNT(*) counts rows
			}
			continue
		}
		v, err := exprVector(agg.Arg, b, &rows)
		if err != nil {
			return err
		}
		for i, g := range f.gids {
			if err := f.groups[g].states[k].updateAt(agg.Kind, v, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// newGroup opens the group of row i of the loaded group columns.
func (f *groupFold) newGroup(i int) {
	acc := &f.accs.take(1)[0]
	acc.groupVals = f.groupVals.take(len(f.cols))
	for c, v := range f.cols {
		acc.groupVals[c], _ = v.Value(i)
	}
	acc.states = f.states.take(len(f.a.Aggs))
	f.groups = append(f.groups, acc)
	f.shuffleBytes += int64(acc.stateSize())
}

// exprVector returns e's value on each row of b: b's column for a column
// reference, else e evaluated on b's rows (boxed into *rows once), boxed.
func exprVector(e plan.Expr, b *plan.Batch, rows *[]plan.Row) (*plan.Vector, error) {
	if c, ok := e.(*plan.ColumnRef); ok && c.Index() >= 0 {
		return b.Cols[c.Index()], nil
	}
	if *rows == nil {
		var err error
		if *rows, err = b.AppendRows(nil); err != nil {
			return nil, err
		}
	}
	v := &plan.Vector{Kind: plan.KindAny, Typ: e.Type()}
	for _, r := range *rows {
		x, err := e.Eval(r)
		if err != nil {
			return nil, err
		}
		_ = v.Append(x) // a KindAny vector stores any value
	}
	return v, nil
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

// Explain renders the whole physical tree: ExplainAnalyzed, which adds
// actuals only to instrumented operators.
func Explain(p PhysicalPlan) string { return ExplainAnalyzed(p) }
