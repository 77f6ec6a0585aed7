package main

import (
	"fmt"
	"math/rand"

	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/tpcds"
)

// The traffic parameters that take one value. Where a value is chosen
// rather than taken from a public workload definition, the comment says so.
const (
	// dataScale is the TPC-DS scale: store_sales holds 8,000 rows,
	// inventory 12,000.
	dataScale = 1
	// flushBytes is every region's MemStore flush threshold (a compaction
	// runs when a region reaches four store files). Chosen so that a
	// mixed-rw run goes through many flush and compaction cycles per
	// region and space_amp levels off.
	flushBytes = 12 << 10
	// batchRows is the rows per HBaseRelation.Insert of mixed-rw's writes
	// and of the write probe. Chosen: one small DataFrame write, which
	// spreads over a few of store_sales' regions.
	batchRows = 8
	// zipfS is the Zipf exponent of point-lookup and mixed-rw keys, the
	// one the repository's own skewed write model uses
	// (internal/bench's ingest experiment).
	zipfS = 1.2
	// absentShare is the share of point lookups whose key does not
	// exist. Chosen, so the empty-answer path is timed too.
	absentShare = 0.1
	// newShare is the share of mixed-rw rows that insert a new key rather
	// than update a hot one. Chosen, so the table grows a little while
	// most writes overwrite.
	newShare = 0.1
	// scanWidth is scan-agg's date range, BETWEEN lo AND lo+30: the
	// 30-day window of TPC-DS queries 12, 20 and 98
	// (d_date BETWEEN x AND x + 30 days).
	scanWidth = 30
)

// sizes are the knobs the tests turn; the benchmark runs with
// defaultSizes.
type sizes struct {
	// Setups is how many times a run boots, loads and warms a rig; setup_s
	// is their median and the last rig is the one measured.
	Setups int
	// ProbeWrites is how many batchRows-row inserts of new keys a workload
	// without writes of its own times for write_ack_*, shared out among
	// its set-up rigs.
	ProbeWrites int
	// Width is scan-agg's date range: BETWEEN lo AND lo+Width.
	Width int
	// Warmup ops run untimed after the rig is loaded.
	Warmup int
	// SkipWrites makes mixed-rw run only its reads (the bypass check).
	SkipWrites bool
}

var defaultSizes = sizes{
	Setups:      7,
	ProbeWrites: 2000,
	Width:       scanWidth,
	Warmup:      30,
}

// workload is one named traffic shape.
type workload struct {
	name string
	// opsPerSecond sizes the fixed op count of a run: a run of s seconds
	// executes ceil(s × opsPerSecond) timed ops, about s seconds of work on
	// a 2-core machine.
	opsPerSecond float64
	// tables are read by the workload; warm-up counts each once so every
	// region's view and every connection is built before timing.
	tables []string
	gen    func(g *generator, n int) []op
}

var workloads = []workload{
	{"point-lookup", 8000, []string{"store_sales"}, (*generator).pointLookups},
	{"scan-agg", 1500, []string{"store_sales"}, (*generator).scanAggs},
	{"analytic-join", 70, []string{"inventory", "item", "warehouse", "date_dim"}, (*generator).analyticJoins},
	{"mixed-rw", 200, []string{"store_sales"}, (*generator).mixedRW},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one client step: an optional write, then one read query whose
// answer is known in advance.
type op struct {
	// write rows go in with one HBaseRelation.Insert stamped writeTS.
	write   []plan.Row
	writeTS int64
	sql     string
	want    []plan.Row
	// point marks a full-rowkey lookup (for hbase.get_share).
	point bool
	// liveRows is how many store_sales rows the oracle holds after the op.
	liveRows int
	// probe sends the write to the probe table instead of store_sales.
	probe bool
}

// salesKey is store_sales' rowkey.
type salesKey struct {
	date   int32
	ticket int64
}

func keyOf(r plan.Row) salesKey { return salesKey{r[0].(int32), r[1].(int64)} }

// generator derives a workload's ops from its seed and the generated data,
// keeping the oracle's view of store_sales current as writes are planned.
// Which keys are hot is fixed (hotSeed); the workload seed draws the op
// sequence, so every seed samples one popularity distribution.
type generator struct {
	sz    sizes
	rng   *rand.Rand
	data  *tpcds.Data
	sales map[salesKey]plan.Row
	// hot lists the loaded keys in a fixed shuffled order; Zipf rank r
	// picks hot[r].
	hot        []salesKey
	zipf       *rand.Zipf
	nextTicket int64
	// ts is the last write timestamp handed out (the load writes at 1).
	ts int64
}

func newGenerator(sz sizes, data *tpcds.Data, seed int64) *generator {
	g := &generator{sz: sz, rng: rand.New(rand.NewSource(seed)), data: data, ts: 1}
	g.sales = make(map[salesKey]plan.Row, len(data.StoreSales))
	for _, r := range data.StoreSales {
		k := keyOf(r)
		g.sales[k] = r
		g.hot = append(g.hot, k)
		if k.ticket >= g.nextTicket {
			g.nextTicket = k.ticket + 1
		}
	}
	rand.New(rand.NewSource(hotSeed)).Shuffle(len(g.hot), func(i, j int) { g.hot[i], g.hot[j] = g.hot[j], g.hot[i] })
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.hot)-1))
	return g
}

// hotSeed fixes the popularity order of store_sales keys.
const hotSeed = 7

func (g *generator) hotKey() salesKey { return g.hot[g.zipf.Uint64()] }

// pointSQL selects every data column of one store_sales row by its full
// rowkey.
func pointSQL(k salesKey) string {
	return fmt.Sprintf("SELECT ss_customer_sk, ss_item_sk, ss_quantity, ss_sales_price FROM store_sales "+
		"WHERE ss_sold_date_sk = %d AND ss_ticket_number = %d", k.date, k.ticket)
}

func (g *generator) lookup(k salesKey) op {
	o := op{sql: pointSQL(k), point: true, liveRows: len(g.sales)}
	if r, ok := g.sales[k]; ok {
		o.want = []plan.Row{r[2:]}
	}
	return o
}

func (g *generator) pointLookups(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		k := g.hotKey()
		if g.rng.Float64() < absentShare {
			// The ticket exists under another date only: same key prefix
			// shape, no row.
			k.date = k.date%360 + 1
		}
		ops[i] = g.lookup(k)
	}
	return ops
}

func (g *generator) scanAggs(n int) []op {
	byDate := make(map[int32][]plan.Row)
	for _, r := range g.data.StoreSales {
		byDate[r[0].(int32)] = append(byDate[r[0].(int32)], r)
	}
	ops := make([]op, n)
	for i := range ops {
		lo := 1 + g.rng.Intn(360-g.sz.Width)
		hi := lo + g.sz.Width
		ops[i] = op{
			sql: fmt.Sprintf("SELECT count(*) AS n, sum(ss_sales_price) AS revenue, min(ss_quantity) AS qmin, "+
				"max(ss_quantity) AS qmax FROM store_sales WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, hi),
			want: []plan.Row{scanAggAnswer(byDate, lo, hi)},
		}
	}
	return ops
}

func (g *generator) analyticJoins(n int) []op {
	answers := make(map[[2]int]op)
	ops := make([]op, n)
	for i := range ops {
		moy := 1 + g.rng.Intn(11)
		variant := g.rng.Intn(2)
		key := [2]int{moy, variant}
		o, ok := answers[key]
		if !ok {
			minCov := []float64{1.0, 1.5}[variant]
			o = op{sql: q39SQL(moy, minCov), want: q39Answer(g.data, moy, minCov)}
			answers[key] = o
		}
		ops[i] = o
	}
	return ops
}

func (g *generator) mixedRW(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		if g.sz.SkipWrites {
			ops[i] = g.lookup(g.hotKey())
			continue
		}
		rows := g.writeRows(newShare)
		o := g.lookup(keyOf(rows[g.rng.Intn(len(rows))]))
		o.write, o.writeTS = rows, g.ts
		ops[i] = o
	}
	return ops
}

// writeRows plans one batchRows-row write stamped with the next timestamp: each row
// is a new key with probability newShare, else an update of a hot key.
func (g *generator) writeRows(newShare float64) []plan.Row {
	g.ts++
	rows := make([]plan.Row, 0, batchRows)
	seen := make(map[salesKey]bool, batchRows)
	for len(rows) < batchRows {
		var k salesKey
		if g.rng.Float64() < newShare {
			k = salesKey{int32(1 + g.rng.Intn(360)), g.nextTicket}
			g.nextTicket++
		} else {
			k = g.hotKey()
		}
		// One version per key per write: two cells at the same
		// coordinates and timestamp have no defined winner.
		if seen[k] {
			continue
		}
		seen[k] = true
		rows = append(rows, g.salesRow(k))
	}
	for _, r := range rows {
		g.sales[keyOf(r)] = r
	}
	return rows
}

// probe plans the write probe of a workload without writes: ProbeWrites
// batchRows-row inserts of new keys into the probe table, shared out among
// the set-up rigs.
func (g *generator) probe() []op {
	var writes []op
	for i := 0; i < g.sz.ProbeWrites; i++ {
		writes = append(writes, op{write: g.writeRows(1), writeTS: g.ts, probe: true})
	}
	return writes
}

// salesRow draws fresh column values for key k, in the generator's ranges
// (customers 200 × dataScale, items 50 × dataScale).
func (g *generator) salesRow(k salesKey) plan.Row {
	return plan.Row{
		k.date, k.ticket,
		int32(1 + g.rng.Intn(200*dataScale)),
		int32(1 + g.rng.Intn(50*dataScale)),
		int32(1 + g.rng.Intn(20)),
		1 + g.rng.Float64()*199,
	}
}

// salesRowBytes is the user data in one store_sales row: its values at
// their natural width (int32 4 bytes, int64 and float64 8).
const salesRowBytes = 4 + 8 + 4 + 4 + 4 + 8
