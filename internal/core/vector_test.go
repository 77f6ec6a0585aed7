package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/exec"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// keptBatches reads p through a Keep stream and returns the batches it
// kept.
func keptBatches(t *testing.T, p datasource.Partition, opts datasource.BatchOptions) []*plan.Batch {
	t.Helper()
	opts.Keep = true
	var out []*plan.Batch
	err := p.Batches(context.Background(), opts, func(b *plan.Batch) error {
		out = append(out, b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// batchesRows boxes the rows of bs, in order.
func batchesRows(t *testing.T, bs []*plan.Batch) []plan.Row {
	t.Helper()
	var out []plan.Row
	for _, b := range bs {
		var err error
		if out, err = b.AppendRows(out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// keptRows reads p's rows through a Keep stream.
func keptRows(t *testing.T, p datasource.Partition, opts datasource.BatchOptions) []plan.Row {
	t.Helper()
	return batchesRows(t, keptBatches(t, p, opts))
}

// streamedRows reads p through a stream without Keep, boxing each
// batch's rows inside its yield — the representation the pipeline's
// output sees.
func streamedRows(t *testing.T, p datasource.Partition, opts datasource.BatchOptions) []plan.Row {
	t.Helper()
	opts.Keep = false
	var out []plan.Row
	err := p.Batches(context.Background(), opts, func(b *plan.Batch) error {
		var err error
		out, err = b.AppendRows(out)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestVectorBatchesMatchRowPath pins the columnar decode layer: every
// partition of a fused scan, streamed through one pooled batch — eager,
// partially lazy, and with a limit hint — materializes byte-identically to
// its kept batches, rowkey-backed columns included.
func TestVectorBatchesMatchRowPath(t *testing.T) {
	rig := newRig(t, Options{}, 700)
	parts, _, err := rig.rel.BuildScan([]string{"id", "age", "city", "score"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("want multiple partitions, got %d", len(parts))
	}
	optVariants := []struct {
		name string
		opts datasource.BatchOptions
	}{
		{"all-eager", datasource.BatchOptions{}},
		{"lazy-tail", datasource.BatchOptions{EagerColumns: []int{1}}}, // only age eager
		{"limit-hint", datasource.BatchOptions{LimitHint: 13}},
	}
	for _, v := range optVariants {
		var rowAll, vecAll []plan.Row
		for _, p := range parts {
			rowAll = append(rowAll, keptRows(t, p, v.opts)...)
			vecAll = append(vecAll, streamedRows(t, p, v.opts)...)
		}
		if len(rowAll) == 0 {
			t.Fatalf("%s: row path returned nothing", v.name)
		}
		if !reflect.DeepEqual(rowAll, vecAll) {
			t.Fatalf("%s: vector path differs from row path (%d vs %d rows)", v.name, len(vecAll), len(rowAll))
		}
	}
	if rig.meter.Get(metrics.ColumnarPages) == 0 {
		t.Error("no fused page traveled column-major; the CellBlock path never engaged")
	}
}

// countingCoder counts the values of one type its coder decodes.
type countingCoder struct {
	FieldCoder
	typ plan.DataType
	n   atomic.Int64
}

func (c *countingCoder) Decode(b []byte, t plan.DataType) (any, error) {
	if t == c.typ {
		c.n.Add(1)
	}
	return c.FieldCoder.Decode(b, t)
}

// TestVectorPipelineDecodesOnlySurvivors pins late materialization: a
// vectorized filter+project over an HBase scan decodes a column outside
// the filter only for the rows the filter keeps.
func TestVectorPipelineDecodesOnlySurvivors(t *testing.T) {
	rig := newRig(t, Options{}, 300)
	coder := &countingCoder{FieldCoder: rig.rel.coder, typ: plan.TypeFloat64}
	rig.rel.coder = coder
	// NOT IN never pushes down, so the pipeline filters; score is lazy.
	lp := &plan.ProjectNode{
		Exprs: []plan.NamedExpr{{Expr: plan.Col("id"), Name: "id"}, {Expr: plan.Col("score"), Name: "score"}},
		Child: &plan.FilterNode{
			Cond:  &plan.In{E: plan.Col("city"), Values: []plan.Expr{plan.Lit("sf"), plan.Lit("la")}, Negate: true},
			Child: &plan.ScanNode{Relation: rig.rel},
		},
	}
	phys, err := exec.CompileWith(plan.Optimize(lp), exec.CompileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewRegistry()
	rows, err := phys.Execute(&exec.Context{Scheduler: exec.NewScheduler([]string{"h1"}, 2, m), Meter: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want the 100 in nyc", len(rows))
	}
	if got := coder.n.Load(); got != int64(len(rows)) {
		t.Errorf("decoded score %d times for %d surviving rows of 300", got, len(rows))
	}
}

// TestVectorBatchPoolReuse is the allocs/op assertion for the fused pager's
// batch pool: once warm, a get/put cycle for the same scan shape must reuse
// the pooled batch outright and allocate nothing per batch.
func TestVectorBatchPoolReuse(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop a fraction of Puts on
		// purpose, so neither pointer reuse nor the alloc count below is
		// deterministic under -race.
		t.Skip("sync.Pool sheds Puts under the race detector")
	}
	rig := newRig(t, Options{}, 0)
	specs, schema, lazyDec := rig.rel.vecSpecs([]string{"id", "age", "score"}, []int{1})
	warm := getBatch(schema, specs, lazyDec)
	warm.Cols[0].AppendRaw([]byte("k"))
	warm.Cols[1].AppendInt64(1)
	warm.Cols[2].AppendRaw([]byte("v"))
	warm.SetLen(1)
	putBatch(warm)
	got := getBatch(schema, specs, lazyDec)
	if got != warm {
		t.Fatal("pool handed back a different batch for the same shape")
	}
	if got.Len() != 0 || got.Cols[1].Len() != 0 {
		t.Fatal("pooled batch came back dirty")
	}
	putBatch(got)
	allocs := testing.AllocsPerRun(200, func() {
		b := getBatch(schema, specs, lazyDec)
		b.Cols[0].AppendRaw([]byte("k"))
		b.Cols[1].AppendInt64(1)
		b.SetLen(1)
		putBatch(b)
	})
	// One allocation of slack for pool internals; the point is that batch
	// and vector construction (4+ allocations each) no longer happen per
	// batch.
	if allocs > 1 {
		t.Errorf("get/put cycle allocates %.1f objects per batch, want <= 1", allocs)
	}
}

// TestVectorBatchesFollowRegionMove pins cursor-exact resume on the
// columnar pager: draining a server mid-scan (regions move, epochs bump)
// must not lose, duplicate, or reorder rows relative to an undisturbed
// kept scan.
func TestVectorBatchesFollowRegionMove(t *testing.T) {
	// Enough rows that every partition spans several pages, so the drain
	// lands between pages of an in-flight scan.
	rig := newRig(t, Options{}, 12*fusedBatchRows)
	parts, _, err := rig.rel.BuildScan([]string{"id", "age"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]plan.Row)
	for i, p := range parts {
		want[i] = keptRows(t, p, datasource.BatchOptions{})
	}
	drained := false
	for i, p := range parts {
		var got []plan.Row
		pages := 0
		err := p.Batches(context.Background(), datasource.BatchOptions{}, func(b *plan.Batch) error {
			pages++
			if pages == 2 && !drained {
				drained = true
				drainPartitionHost(t, rig)
			}
			for j := 0; j < b.Len(); j++ {
				r, err := b.MaterializeRow(j)
				if err != nil {
					return err
				}
				got = append(got, r)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("partition %d: rows diverged after region move (%d vs %d)", i, len(got), len(want[i]))
		}
	}
	if !drained {
		t.Fatal("scan finished before the drain fired; load more rows")
	}
}

// drainPartitionHost gracefully drains the server hosting the first users
// region, relocating its regions under bumped epochs.
func drainPartitionHost(t *testing.T, rig *testRig) {
	t.Helper()
	regions, err := rig.client.Regions("users")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.cluster.Master.DrainServer(regions[0].Host); err != nil {
		t.Fatal(err)
	}
}
