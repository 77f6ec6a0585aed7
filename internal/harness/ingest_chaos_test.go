package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/rpc"
)

// ingestApplyCounter counts, across every region server, how many times each
// (writer, seq, region) stamped batch was actually applied. Dedup-suppressed
// replays do not fire the hook, so any count above one is a real double-apply
// — the thing reads cannot see when the retried cells are identical.
type ingestApplyCounter struct {
	mu      sync.Mutex
	applies map[string]int
}

func (a *ingestApplyCounter) hook() func(string, uint64, string) {
	return func(writer string, seq uint64, region string) {
		a.mu.Lock()
		a.applies[fmt.Sprintf("%s/%d@%s", writer, seq, region)]++
		a.mu.Unlock()
	}
}

func (a *ingestApplyCounter) maxApplies() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	max := 0
	for _, n := range a.applies {
		if n > max {
			max = n
		}
	}
	return max
}

// TestIngestExactlyOnceUnderChaos is the write-path property test: a buffered
// mutator streams cells into a table while (1) seeded ack-lost faults discard
// MultiPut replies after the handler ran, (2) the region server hosting the
// table crashes mid-run and its regions are reassigned with WAL replay, and
// (3) the janitor splits the table's hot regions underneath the retries.
// Whatever the schedule — CHAOS_SEED sweeps it in CI — every acked batch must
// land exactly once: no stamped batch applies twice anywhere, and the final
// scan holds every row exactly once.
func TestIngestExactlyOnceUnderChaos(t *testing.T) {
	base := chaosSeed(t)
	for _, delta := range []int64{0, 1, 2} {
		seed := base + delta
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rig, err := NewRig(Config{
				System: SHC, Servers: 3, SkipLoad: true,
				Janitor: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rig.Close()
			// Auto-split on: the janitor splits any region whose write load
			// since its last pass crossed the threshold.
			rig.Cluster.Master.SetHotWriteThreshold(150)

			if err := rig.Client.CreateTable(hbase.TableDescriptor{Name: "ingest", Families: []string{"cf"}}, nil); err != nil {
				t.Fatal(err)
			}
			counter := &ingestApplyCounter{applies: make(map[string]int)}
			for _, rs := range rig.Cluster.Servers {
				rs.SetBatchAppliedHook(counter.hook())
			}

			regions, err := rig.Client.Regions("ingest")
			if err != nil {
				t.Fatal(err)
			}
			victim := regions[0].Host

			var crashOnce sync.Once
			inj := rpc.NewFaultInjector(seed,
				// The fourth MultiPut kills the hosting server outright — its
				// WAL is replayed on the survivors, dedup windows included —
				// and the reply is lost, so the client must retry blind.
				&rpc.FaultRule{
					Host: victim, Method: hbase.MethodMultiPut, SkipFirst: 3, FailNext: 1,
					DropReply: true, Err: rpc.ErrConnClosed,
					OnFire: func() {
						crashOnce.Do(func() {
							if err := rig.Cluster.CrashServer(victim); err != nil {
								t.Errorf("crash %s: %v", victim, err)
							}
							if _, err := rig.Cluster.Master.CheckServers(); err != nil {
								t.Errorf("heartbeat round: %v", err)
							}
						})
					},
				},
				// Seeded background ack loss on every MultiPut: the handler
				// runs, the effects stand, the caller sees a dead connection.
				&rpc.FaultRule{Method: hbase.MethodMultiPut, FailProb: 0.15, DropReply: true, Err: rpc.ErrConnClosed},
			)
			rig.Cluster.Net.SetFaultInjector(inj)

			const n = 600
			ctx := context.Background()
			mut := rig.Client.NewMutator("ingest", hbase.MutatorConfig{
				FlushBytes: 512, MaxAttempts: 25,
			})
			for i := 0; i < n; i++ {
				c := hbase.Cell{
					Row: []byte(fmt.Sprintf("row-%04d", i)), Family: "cf", Qualifier: "q",
					Timestamp: 1, Type: hbase.TypePut, Value: []byte(fmt.Sprintf("v-%04d", i)),
				}
				if err := mut.Mutate(ctx, c); err != nil {
					t.Fatalf("mutate %d: %v", i, err)
				}
			}
			if err := mut.Close(ctx); err != nil {
				t.Fatalf("close: %v", err)
			}

			if inj.Fired() == 0 {
				t.Fatal("no faults fired; the schedule was vacuous")
			}
			// Exactly-once, server side: no stamped batch applied twice in any
			// region, however the retries regrouped across splits and
			// reassignments.
			if got := counter.maxApplies(); got > 1 {
				t.Errorf("a stamped batch applied %d times", got)
			}
			// Exactly-once, data side: every acked row present, no row lost.
			rig.Client.InvalidateRegions("ingest")
			results, err := rig.Client.ScanTable("ingest", &hbase.Scan{})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != n {
				t.Fatalf("scan after chaos ingest = %d rows, want %d", len(results), n)
			}
			for i, res := range results {
				wantRow := fmt.Sprintf("row-%04d", i)
				if string(res.Row) != wantRow {
					t.Fatalf("row %d = %q, want %q", i, res.Row, wantRow)
				}
				if len(res.Cells) != 1 || string(res.Cells[0].Value) != fmt.Sprintf("v-%04d", i) {
					t.Fatalf("row %q holds %d cells / %q", res.Row, len(res.Cells), res.Cells[0].Value)
				}
			}
			if rig.Meter.Get(metrics.BatchesDeduped) == 0 {
				t.Error("no retry was deduplicated; ack-lost faults did not bite")
			}
			if rig.Meter.Get(metrics.JanitorRuns) == 0 {
				t.Error("janitor never ran")
			}
		})
	}
}
