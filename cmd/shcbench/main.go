// Command shcbench regenerates every table and figure of the paper's
// evaluation (§VII) on the simulated stack:
//
//	shcbench -exp all                # everything
//	shcbench -exp fig4 -scales 1,2,3 # query latency at selected scales
//	shcbench -exp table2             # encoding comparison
//	shcbench -exp ablation           # per-optimization breakdown
//	shcbench -exp vector             # vectorized vs row-at-a-time execution
//
// Scale stands in for the paper's 5–30 GB axis: scale s generates s× the
// base TPC-DS row counts. Absolute numbers depend on the machine; the
// shapes (who wins, by what factor, where curves flatten) are the
// reproduction target, recorded in EXPERIMENTS.md.
//
// Each experiment also writes its structured results — series points,
// rows/sec, p50/p99 latencies — to BENCH_<exp>.json in the -json directory,
// so CI gates and plots consume numbers instead of scraping stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/shc-go/shc/internal/bench"
)

// runMeta stamps each BENCH_<exp>.json with what produced it, so a stored
// result is reproducible (seed, topology, run count, toolchain) without the
// shell history that generated it. The wall-clock timestamp is opt-in
// (-stamp): without it the files are byte-stable across reruns, which keeps
// them diffable in CI artifacts.
type runMeta struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Servers    int    `json:"servers"`
	Runs       int    `json:"runs"`
	Scales     []int  `json:"scales,omitempty"`
	Executors  []int  `json:"executors,omitempty"`
	GoVersion  string `json:"go_version"`
	Timestamp  string `json:"timestamp,omitempty"`
}

// benchFile is the JSON envelope: run metadata plus the experiment's
// structured results.
type benchFile struct {
	Meta    runMeta `json:"meta"`
	Results any     `json:"results"`
}

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|fig4|fig5|fig6|fig7|table2|ablation|streaming|vector|chaos|partition|replica|overload|trace-overhead|ingest|masterha")
	scales := flag.String("scales", "1,2,3,4,5,6", "comma-separated scale factors (the 5..30 GB axis)")
	servers := flag.Int("servers", 5, "region servers / executor hosts")
	runs := flag.Int("runs", 1, "timed runs per measurement: a query reports the median of N warm runs, a write the mean")
	executors := flag.String("executors", "5,10,15,20,25", "total executor counts for fig6")
	seed := flag.Int64("seed", 1, "fault-injection seed for the chaos and partition experiments")
	metricsDump := flag.Bool("metrics", false, "dump a Prometheus-style metrics exposition after supporting experiments")
	jsonDir := flag.String("json", ".", "directory for BENCH_<exp>.json result files (empty = no files)")
	stamp := flag.Bool("stamp", false, "include a wall-clock timestamp in BENCH_<exp>.json metadata (off keeps files byte-stable)")
	flag.Parse()

	p := bench.Params{
		Scales:    parseInts(*scales),
		Servers:   *servers,
		Runs:      *runs,
		Executors: parseInts(*executors),
		Seed:      *seed,
		Out:       os.Stdout,
	}
	if *metricsDump {
		p.MetricsOut = os.Stdout
	}

	run := func(name string, fn func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n===== %s =====\n", name)
		result, err := fn()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if result == nil || *jsonDir == "" {
			return
		}
		meta := runMeta{
			Experiment: name,
			Seed:       p.Seed,
			Servers:    p.Servers,
			Runs:       p.Runs,
			Scales:     p.Scales,
			Executors:  p.Executors,
			GoVersion:  runtime.Version(),
		}
		if *stamp {
			meta.Timestamp = time.Now().UTC().Format(time.RFC3339)
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		data, err := json.MarshalIndent(benchFile{Meta: meta, Results: result}, "", "  ")
		if err != nil {
			log.Fatalf("%s: marshal results: %v", name, err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("%s: write %s: %v", name, path, err)
		}
		fmt.Printf("wrote %s\n", path)
	}

	run("table1", func() (any, error) { bench.Table1(os.Stdout); return nil, nil })
	run("fig4", func() (any, error) { return bench.Fig4(p) })
	run("fig5", func() (any, error) { return bench.Fig5(p) })
	run("fig6", func() (any, error) { return bench.Fig6(p) })
	run("fig7", func() (any, error) { return bench.Fig7(p) })
	run("table2", func() (any, error) { return bench.Table2(p) })
	run("ablation", func() (any, error) { return bench.Ablation(p) })
	run("streaming", func() (any, error) { return bench.StreamingComparison(p) })
	run("vector", func() (any, error) { return bench.Vector(p) })
	run("chaos", func() (any, error) { return bench.Chaos(p) })
	run("partition", func() (any, error) { return bench.Partition(p) })
	run("replica", func() (any, error) { return bench.Replica(p) })
	run("overload", func() (any, error) { return bench.Overload(p) })
	run("trace-overhead", func() (any, error) { return bench.TraceOverhead(p) })
	run("ingest", func() (any, error) { return bench.Ingest(p) })
	run("masterha", func() (any, error) { return bench.MasterHA(p) })

	switch *exp {
	case "all", "table1", "fig4", "fig5", "fig6", "fig7", "table2", "ablation", "streaming", "vector", "chaos", "partition", "replica", "overload", "trace-overhead", "ingest", "masterha":
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			log.Fatalf("bad integer list entry %q", part)
		}
		out = append(out, n)
	}
	return out
}
