// Command perfbench is the repository's benchmark: it boots a fixed SHC
// rig, runs one named workload from a seed, checks every answer against a
// plain-Go oracle, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer budget) followed by one JSON line.
//
//	bash perfbench/run.sh --workload point-lookup --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: point-lookup, scan-agg, analytic-join or mixed-rw")
	seed := flag.Int64("seed", 1, "workload seed: the op list is generated from it")
	seconds := flag.Int("seconds", 10, "run length: the op count is sized to about this many seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer budget of a traced run instead of the end-to-end metrics")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	n := int(math.Ceil(float64(*seconds) * w.opsPerSecond))
	res, err := runWorkload(w, defaultSizes, *seed, n, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}

	var ms []metric
	if *traceFlag == 1 {
		fmt.Print(layerReport(res))
		ms = res.layers
	} else {
		fmt.Print(e2eReport(res))
		ms = res.e2e
	}
	if res.failed > 0 {
		fmt.Printf("INCORRECT: %d of %d ops failed or answered wrong; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
