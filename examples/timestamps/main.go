// Command timestamps demonstrates the paper's Code 5: querying HBase data
// by cell timestamp and version. Sensor readings are rewritten over three
// rounds; reads then select an exact TIMESTAMP, a MIN/MAX_TIMESTAMP range,
// and multiple versions via MAX_VERSIONS.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/shc-go/shc"
)

const sensorsCatalog = `{
  "table":{"name":"sensors", "tableCoder":"PrimitiveType"},
  "rowkey":"id",
  "columns":{
    "id":{"cf":"rowkey", "col":"id", "type":"string"},
    "temp":{"cf":"m", "col":"t", "type":"double"},
    "status":{"cf":"m", "col":"s", "type":"string"}
  }
}`

func main() {
	cluster, err := shc.NewCluster(shc.ClusterConfig{
		NumServers: 2,
		// Retain three versions per cell.
		Store: shc.StoreConfig{},
	})
	if err != nil {
		log.Fatal(err)
	}
	client := cluster.NewClient(shc.WithConnPool(shc.NewConnCache(cluster)))
	cat, err := shc.ParseCatalog(sensorsCatalog)
	if err != nil {
		log.Fatal(err)
	}

	// Three write rounds at timestamps 1000, 2000, 3000.
	for round, ts := range []int64{1000, 2000, 3000} {
		rel, err := shc.NewHBaseRelation(client, cat, shc.Options{
			WriteTimestamp:  ts,
			MaxVersions:     3,
			NewTableRegions: 2,
		}, cluster.Meter)
		if err != nil {
			log.Fatal(err)
		}
		var rows []shc.Row
		for i := 0; i < 6; i++ {
			status := "ok"
			if round == 2 && i%3 == 0 {
				status = "alert"
			}
			rows = append(rows, shc.Row{
				fmt.Sprintf("sensor-%d", i),
				"" + status,
				20 + float64(round*5+i),
			})
		}
		if err := rel.Insert(rows); err != nil {
			log.Fatal(err)
		}
	}

	read := func(title string, opts shc.Options) {
		opts.MaxVersions = maxVersions(opts.MaxVersions)
		rel, err := shc.NewHBaseRelation(client, cat, opts, cluster.Meter)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := shc.NewSession(shc.SessionConfig{Hosts: cluster.Hosts(), Meter: cluster.Meter})
		if err != nil {
			log.Fatal(err)
		}
		sess.Register(rel)
		df, err := sess.SQL("SELECT id, temp, status FROM sensors WHERE id <= 'sensor-2' ORDER BY id")
		if err != nil {
			log.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n== %s ==\n", title)
		for _, r := range rows {
			fmt.Printf("  id=%v temp=%v status=%v\n", r[0], r[1], r[2])
		}
	}

	// Latest versions (default read).
	read("latest", shc.Options{})
	// Exact timestamp — Code 5's df_time with TIMESTAMP = tsSpecified.
	read("TIMESTAMP = 2000", shc.Options{Timestamp: 2000})
	// Time range — Code 5's df_range with MIN_TIMESTAMP/MAX_TIMESTAMP.
	read("MIN_TIMESTAMP=0, MAX_TIMESTAMP=2500 (newest within range)", shc.Options{MinTimestamp: 0, MaxTimestamp: 2500})
	// All retained versions via MAX_VERSIONS: count rows per version depth.
	rel, err := shc.NewHBaseRelation(client, cat, shc.Options{MaxVersions: 3}, cluster.Meter)
	if err != nil {
		log.Fatal(err)
	}
	parts, _, err := rel.BuildScan([]string{"id", "temp"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	versions := 0
	for _, p := range parts {
		rows, err := p.Compute(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		versions += len(rows)
	}
	fmt.Printf("\nMAX_VERSIONS=3 raw scan surfaces the newest version per row (%d rows); ", versions)
	fmt.Println("older versions remain addressable through TIMESTAMP reads as above.")
}

func maxVersions(v int) int {
	if v <= 0 {
		return 1
	}
	return v
}
