package core

import (
	"fmt"
	"testing"

	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

func userRow(i int) plan.Row {
	return plan.Row{fmt.Sprintf("user-%04d", i), int32(i), "sf", float64(i)}
}

// Writing into a table that exists asks the master nothing: the write goes
// straight to the region servers.
func TestInsertMakesNoMasterCall(t *testing.T) {
	rig := newRig(t, Options{}, 20)
	listTables := rig.meter.Histogram(metrics.HistRPCLatencyPrefix + hbase.MethodListTables)
	createTable := rig.meter.Histogram(metrics.HistRPCLatencyPrefix + hbase.MethodCreateTable)
	listed, created := listTables.Count(), createTable.Count()
	for i := 0; i < 10; i++ {
		if err := rig.rel.Insert([]plan.Row{userRow(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := listTables.Count() - listed; got != 0 {
		t.Errorf("10 inserts into an existing table made %d ListTables calls, want 0", got)
	}
	if got := createTable.Count() - created; got != 0 {
		t.Errorf("10 inserts into an existing table made %d CreateTable calls, want 0", got)
	}
	// The first insert, into a table that did not exist, created it pre-split.
	if regions, err := rig.client.Regions(rig.cat.Table.Name); err != nil || len(regions) != 5 {
		t.Errorf("created table has %d regions (%v), want 5", len(regions), err)
	}
}

// A table another client dropped is recreated by the next insert, which
// then lands whole in the new table.
func TestInsertRecreatesTableDroppedByAnotherClient(t *testing.T) {
	rig := newRig(t, Options{}, 20)
	other := rig.cluster.NewClient()
	defer other.Close()
	if err := other.DeleteTable(rig.cat.Table.Name); err != nil {
		t.Fatal(err)
	}
	// rig.client still caches the dropped table's region map.
	rows := []plan.Row{userRow(100), userRow(101), userRow(102)}
	if err := rig.rel.Insert(rows); err != nil {
		t.Fatalf("insert after another client dropped the table: %v", err)
	}
	parts, _, err := rig.rel.BuildScan([]string{"id", "age"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, parts)
	sortRows(got)
	if len(got) != len(rows) {
		t.Fatalf("recreated table holds %d rows, want the %d just inserted", len(got), len(rows))
	}
	for i, row := range got {
		if row[0] != rows[i][0] || row[1] != rows[i][1] {
			t.Errorf("row %d = %v, want %v", i, row, rows[i][:2])
		}
	}
}

// An insert that writes no cells still creates its table, as before writes
// learned to create tables on demand.
func TestInsertOfNoRowsCreatesTable(t *testing.T) {
	rig := newRig(t, Options{}, 0)
	if err := rig.rel.Insert(nil); err != nil {
		t.Fatal(err)
	}
	tables, err := rig.client.ListTables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != rig.cat.Table.Name {
		t.Errorf("tables = %v, want [%s]", tables, rig.cat.Table.Name)
	}
}

// BulkLoad into a missing table creates it, like Insert.
func TestBulkLoadCreatesMissingTable(t *testing.T) {
	rig := newRig(t, Options{}, 0)
	var rows []plan.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, userRow(i))
	}
	if err := rig.rel.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	parts, _, err := rig.rel.BuildScan([]string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, parts); len(got) != len(rows) {
		t.Errorf("bulk-loaded table holds %d rows, want %d", len(got), len(rows))
	}
}
