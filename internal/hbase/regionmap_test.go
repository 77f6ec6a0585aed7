package hbase

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// testRegionMap is a four-region table split at "g", "m" and "t".
func testRegionMap(startFirst, endLast []byte) *RegionMap {
	return NewRegionMap([]RegionInfo{
		{ID: "r0", StartKey: startFirst, EndKey: []byte("g")},
		{ID: "r1", StartKey: []byte("g"), EndKey: []byte("m")},
		{ID: "r2", StartKey: []byte("m"), EndKey: []byte("t")},
		{ID: "r3", StartKey: []byte("t"), EndKey: endLast},
	})
}

func TestRegionMapLocateBoundaries(t *testing.T) {
	open := testRegionMap(nil, nil)
	bounded := testRegionMap([]byte("c"), []byte("x"))
	for _, tc := range []struct {
		name string
		m    *RegionMap
		row  string
		want string // "" = no region
	}{
		{"empty start key holds the empty row", open, "", "r0"},
		{"empty start key holds low rows", open, "a", "r0"},
		{"row just below a split key", open, "ff", "r0"},
		{"row equal to a split key", open, "g", "r1"},
		{"row equal to the last split key", open, "t", "r3"},
		{"row between split keys", open, "p", "r2"},
		{"empty end key holds high rows", open, "zzz", "r3"},
		{"row below the first region", bounded, "b", ""},
		{"row equal to the first start key", bounded, "c", "r0"},
		{"row equal to the last end key", bounded, "x", ""},
		{"row above the last region", bounded, "y", ""},
		{"empty map holds nothing", NewRegionMap(nil), "a", ""},
	} {
		ri, ok := tc.m.Locate([]byte(tc.row))
		got := ""
		if ok {
			got = ri.ID
		}
		if got != tc.want {
			t.Errorf("%s: Locate(%q) = %q, want %q", tc.name, tc.row, got, tc.want)
		}
	}
}

func TestGroupByRegionKeyOrderAndInputOrder(t *testing.T) {
	m := testRegionMap(nil, nil)
	type group struct {
		ID   string
		Rows []string
	}
	for _, tc := range []struct {
		name string
		rows []string
		want []group
	}{
		{"empty batch", nil, nil},
		{"one region", []string{"b", "a"}, []group{{"r0", []string{"b", "a"}}}},
		{"sorted input", []string{"a", "h", "n", "u"},
			[]group{{"r0", []string{"a"}}, {"r1", []string{"h"}}, {"r2", []string{"n"}}, {"r3", []string{"u"}}}},
		{"reversed input", []string{"z", "q", "k", "b"},
			[]group{{"r0", []string{"b"}}, {"r1", []string{"k"}}, {"r2", []string{"q"}}, {"r3", []string{"z"}}}},
		{"interleaved regions keep input order within each group", []string{"u", "b", "v", "a", "h", "t", "c"},
			[]group{{"r0", []string{"b", "a", "c"}}, {"r1", []string{"h"}}, {"r3", []string{"u", "v", "t"}}}},
	} {
		var rows [][]byte
		for _, r := range tc.rows {
			rows = append(rows, []byte(r))
		}
		groups, err := groupByRegion(m, rows, func(r *[]byte) []byte { return *r })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []group
		for _, g := range groups {
			gr := group{ID: g.Region.ID}
			for _, r := range g.Items {
				gr.Rows = append(gr.Rows, string(r))
			}
			got = append(got, gr)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: groups = %v, want %v", tc.name, got, tc.want)
		}
	}
	bounded := testRegionMap([]byte("c"), nil)
	if _, err := groupByRegion(bounded, [][]byte{[]byte("d"), []byte("a")}, func(r *[]byte) []byte { return *r }); err == nil {
		t.Error("a row outside every region must fail the grouping")
	}
}

// TestBulkGetReturnsRegionKeyOrder: a multi-region BulkGet answers in region
// key order on every call, not in whatever order a map iteration visited the
// regions.
func TestBulkGetReturnsRegionKeyOrder(t *testing.T) {
	_, client := scannerFixture(t, 90)
	var rows [][]byte
	for i := 5; i < 90; i += 10 {
		rows = append(rows, []byte(fmt.Sprintf("row-%03d", i)))
	}
	regions, err := client.Regions("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 3 {
		t.Fatalf("fixture has %d regions, want at least 3", len(regions))
	}
	for call := 0; call < 20; call++ {
		results, err := client.BulkGetContext(context.Background(), "t", rows, nil, 1, TimeRange{})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(rows) {
			t.Fatalf("call %d: %d results, want %d", call, len(results), len(rows))
		}
		for i := range results {
			if !bytes.Equal(results[i].Row, rows[i]) {
				t.Fatalf("call %d: result %d is %q, want %q (region key order)", call, i, results[i].Row, rows[i])
			}
		}
	}
}
