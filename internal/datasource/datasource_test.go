package datasource

import (
	"context"
	"testing"

	"github.com/shc-go/shc/internal/plan"
)

func dsSchema() plan.Schema {
	return plan.Schema{
		{Name: "name", Type: plan.TypeString},
		{Name: "age", Type: plan.TypeInt32},
		{Name: "score", Type: plan.TypeFloat64},
	}
}

func TestEvalFilterComparisons(t *testing.T) {
	s := dsSchema()
	row := plan.Row{"bob", int32(42), 3.5}
	cases := []struct {
		f    Filter
		want bool
	}{
		{EqualTo{Column: "age", Value: int32(42)}, true},
		{EqualTo{Column: "age", Value: int32(1)}, false},
		{NotEqual{Column: "age", Value: int32(1)}, true},
		{GreaterThan{Column: "age", Value: int32(40)}, true},
		{GreaterThanOrEqual{Column: "age", Value: int32(42)}, true},
		{LessThan{Column: "score", Value: 4.0}, true},
		{LessThanOrEqual{Column: "score", Value: 3.5}, true},
		{In{Column: "name", Values: []any{"alice", "bob"}}, true},
		{In{Column: "name", Values: []any{"alice"}}, false},
		{NotIn{Column: "name", Values: []any{"alice"}}, true},
		{NotIn{Column: "name", Values: []any{"bob"}}, false},
		{StringStartsWith{Column: "name", Prefix: "bo"}, true},
		{StringStartsWith{Column: "name", Prefix: "xx"}, false},
		{AndFilter{Left: EqualTo{Column: "name", Value: "bob"}, Right: GreaterThan{Column: "age", Value: int32(1)}}, true},
		{AndFilter{Left: EqualTo{Column: "name", Value: "bob"}, Right: GreaterThan{Column: "age", Value: int32(99)}}, false},
		{OrFilter{Left: EqualTo{Column: "name", Value: "zed"}, Right: GreaterThan{Column: "age", Value: int32(1)}}, true},
		{OrFilter{Left: EqualTo{Column: "name", Value: "zed"}, Right: GreaterThan{Column: "age", Value: int32(99)}}, false},
	}
	for _, c := range cases {
		got, err := EvalFilter(c.f, s, row)
		if err != nil {
			t.Errorf("EvalFilter(%s): %v", c.f, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalFilter(%s) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEvalFilterNulls(t *testing.T) {
	s := dsSchema()
	row := plan.Row{nil, nil, 1.0}
	for _, f := range []Filter{
		EqualTo{Column: "age", Value: int32(1)},
		NotEqual{Column: "age", Value: int32(1)},
		GreaterThan{Column: "age", Value: int32(1)},
		NotIn{Column: "name", Values: []any{"x"}},
	} {
		got, err := EvalFilter(f, s, row)
		if err != nil || got {
			t.Errorf("EvalFilter(%s) on NULL = %v, %v (want false, nil)", f, got, err)
		}
	}
}

func TestEvalFilterUnknownColumn(t *testing.T) {
	if _, err := EvalFilter(EqualTo{Column: "ghost", Value: 1}, dsSchema(), plan.Row{"a", int32(1), 1.0}); err == nil {
		t.Error("unknown column must error")
	}
}

func TestFilterReferencesAndStrings(t *testing.T) {
	fs := []Filter{
		EqualTo{Column: "a", Value: 1},
		NotEqual{Column: "a", Value: 1},
		GreaterThan{Column: "a", Value: 1},
		GreaterThanOrEqual{Column: "a", Value: 1},
		LessThan{Column: "a", Value: 1},
		LessThanOrEqual{Column: "a", Value: 1},
		In{Column: "a", Values: []any{1, 2}},
		NotIn{Column: "a", Values: []any{1}},
		StringStartsWith{Column: "a", Prefix: "p"},
		AndFilter{Left: EqualTo{Column: "a", Value: 1}, Right: EqualTo{Column: "b", Value: 2}},
		OrFilter{Left: EqualTo{Column: "a", Value: 1}, Right: EqualTo{Column: "b", Value: 2}},
	}
	for _, f := range fs {
		if len(f.References()) == 0 {
			t.Errorf("%T has no references", f)
		}
		if f.String() == "" {
			t.Errorf("%T has no string", f)
		}
	}
}

func TestMemRelationScanProjectionAndFilter(t *testing.T) {
	m := NewMemRelation("t", dsSchema(), 3)
	rows := []plan.Row{
		{"a", int32(10), 1.0},
		{"b", int32(20), 2.0},
		{"c", int32(30), 3.0},
		{"d", int32(40), 4.0},
	}
	if err := m.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d", m.Count())
	}
	parts, unhandled, err := m.BuildScan([]string{"name"}, []Filter{GreaterThan{Column: "age", Value: int32(15)}})
	if err != nil {
		t.Fatal(err)
	}
	if unhandled != nil {
		t.Errorf("mem relation handles all filters, unhandled = %v", unhandled)
	}
	var got []string
	for _, p := range parts {
		rs, err := p.Compute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if len(r) != 1 {
				t.Fatalf("projection width = %d", len(r))
			}
			got = append(got, r[0].(string))
		}
	}
	if len(got) != 3 {
		t.Errorf("filtered rows = %v", got)
	}
}

func TestMemRelationInsertWidthCheck(t *testing.T) {
	m := NewMemRelation("t", dsSchema(), 1)
	if err := m.Insert([]plan.Row{{"too", "wide", 1, 2}}); err == nil {
		t.Error("wrong-width insert must fail")
	}
}

func TestMemRelationScanUnknownColumn(t *testing.T) {
	m := NewMemRelation("t", dsSchema(), 1)
	if _, _, err := m.BuildScan([]string{"ghost"}, nil); err == nil {
		t.Error("unknown column must fail")
	}
}

func TestMemRelationEmptyScan(t *testing.T) {
	m := NewMemRelation("t", dsSchema(), 4)
	parts, _, err := m.BuildScan([]string{"name"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Errorf("empty relation partitions = %d", len(parts))
	}
	rows, err := parts[0].Compute(context.Background())
	if err != nil || len(rows) != 0 {
		t.Errorf("empty scan = %v, %v", rows, err)
	}
}
