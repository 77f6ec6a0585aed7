package plan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// everyKindPlan builds one node of every logical kind. Each expression the
// nodes hold carries its own slotted literal, numbered from 1 in the order
// built; it returns the plan and the number of slots.
func everyKindPlan() (LogicalPlan, int) {
	n := 0
	slot := func(e Expr) Expr {
		n++
		return &Arithmetic{Op: OpAdd, L: e, R: &Literal{Val: int64(100 * n), Typ: TypeInt64, Slot: n}}
	}
	pred := func(col string) Expr { return &Comparison{Op: OpEq, L: Col(col), R: slot(Col(col)).(*Arithmetic).R} }
	users := &ScanNode{Relation: usersRel(), Alias: "u", Pushed: []Expr{pred("u.age")}}
	orders := &ScanNode{Relation: ordersRel(), Alias: "o", Pushed: []Expr{pred("o.amount")}}
	union := &UnionNode{Inputs: []LogicalPlan{orders, &ScanNode{Relation: ordersRel(), Alias: "o", Pushed: []Expr{pred("o.uid")}}}}
	join := &JoinNode{Left: users, Right: union, Type: InnerJoin,
		LeftKeys: []Expr{slot(Col("u.id"))}, RightKeys: []Expr{slot(Col("o.uid"))}}
	agg := &AggregateNode{Child: join,
		GroupBy: []NamedExpr{{Expr: slot(Col("u.city")), Name: "city"}},
		Aggs:    []AggExpr{{Kind: AggCount, Name: "n"}, {Kind: AggSum, Arg: slot(Col("o.amount")), Name: "total"}}}
	filter := &FilterNode{Cond: &Comparison{Op: OpGt, L: slot(Col("n")), R: Col("total")}, Child: agg}
	project := &ProjectNode{Exprs: []NamedExpr{{Expr: slot(Col("city")), Name: "c"}}, Child: filter}
	sortN := &SortNode{Orders: []SortOrder{{Expr: slot(Col("c")), Desc: true}}, Child: project}
	return &LimitNode{N: 3, Child: sortN}, n
}

// reachable lists every plan node and expression reachable from v through
// struct fields, slices and interfaces, without a per-kind list: what the
// walkers under test must reach.
func reachable(v any) (nodes []LogicalPlan, exprs []Expr) {
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			switch x := v.Interface().(type) {
			case LogicalPlan:
				nodes = append(nodes, x)
			case Expr:
				exprs = append(exprs, x)
			default:
				return // a relation: not part of the tree
			}
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					walk(v.Field(i))
				}
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return nodes, exprs
}

// slotted lists the slotted literals among exprs.
func slotted(exprs []Expr) []*Literal {
	var out []*Literal
	for _, e := range exprs {
		if l, ok := e.(*Literal); ok && l.Slot > 0 {
			out = append(out, l)
		}
	}
	return out
}

// TestEveryKindPlanCoversEveryNodeKind keeps the walker tests below
// complete: the plan they walk holds a node of every type in this package
// that implements LogicalPlan.
func TestEveryKindPlanCoversEveryNodeKind(t *testing.T) {
	var kinds []string
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Children" || types.ExprString(fn.Type.Results.List[0].Type) != "[]LogicalPlan" {
				continue
			}
			kinds = append(kinds, types.ExprString(fn.Recv.List[0].Type))
		}
	}
	p, _ := everyKindPlan()
	nodes, _ := reachable(p)
	var built []string
	for _, n := range nodes {
		if k := strings.Replace(reflect.TypeOf(n).String(), "plan.", "", 1); !slices.Contains(built, k) {
			built = append(built, k)
		}
	}
	sort.Strings(kinds)
	sort.Strings(built)
	if len(kinds) < 8 || !slices.Equal(kinds, built) {
		t.Fatalf("node kinds = %v, the walker tests' plan holds %v", kinds, built)
	}
}

// TestClonePlanSharesNothing: a clone holds no node or expression of its
// input, and renders the same.
func TestClonePlanSharesNothing(t *testing.T) {
	p, _ := everyKindPlan()
	cp := ClonePlan(p)
	if Format(cp) != Format(p) {
		t.Fatalf("clone renders\n%s\nwant\n%s", Format(cp), Format(p))
	}
	nodes, exprs := reachable(p)
	cnodes, cexprs := reachable(cp)
	if len(cnodes) != len(nodes) || len(cexprs) != len(exprs) {
		t.Fatalf("clone holds %d nodes and %d expressions, input %d and %d", len(cnodes), len(cexprs), len(nodes), len(exprs))
	}
	for _, n := range cnodes {
		if slices.Contains(nodes, n) {
			t.Errorf("clone shares node %s", n)
		}
	}
	for _, e := range cexprs {
		if slices.Contains(exprs, e) {
			t.Errorf("clone shares expression %s", e)
		}
	}
}

// TestSlotWalkersReachEverySlot: Slots and SlotRefs count the slot of every
// expression of every node kind; Bind sets each to its value and Unslot
// clears each, both leaving their input as it was.
func TestSlotWalkersReachEverySlot(t *testing.T) {
	p, n := everyKindPlan()
	if got := len(slotted(func() []Expr { _, e := reachable(p); return e }())); got != n {
		t.Fatalf("plan holds %d slotted literals, built %d", got, n)
	}
	want := make([]int, n)
	vals := make([]any, n)
	for i := range want {
		want[i] = i + 1
		vals[i] = int64(-(i + 1))
	}
	if got := Slots(p); !slices.Equal(got, want) {
		t.Errorf("Slots = %v, want %v", got, want)
	}
	if got := SlotRefs(p); got != n {
		t.Errorf("SlotRefs = %d, want %d", got, n)
	}
	before := Format(p)

	bound := Bind(p, vals)
	_, bexprs := reachable(bound)
	for _, l := range slotted(bexprs) {
		if l.Val != vals[l.Slot-1] {
			t.Errorf("slot %d bound to %v, want %v", l.Slot, l.Val, vals[l.Slot-1])
		}
	}
	if got := len(slotted(bexprs)); got != n {
		t.Errorf("bound plan holds %d slotted literals, want %d", got, n)
	}

	unslotted := Unslot(p)
	if got := Slots(unslotted); len(got) != 0 {
		t.Errorf("Unslot left slots %v", got)
	}
	if Format(unslotted) != before {
		t.Errorf("Unslot changed the plan's text:\n%s", Format(unslotted))
	}

	if Format(p) != before || !slices.Equal(Slots(p), want) {
		t.Errorf("Bind or Unslot changed its input:\n%s", Format(p))
	}
	_, exprs := reachable(p)
	for _, l := range slotted(exprs) {
		if l.Val != int64(100*l.Slot) {
			t.Errorf("input slot %d holds %v after Bind, want %d", l.Slot, l.Val, 100*l.Slot)
		}
	}
}

// TestMapNodeKeepsUnchangedNodes: a rewrite that changes nothing returns
// the input plan itself, and one that changes one literal copies only the
// nodes and expressions above it.
func TestMapNodeKeepsUnchangedNodes(t *testing.T) {
	p, _ := everyKindPlan()
	if rewriteExprs(p, func(e Expr) Expr { return e }) != p || Bind(p, nil) != p {
		t.Fatal("a rewrite that changes nothing copied the plan")
	}
	// Slot 1 is the users scan's pushed predicate: the scan and the six
	// nodes above it are copied, the union and its two scans shared.
	one := rewriteExprs(p, func(e Expr) Expr {
		if l, ok := e.(*Literal); ok && l.Slot == 1 {
			cp := *l
			return &cp
		}
		return e
	})
	nodes, exprs := reachable(p)
	onodes, oexprs := reachable(one)
	var shared []string
	for _, n := range onodes {
		if slices.Contains(nodes, n) {
			shared = append(shared, strings.Fields(n.String())[0])
		}
	}
	if want := []string{"Union", "Scan", "Scan"}; !slices.Equal(shared, want) {
		t.Errorf("rewrite shares %v, want %v", shared, want)
	}
	copied := 0
	for _, e := range oexprs {
		if !slices.Contains(exprs, e) {
			copied++
		}
	}
	if copied != 2 {
		t.Errorf("rewrite copied %d expressions, want 2: the literal and its comparison", copied)
	}
}
