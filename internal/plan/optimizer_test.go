package plan

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fakeRelation satisfies Relation for optimizer tests.
type fakeRelation struct {
	name   string
	schema Schema
}

func (f *fakeRelation) Name() string   { return f.name }
func (f *fakeRelation) Schema() Schema { return f.schema }

func usersRel() *fakeRelation {
	return &fakeRelation{name: "users", schema: Schema{
		{Name: "id", Type: TypeString},
		{Name: "age", Type: TypeInt32},
		{Name: "city", Type: TypeString},
		{Name: "score", Type: TypeFloat64},
	}}
}

func ordersRel() *fakeRelation {
	return &fakeRelation{name: "orders", schema: Schema{
		{Name: "oid", Type: TypeString},
		{Name: "uid", Type: TypeString},
		{Name: "amount", Type: TypeFloat64},
	}}
}

func findScan(p LogicalPlan, rel string) *ScanNode {
	if s, ok := p.(*ScanNode); ok && s.Relation.Name() == rel {
		return s
	}
	for _, c := range p.Children() {
		if s := findScan(c, rel); s != nil {
			return s
		}
	}
	return nil
}

func countFilters(p LogicalPlan) int {
	n := 0
	if _, ok := p.(*FilterNode); ok {
		n++
	}
	for _, c := range p.Children() {
		n += countFilters(c)
	}
	return n
}

func TestPushDownSimpleFilterIntoScan(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	p := &FilterNode{
		Cond:  &Comparison{Op: OpGt, L: Col("age"), R: Lit(30)},
		Child: scan,
	}
	opt := Optimize(p)
	s := findScan(opt, "users")
	if len(s.Pushed) != 1 {
		t.Fatalf("pushed = %v", s.Pushed)
	}
	if countFilters(opt) != 0 {
		t.Errorf("filter should be fully absorbed:\n%s", Format(opt))
	}
}

func TestNotInStaysInScanPushedButOrWithColumnBlocks(t *testing.T) {
	// NOT IN is translatable (the relation decides whether to handle it);
	// a predicate across two columns is not.
	scan := &ScanNode{Relation: usersRel()}
	notIn := &In{E: Col("city"), Values: []Expr{Lit("sf")}, Negate: true}
	crossCol := &Comparison{Op: OpGt, L: Col("age"), R: Col("score")}
	p := &FilterNode{Cond: &And{L: notIn, R: crossCol}, Child: scan}
	opt := Optimize(p)
	s := findScan(opt, "users")
	if len(s.Pushed) != 1 {
		t.Fatalf("pushed = %v", s.Pushed)
	}
	if !strings.Contains(s.Pushed[0].String(), "NOT IN") {
		t.Errorf("NOT IN should be pushed to the seam: %v", s.Pushed)
	}
	if countFilters(opt) != 1 {
		t.Errorf("cross-column predicate must remain an engine filter:\n%s", Format(opt))
	}
}

func TestPushDownThroughJoinToEachSide(t *testing.T) {
	left := &ScanNode{Relation: usersRel()}
	right := &ScanNode{Relation: ordersRel()}
	join := &JoinNode{Left: left, Right: right, LeftKeys: []Expr{Col("id")}, RightKeys: []Expr{Col("uid")}}
	cond := &And{
		L: &Comparison{Op: OpGt, L: Col("age"), R: Lit(21)},
		R: &Comparison{Op: OpGt, L: Col("amount"), R: Lit(10.0)},
	}
	opt := Optimize(&FilterNode{Cond: cond, Child: join})
	if got := len(findScan(opt, "users").Pushed); got != 1 {
		t.Errorf("users pushed = %d", got)
	}
	if got := len(findScan(opt, "orders").Pushed); got != 1 {
		t.Errorf("orders pushed = %d", got)
	}
	if countFilters(opt) != 0 {
		t.Errorf("both sides should absorb their predicates:\n%s", Format(opt))
	}
}

func TestJoinSpanningPredicateStaysAbove(t *testing.T) {
	left := &ScanNode{Relation: usersRel()}
	right := &ScanNode{Relation: ordersRel()}
	join := &JoinNode{Left: left, Right: right, LeftKeys: []Expr{Col("id")}, RightKeys: []Expr{Col("uid")}}
	cond := &Comparison{Op: OpGt, L: Col("score"), R: Col("amount")}
	opt := Optimize(&FilterNode{Cond: cond, Child: join})
	if countFilters(opt) != 1 {
		t.Errorf("join-spanning predicate must stay above the join:\n%s", Format(opt))
	}
}

func TestColumnPruning(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	p := &ProjectNode{
		Exprs: []NamedExpr{{Expr: Col("city"), Name: "city"}},
		Child: &FilterNode{Cond: &Comparison{Op: OpGt, L: Col("age"), R: Lit(30)}, Child: scan},
	}
	opt := Optimize(p)
	s := findScan(opt, "users")
	if len(s.Projection) != 2 {
		t.Fatalf("projection = %v, want [age city]", s.Projection)
	}
	// Schema order is preserved: age before city.
	if s.Projection[0] != "age" || s.Projection[1] != "city" {
		t.Errorf("projection order = %v", s.Projection)
	}
}

func TestColumnPruningCountOnly(t *testing.T) {
	// SELECT count(*): the scan still needs one column to count rows.
	scan := &ScanNode{Relation: usersRel()}
	p := &AggregateNode{Aggs: []AggExpr{{Kind: AggCount, Name: "c"}}, Child: scan}
	opt := Optimize(p)
	s := findScan(opt, "users")
	if len(s.Projection) != 1 {
		t.Errorf("count-only projection = %v", s.Projection)
	}
}

func TestPruningThroughJoin(t *testing.T) {
	left := &ScanNode{Relation: usersRel()}
	right := &ScanNode{Relation: ordersRel()}
	join := &JoinNode{Left: left, Right: right, LeftKeys: []Expr{Col("id")}, RightKeys: []Expr{Col("uid")}}
	p := &ProjectNode{
		Exprs: []NamedExpr{{Expr: Col("city"), Name: "city"}, {Expr: Col("amount"), Name: "amount"}},
		Child: join,
	}
	opt := Optimize(p)
	lp := findScan(opt, "users").Projection
	rp := findScan(opt, "orders").Projection
	if len(lp) != 2 { // city + join key id
		t.Errorf("users projection = %v", lp)
	}
	if len(rp) != 2 { // amount + join key uid
		t.Errorf("orders projection = %v", rp)
	}
}

func TestConstantFolding(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	cond := &Comparison{Op: OpGt, L: Col("age"), R: &Arithmetic{Op: OpAdd, L: Lit(10), R: Lit(20)}}
	opt := Optimize(&FilterNode{Cond: cond, Child: scan})
	s := findScan(opt, "users")
	if len(s.Pushed) != 1 {
		t.Fatalf("pushed = %v (folded literal should make the predicate translatable)", s.Pushed)
	}
	if !strings.Contains(s.Pushed[0].String(), "30") {
		t.Errorf("constant not folded: %s", s.Pushed[0])
	}
}

func TestCombineFilters(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	p := &FilterNode{
		Cond: &Comparison{Op: OpGt, L: Col("age"), R: Col("score")}, // not pushable
		Child: &FilterNode{
			Cond:  &Comparison{Op: OpLt, L: Col("age"), R: Col("score")}, // not pushable
			Child: scan,
		},
	}
	opt := Optimize(p)
	if countFilters(opt) != 1 {
		t.Errorf("adjacent filters must merge:\n%s", Format(opt))
	}
}

func TestTranslatable(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{&Comparison{Op: OpEq, L: Col("a"), R: Lit(1)}, true},
		{&Comparison{Op: OpEq, L: Lit(1), R: Col("a")}, true},
		{&Comparison{Op: OpEq, L: Col("a"), R: Col("b")}, false},
		{&In{E: Col("a"), Values: []Expr{Lit(1), Lit(2)}}, true},
		{&In{E: Col("a"), Values: []Expr{Lit(1)}, Negate: true}, true},
		{&In{E: Col("a"), Values: []Expr{Col("b")}}, false},
		{&Like{E: Col("a"), Pattern: "pre%"}, true},
		{&Like{E: Col("a"), Pattern: "%suf"}, false},
		{&Like{E: Col("a"), Pattern: "mid%dle"}, false},
		{&And{L: &Comparison{Op: OpGt, L: Col("a"), R: Lit(1)}, R: &Comparison{Op: OpLt, L: Col("a"), R: Lit(9)}}, true},
		{&Or{L: &Comparison{Op: OpGt, L: Col("a"), R: Lit(1)}, R: &Comparison{Op: OpGt, L: Col("a"), R: Col("b")}}, false},
		{&IsNull{E: Col("a")}, false},
	}
	for _, c := range cases {
		if got := Translatable(c.e); got != c.want {
			t.Errorf("Translatable(%s) = %v", c.e, got)
		}
	}
}

func TestScanSchemaWithAliasAndProjection(t *testing.T) {
	s := &ScanNode{Relation: usersRel(), Alias: "u"}
	if s.Schema()[0].Name != "u.id" {
		t.Errorf("alias schema = %s", s.Schema())
	}
	s.Projection = []string{"u.age"}
	if len(s.Schema()) != 1 || s.Schema()[0].Name != "u.age" {
		t.Errorf("projected schema = %s", s.Schema())
	}
}

// freshScanSchema computes a scan's schema from scratch: the reference
// ScanNode.Schema's memo must reproduce.
func freshScanSchema(s *ScanNode) Schema {
	base := s.Relation.Schema()
	if s.Alias != "" {
		base = base.Qualify(s.Alias)
	}
	if s.Projection == nil {
		return base
	}
	out, err := base.Project(s.Projection)
	if err != nil {
		return base
	}
	return out
}

// scansOf lists every scan in p.
func scansOf(p LogicalPlan) []*ScanNode {
	var out []*ScanNode
	if s, ok := p.(*ScanNode); ok {
		out = append(out, s)
	}
	for _, c := range p.Children() {
		out = append(out, scansOf(c)...)
	}
	return out
}

func checkScanSchemas(t *testing.T, label string, p LogicalPlan) {
	t.Helper()
	for _, s := range scansOf(p) {
		if got, want := s.Schema(), freshScanSchema(s); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scan %s alias %q projection %v: schema %s, want %s", label, s.Relation.Name(), s.Alias, s.Projection, got, want)
		}
	}
}

// TestScanSchemaMemoMatchesFreshAcrossOptimize: ScanNode.Schema is
// memoized, and Optimize rewrites Projection in place and clones scans
// with their memo, so at every step — the built plan, the optimized and
// bound copies, the input after optimizing, and further in-place edits of
// Projection, Alias and Relation — the memo must equal a from-scratch
// computation.
func TestScanSchemaMemoMatchesFreshAcrossOptimize(t *testing.T) {
	aliased := func(rel *fakeRelation, alias string) *ScanNode { return &ScanNode{Relation: rel, Alias: alias} }
	plans := map[string]func() LogicalPlan{
		"filter and project": func() LogicalPlan {
			return &ProjectNode{Exprs: []NamedExpr{{Expr: Col("city"), Name: "city"}}, Child: &FilterNode{
				Cond: &Comparison{Op: OpGt, L: Col("age"), R: Lit(30)}, Child: &ScanNode{Relation: usersRel()}}}
		},
		"aliased join": func() LogicalPlan {
			return &ProjectNode{Exprs: []NamedExpr{{Expr: Col("u.city"), Name: "city"}, {Expr: Col("o.amount"), Name: "amount"}},
				Child: &FilterNode{Cond: &And{L: &Comparison{Op: OpEq, L: Col("u.city"), R: Lit("sf")}, R: &Comparison{Op: OpGt, L: Col("o.amount"), R: Lit(1.5)}},
					Child: &JoinNode{Left: aliased(usersRel(), "u"), Right: aliased(ordersRel(), "o"),
						LeftKeys: []Expr{Col("u.id")}, RightKeys: []Expr{Col("o.uid")}, Type: InnerJoin}}}
		},
		"self join": func() LogicalPlan {
			rel := usersRel()
			return &JoinNode{Left: aliased(rel, "a"), Right: aliased(rel, "b"),
				LeftKeys: []Expr{Col("a.id")}, RightKeys: []Expr{Col("b.id")}, Type: LeftOuterJoin}
		},
		"count only": func() LogicalPlan {
			return &AggregateNode{Aggs: []AggExpr{{Kind: AggCount, Name: "n"}}, Child: aliased(ordersRel(), "o")}
		},
		"grouped under sort and limit": func() LogicalPlan {
			return &LimitNode{N: 3, Child: &SortNode{Orders: []SortOrder{{Expr: Col("s"), Desc: true}}, Child: &AggregateNode{
				GroupBy: []NamedExpr{{Expr: Col("u.city"), Name: "city"}},
				Aggs:    []AggExpr{{Kind: AggSum, Arg: Col("u.score"), Name: "s"}},
				Child:   aliased(usersRel(), "u")}}}
		},
		"union": func() LogicalPlan {
			return &UnionNode{Inputs: []LogicalPlan{
				&ProjectNode{Exprs: []NamedExpr{{Expr: Col("id"), Name: "id"}}, Child: &ScanNode{Relation: usersRel()}},
				&ProjectNode{Exprs: []NamedExpr{{Expr: Col("oid"), Name: "id"}}, Child: &ScanNode{Relation: ordersRel()}},
			}}
		},
	}
	for name, build := range plans {
		p := build()
		checkScanSchemas(t, name+" built", p)
		opt := Optimize(p)
		checkScanSchemas(t, name+" optimized", opt)
		checkScanSchemas(t, name+" input after Optimize", p)
		checkScanSchemas(t, name+" bound", Bind(opt, nil))
		checkScanSchemas(t, name+" re-optimized", Optimize(opt))
		for _, s := range scansOf(opt) {
			s.Schema()
			if len(s.Projection) > 1 {
				s.Projection[0], s.Projection[1] = s.Projection[1], s.Projection[0]
				checkScanSchemas(t, name+" projection reordered in place", s)
			}
			s.Projection = s.Projection[:len(s.Projection)/2]
			checkScanSchemas(t, name+" projection shortened", s)
			s.Projection = []string{}
			checkScanSchemas(t, name+" empty projection", s)
			s.Projection = nil
			checkScanSchemas(t, name+" no projection", s)
			s.Alias = "z"
			checkScanSchemas(t, name+" realiased", s)
			s.Relation = &fakeRelation{name: "other", schema: Schema{{Name: "x", Type: TypeInt64}}}
			checkScanSchemas(t, name+" new relation", s)
		}
	}

	// Plans are read from several goroutines (run with -race).
	shared := &ScanNode{Relation: usersRel(), Alias: "u", Projection: []string{"u.age"}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := shared.Schema(); len(got) != 1 || got[0].Name != "u.age" {
					t.Errorf("concurrent schema = %s", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFormatRendersTree(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	p := &LimitNode{N: 5, Child: &SortNode{Orders: []SortOrder{{Expr: Col("age")}}, Child: scan}}
	out := Format(p)
	for _, want := range []string{"Limit 5", "Sort", "Scan users"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestPruningPreservedUnderSortAndLimit(t *testing.T) {
	scan := &ScanNode{Relation: usersRel()}
	p := &LimitNode{N: 3, Child: &SortNode{
		Orders: []SortOrder{{Expr: Col("score"), Desc: true}},
		Child: &ProjectNode{
			Exprs: []NamedExpr{{Expr: Col("score"), Name: "score"}},
			Child: scan,
		},
	}}
	opt := Optimize(p)
	s := findScan(opt, "users")
	if len(s.Projection) != 1 || s.Projection[0] != "score" {
		t.Errorf("projection = %v", s.Projection)
	}
}
