package exec

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

	"github.com/shc-go/shc/internal/plan"
)

// everyKindOperator builds one operator of every physical kind: a union
// over a limit, project, filter and hash join, and over a sort, grouped
// hash aggregate and sort-merge join. The join's left input is a
// PipelineExec; leaf makes each of the three other join inputs.
func everyKindOperator(leaf func() PhysicalPlan) PhysicalPlan {
	scan := &ScanExec{Columns: []string{"k"}}
	pipe := &PipelineExec{Scan: scan, Chain: &FilterExec{Cond: plan.Lit(true), Child: scan}}
	return &UnionExec{Inputs: []PhysicalPlan{
		&LimitExec{N: 1, Child: &ProjectExec{Child: &FilterExec{Cond: plan.Lit(true),
			Child: &HashJoinExec{Left: pipe, Right: leaf()}}}},
		&SortExec{Child: &HashAggExec{GroupBy: []plan.NamedExpr{{Expr: plan.Col("k"), Name: "k"}},
			Child: &SortMergeJoinExec{Left: leaf(), Right: leaf()}}},
	}}
}

func bareScan() PhysicalPlan { return &ScanExec{Columns: []string{"k"}} }

func filteredScan() PhysicalPlan {
	return &FilterExec{Cond: plan.Lit(true), Child: &ScanExec{Columns: []string{"k"}}}
}

// operators lists every operator reachable through Children, a pipeline's
// Chain included, in depth-first order.
func operators(p PhysicalPlan) []PhysicalPlan {
	out := []PhysicalPlan{p}
	for _, c := range p.Children() {
		out = append(out, operators(c)...)
	}
	return out
}

// links lists each operator of p followed by its children: the tree's
// shape and identity, which a walker that copies on change must not alter.
func links(p PhysicalPlan) []PhysicalPlan {
	var out []PhysicalPlan
	for _, op := range operators(p) {
		out = append(append(out, op), op.Children()...)
	}
	return out
}

// kinds names each operator of p in depth-first order.
func kinds(p PhysicalPlan) []string {
	var out []string
	for _, op := range operators(p) {
		out = append(out, reflect.TypeOf(op).String())
	}
	return out
}

// TestEveryKindOperatorCoversEveryKind keeps the walker tests below
// complete: the tree they walk holds an operator of every type in this
// package that implements PhysicalPlan, except the instrumented decorator.
func TestEveryKindOperatorCoversEveryKind(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
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
			if !ok || fn.Recv == nil || fn.Name.Name != "Children" {
				continue
			}
			if res, ok := fn.Type.Results.List[0].Type.(*ast.ArrayType); !ok || types.ExprString(res.Elt) != "PhysicalPlan" {
				continue
			}
			if kind := fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name; kind != "instrumented" {
				declared = append(declared, kind)
			}
		}
	}
	var built []string
	for _, op := range operators(everyKindOperator(bareScan)) {
		if k := reflect.TypeOf(op).Elem().Name(); !slices.Contains(built, k) {
			built = append(built, k)
		}
	}
	sort.Strings(declared)
	sort.Strings(built)
	if len(declared) < 10 || !slices.Equal(declared, built) {
		t.Fatalf("operator kinds = %v, the walker tests' tree holds %v", declared, built)
	}
}

// TestCopyPlanReplacesEveryScan: copyPlan copies every operator and puts
// the replacement scan in a pipeline's Scan and in its Chain alike.
func TestCopyPlanReplacesEveryScan(t *testing.T) {
	p := everyKindOperator(bareScan)
	before := links(p)
	replaced := make(map[*ScanExec]*ScanExec)
	cp := copyPlan(p, func(s *ScanExec) *ScanExec {
		if replaced[s] == nil {
			c := *s
			replaced[s] = &c
		}
		return replaced[s]
	})
	if len(replaced) != 4 {
		t.Errorf("copyPlan replaced %d scans, want 4", len(replaced))
	}
	if !slices.Equal(kinds(cp), kinds(p)) || !slices.Equal(links(p), before) {
		t.Fatalf("copy holds %v, input %v", kinds(cp), kinds(p))
	}
	orig := operators(p)
	for _, op := range operators(cp) {
		if slices.Contains(orig, op) {
			t.Errorf("copy shares a %T", op)
		}
		if pipe, ok := op.(*PipelineExec); ok && pipe.Chain.Children()[0] != pipe.Scan {
			t.Error("a pipeline's Chain and Scan hold different scans")
		}
	}
}

// TestInstrumentWrapsEveryOperatorButChain: every operator outside a
// pipeline's Chain is wrapped, nothing inside it is, and the input is left
// unwrapped.
func TestInstrumentWrapsEveryOperatorButChain(t *testing.T) {
	p := everyKindOperator(bareScan)
	before := links(p)
	root := Instrument(p)
	wrapped := 0
	var walk func(PhysicalPlan, bool)
	walk = func(op PhysicalPlan, inChain bool) {
		_, isWrapped := op.(*instrumented)
		if isWrapped == inChain {
			t.Errorf("%T: wrapped=%v inside a Chain=%v", unwrap(op), isWrapped, inChain)
		}
		if isWrapped {
			wrapped++
		}
		_, isPipe := unwrap(op).(*PipelineExec)
		for _, c := range op.Children() {
			walk(c, inChain || isPipe)
		}
	}
	walk(root, false)
	if want := len(operators(p)) - 2; wrapped != want {
		t.Errorf("wrapped %d operators, want %d", wrapped, want)
	}
	if !slices.Equal(links(p), before) {
		t.Error("Instrument changed its input")
	}
}

// unwrap returns an instrumented operator's inner operator.
func unwrap(p PhysicalPlan) PhysicalPlan {
	if n, ok := p.(*instrumented); ok {
		return n.inner
	}
	return p
}

// TestFusePipelinesWalksEveryOperator: a tree with nothing to fuse comes
// back as the same operators, and a filtered scan under any operator is
// fused, the input left as it was.
func TestFusePipelinesWalksEveryOperator(t *testing.T) {
	p := everyKindOperator(bareScan)
	before := links(p)
	if got := FusePipelinesWith(p, true); got != p || !slices.Equal(links(got), before) {
		t.Fatalf("an unfusable tree was rebuilt: %v", kinds(got))
	}

	p = everyKindOperator(filteredScan)
	before = links(p)
	fused := FusePipelinesWith(p, true)
	pipes := 0
	var walk func(PhysicalPlan)
	walk = func(op PhysicalPlan) {
		if _, ok := op.(*PipelineExec); ok {
			pipes++
			return
		}
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(fused)
	if pipes != 4 {
		t.Errorf("fused tree holds %d pipelines, want 4: %v", pipes, kinds(fused))
	}
	if !slices.Equal(links(p), before) {
		t.Error("fusion changed its input")
	}
}
