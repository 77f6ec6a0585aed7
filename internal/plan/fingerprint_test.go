package plan

import (
	"strings"
	"testing"
)

// TestFingerprintMasksLiterals: the same query shape with different
// constants fingerprints identically; a structurally different predicate
// does not.
func TestFingerprintMasksLiterals(t *testing.T) {
	build := func(age any) LogicalPlan {
		return &FilterNode{
			Cond:  &Comparison{Op: OpGt, L: Col("age"), R: Lit(age)},
			Child: &ScanNode{Relation: usersRel()},
		}
	}
	fp1, shape1 := Fingerprint(build(30))
	fp2, shape2 := Fingerprint(build(99))
	if fp1 != fp2 || shape1 != shape2 {
		t.Fatalf("literal change altered fingerprint:\n  %s %s\n  %s %s", fp1, shape1, fp2, shape2)
	}
	if strings.Contains(shape1, "30") {
		t.Fatalf("shape leaks the literal: %s", shape1)
	}
	if !strings.Contains(shape1, "?") {
		t.Fatalf("shape has no placeholder: %s", shape1)
	}
	if len(fp1) != 16 {
		t.Fatalf("fingerprint = %q, want 16 hex digits", fp1)
	}

	ne := &FilterNode{
		Cond:  &Comparison{Op: OpNe, L: Col("age"), R: Lit(30)},
		Child: &ScanNode{Relation: usersRel()},
	}
	if fp3, _ := Fingerprint(ne); fp3 == fp1 {
		t.Fatal("different operator produced the same fingerprint")
	}

	// SELECT age + 1 and SELECT age + 2: the default column name renders
	// the literal, and is masked with it. An alias is kept verbatim.
	project := func(lit any, name string) LogicalPlan {
		e := &Arithmetic{Op: OpAdd, L: Col("age"), R: Lit(lit)}
		if name == "" {
			name = e.String()
		}
		return &ProjectNode{Exprs: []NamedExpr{{Expr: e, Name: name}}, Child: &ScanNode{Relation: usersRel()}}
	}
	fa, sa := Fingerprint(project(1, ""))
	fb, sb := Fingerprint(project(2, ""))
	if fa != fb || sa != sb {
		t.Fatalf("default-named literal projections diverge:\n  %s %s\n  %s %s", fa, sa, fb, sb)
	}
	if !strings.Contains(sa, "(age + ?) AS (age + ?)") {
		t.Fatalf("shape = %s", sa)
	}
	if _, s := Fingerprint(project(1, "next")); !strings.Contains(s, "(age + ?) AS next") {
		t.Fatalf("aliased shape = %s", s)
	}
}

// TestFingerprintCollapsesInLists: IN lists of different lengths normalize
// to one shape, so the stats table doesn't fragment across list sizes.
func TestFingerprintCollapsesInLists(t *testing.T) {
	build := func(vals ...any) LogicalPlan {
		es := make([]Expr, len(vals))
		for i, v := range vals {
			es[i] = Lit(v)
		}
		return &FilterNode{
			Cond:  &In{E: Col("city"), Values: es},
			Child: &ScanNode{Relation: usersRel()},
		}
	}
	fp2, _ := Fingerprint(build("a", "b"))
	fp5, shape := Fingerprint(build("a", "b", "c", "d", "e"))
	if fp2 != fp5 {
		t.Fatalf("IN list length altered fingerprint: %s", shape)
	}
	if strings.Contains(shape, `"a"`) {
		t.Fatalf("shape leaks IN values: %s", shape)
	}
}

// TestFingerprintStructuralDetails: masked limits share a shape; scans of
// different tables, or different projections, do not.
func TestFingerprintStructuralDetails(t *testing.T) {
	lim := func(n int) LogicalPlan {
		return &LimitNode{N: n, Child: &ScanNode{Relation: usersRel()}}
	}
	fa, _ := Fingerprint(lim(10))
	fb, _ := Fingerprint(lim(500))
	if fa != fb {
		t.Fatal("limit count altered fingerprint")
	}

	fu, _ := Fingerprint(&ScanNode{Relation: usersRel()})
	fo, _ := Fingerprint(&ScanNode{Relation: ordersRel()})
	if fu == fo {
		t.Fatal("different tables share a fingerprint")
	}

	p1, _ := Fingerprint(&ScanNode{Relation: usersRel(), Projection: []string{"id"}})
	p2, _ := Fingerprint(&ScanNode{Relation: usersRel(), Projection: []string{"age"}})
	if p1 == p2 {
		t.Fatal("different projections share a fingerprint")
	}
}

// TestFingerprintCoversOptimizedPlans: a full optimize pass (pushdown,
// pruning) still yields literal-independent fingerprints — the shape must
// mask literals that moved into ScanNode.Pushed.
func TestFingerprintCoversOptimizedPlans(t *testing.T) {
	build := func(min any) LogicalPlan {
		return Optimize(&ProjectNode{
			Exprs: []NamedExpr{{Expr: Col("id"), Name: "id"}},
			Child: &FilterNode{
				Cond:  &Comparison{Op: OpGe, L: Col("age"), R: Lit(min)},
				Child: &ScanNode{Relation: usersRel()},
			},
		})
	}
	fp1, shape := Fingerprint(build(18))
	fp2, _ := Fingerprint(build(65))
	if fp1 != fp2 {
		t.Fatalf("optimized plans with different literals diverge: %s", shape)
	}
	if strings.Contains(shape, "18") {
		t.Fatalf("pushed predicate leaks its literal: %s", shape)
	}
}
