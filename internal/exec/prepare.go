package exec

import (
	"slices"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/plan"
)

// Prepared is a physical plan compiled once for a plan template whose
// literals are slots (plan.Literal.Slot). Everything that does not depend
// on the literals is built once and shared, read-only, by every execution:
// output schemas, required columns, resolved expressions, each scan's
// source filters and prepared source scan (datasource.PrepareScan), the
// residual filter and the pipeline's vector program. An execution (Bind)
// only translates the slotted filters with its values and binds each
// prepared source scan to them against the source's current state — for
// HBase, the client's current region map — so the template holds no region
// boundaries and a split or move needs no invalidation.
//
// A Prepared is immutable and safe for concurrent Binds.
type Prepared struct {
	root  PhysicalPlan // nil when the plan's literals cannot be bound this way
	scans []*preparedScan
}

// preparedScan is one scan of a prepared plan.
type preparedScan struct {
	// scan is the compiled scan, with the preparing query's filters and
	// no partitions.
	scan *ScanExec
	// pushed is the predicate behind each of scan.Filters.
	pushed []plan.Expr
	// unhandled is what the source left unhandled of scan.Filters: the
	// residual the plan re-applies.
	unhandled []int
	// slotted marks the filters that carry a slotted literal.
	slotted []bool
	// prep is the source's scan, prepared with slotted marked.
	prep datasource.PreparedScan
}

// Prepare compiles p, which holds one query's literal values in its slots,
// and returns the physical plan for that query together with a Prepared
// that later queries of the same template Bind to their own values.
//
// When some slotted literal reaches beyond the source filters the scans
// evaluate themselves — into a residual filter, a projection, a join or an
// aggregate — those parts are compiled with the preparing query's values,
// so the Prepared binds no query (Bind reports ok=false) and the template
// compiles per execution.
func Prepare(p plan.LogicalPlan, cfg CompileConfig) (*Prepared, PhysicalPlan, error) {
	root, scans, err := compile(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	pushedSlots := 0
	for _, ps := range scans {
		for i, e := range ps.pushed {
			if !slices.Contains(ps.unhandled, i) {
				pushedSlots += plan.ExprSlotRefs(e)
			}
		}
	}
	if pushedSlots != plan.SlotRefs(p) {
		return &Prepared{}, root, nil
	}
	pp := &Prepared{root: root, scans: scans}
	bound := make([]*ScanExec, len(scans))
	for i, ps := range scans {
		s := *ps.scan
		bound[i] = &s
		// The partitions belong to this query: the prepared plan keeps no
		// region boundaries.
		ps.scan.Partitions = nil
	}
	return pp, pp.instance(bound), nil
}

// Bind instantiates the plan for one query's slot values (plan.Bind's
// vals): each scan's slotted filters are translated with vals and its
// prepared source scan is bound to them, once. ok=false means a value did
// not translate or changed which filters the source leaves unhandled, so
// the prepared residual does not fit; the caller then compiles the bound
// logical plan, which plans its scans afresh.
func (pp *Prepared) Bind(vals []any) (phys PhysicalPlan, ok bool, err error) {
	if pp.root == nil {
		return nil, false, nil
	}
	bound := make([]*ScanExec, len(pp.scans))
	for i, ps := range pp.scans {
		if bound[i], ok, err = ps.bind(vals); !ok || err != nil {
			return nil, false, err
		}
	}
	return pp.instance(bound), true, nil
}

// bind plans the scan for vals; see Bind.
func (ps *preparedScan) bind(vals []any) (*ScanExec, bool, error) {
	s := *ps.scan
	if slices.Contains(ps.slotted, true) {
		s.Filters = slices.Clone(s.Filters)
		schema := s.Source.Schema()
		for i, e := range ps.pushed {
			if !ps.slotted[i] {
				continue
			}
			f, ok := translateFilter(e, schema, vals)
			if !ok {
				return nil, false, nil
			}
			s.Filters[i] = f
		}
	}
	parts, unhandled, err := ps.prep.BindScan(s.Filters)
	if err != nil {
		return nil, false, err
	}
	if !slices.Equal(unhandled, ps.unhandled) {
		return nil, false, nil
	}
	s.Partitions = parts
	return &s, true, nil
}

// instance copies the prepared tree with bound[i] in place of scans[i].
// Every operator sits above some scan, so every operator is copied and an
// execution may instrument or fill its own plan, while the expressions and
// vector programs stay shared.
func (pp *Prepared) instance(bound []*ScanExec) PhysicalPlan {
	return copyPlan(pp.root, func(s *ScanExec) *ScanExec {
		for i, ps := range pp.scans {
			if ps.scan == s {
				return bound[i]
			}
		}
		return s
	})
}

// copyPlan copies p's operators above each scan, replacing the scan with
// scan(s), in a pipeline's Chain as well as its Scan.
func copyPlan(p PhysicalPlan, scan func(*ScanExec) *ScanExec) PhysicalPlan {
	switch n := p.(type) {
	case *ScanExec:
		return scan(n)
	case *PipelineExec:
		cp := *n
		cp.Scan, cp.Chain = scan(n.Scan), copyPlan(n.Chain, scan)
		return &cp
	}
	return mapInputs(p, func(c PhysicalPlan) PhysicalPlan { return copyPlan(c, scan) })
}
