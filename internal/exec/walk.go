package exec

import "slices"

// mapInputs is the one list of each physical operator's inputs. It returns
// p with each input replaced by fn's result, and p itself when fn changed
// none; otherwise a shallow copy of p that holds the new inputs. A scan has
// no input, and neither has a PipelineExec: its Chain is display-only and
// never executes. A new operator with inputs adds its case here.
func mapInputs(p PhysicalPlan, fn func(PhysicalPlan) PhysicalPlan) PhysicalPlan {
	switch n := p.(type) {
	case *FilterExec:
		if c := fn(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *ProjectExec:
		if c := fn(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *LimitExec:
		if c := fn(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *SortExec:
		if c := fn(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *HashAggExec:
		if c := fn(n.Child); c != n.Child {
			cp := *n
			cp.Child = c
			return &cp
		}
	case *HashJoinExec:
		if l, r := fn(n.Left), fn(n.Right); l != n.Left || r != n.Right {
			cp := *n
			cp.Left, cp.Right = l, r
			return &cp
		}
	case *SortMergeJoinExec:
		if l, r := fn(n.Left), fn(n.Right); l != n.Left || r != n.Right {
			cp := *n
			cp.Left, cp.Right = l, r
			return &cp
		}
	case *UnionExec:
		var inputs []PhysicalPlan
		for i, in := range n.Inputs {
			if c := fn(in); c != in {
				if inputs == nil {
					inputs = slices.Clone(n.Inputs)
				}
				inputs[i] = c
			}
		}
		if inputs != nil {
			return &UnionExec{Inputs: inputs}
		}
	}
	return p
}
