package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/shc-go/shc/internal/plan"
)

// SortMergeJoinExec is the sort-merge equi-join — the algorithm Spark
// prefers for large inputs. Both sides shuffle by key (metered), sort, and
// merge; inner and left-outer semantics match HashJoinExec exactly,
// including SQL NULL keys never matching.
type SortMergeJoinExec struct {
	Left, Right         PhysicalPlan
	LeftKeys, RightKeys []plan.Expr
	Type                plan.JoinType
	OutSchema           plan.Schema
}

// Schema implements PhysicalPlan.
func (j *SortMergeJoinExec) Schema() plan.Schema { return j.OutSchema }

// Children implements PhysicalPlan.
func (j *SortMergeJoinExec) Children() []PhysicalPlan { return []PhysicalPlan{j.Left, j.Right} }

// Explain implements PhysicalPlan.
func (j *SortMergeJoinExec) Explain() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s = %s", j.LeftKeys[i], j.RightKeys[i])
	}
	return fmt.Sprintf("SortMergeJoinExec[%s] %s", j.Type, strings.Join(parts, " AND "))
}

// Execute implements PhysicalPlan.
func (j *SortMergeJoinExec) Execute(ctx *Context) ([]plan.Row, error) {
	left, err := j.Left.Execute(ctx)
	if err != nil {
		return nil, err
	}
	right, err := j.Right.Execute(ctx)
	if err != nil {
		return nil, err
	}
	lKey := keyIndexes(j.LeftKeys)
	rKey := keyIndexes(j.RightKeys)
	if lKey == nil || rKey == nil {
		return nil, fmt.Errorf("exec: join keys must be resolved column references")
	}
	n := ctx.shufflePartitions()
	lb := exchange(ctx, left, lKey, n)
	rb := exchange(ctx, right, rKey, n)

	rightWidth := len(j.Right.Schema())
	results := make([][]plan.Row, n)
	tasks := make([]Task, 0, n)
	for b := 0; b < n; b++ {
		b := b
		tasks = append(tasks, Task{Run: func(_ context.Context) error {
			out, err := mergeJoin(lb[b], rb[b], lKey, rKey, j.Type, rightWidth)
			if err != nil {
				return err
			}
			results[b] = out
			return nil
		}})
	}
	return runAll(ctx, tasks, results)
}

// compareKeys orders two rows by their key tuples; NULL sorts first.
func compareKeys(a plan.Row, aIdx []int, b plan.Row, bIdx []int) (int, error) {
	for i := range aIdx {
		c, err := plan.Compare(a[aIdx[i]], b[bIdx[i]])
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

func mergeJoin(left, right []plan.Row, lKey, rKey []int, jt plan.JoinType, rightWidth int) ([]plan.Row, error) {
	var sortErr error
	sortSide := func(rows []plan.Row, idx []int) {
		sort.SliceStable(rows, func(a, b int) bool {
			c, err := compareKeys(rows[a], idx, rows[b], idx)
			if err != nil {
				sortErr = err
				return false
			}
			return c < 0
		})
	}
	sortSide(left, lKey)
	sortSide(right, rKey)
	if sortErr != nil {
		return nil, sortErr
	}

	var out []plan.Row
	li, ri := 0, 0
	emitUnmatched := func(l plan.Row) {
		if jt == plan.LeftOuterJoin {
			joined := make(plan.Row, len(l)+rightWidth)
			copy(joined, l)
			out = append(out, joined)
		}
	}
	for li < len(left) {
		l := left[li]
		if hasNilKey(l, lKey) {
			emitUnmatched(l)
			li++
			continue
		}
		// Advance right past smaller (or NULL) keys.
		for ri < len(right) {
			if hasNilKey(right[ri], rKey) {
				ri++
				continue
			}
			c, err := compareKeys(right[ri], rKey, l, lKey)
			if err != nil {
				return nil, err
			}
			if c >= 0 {
				break
			}
			ri++
		}
		if ri >= len(right) {
			emitUnmatched(l)
			li++
			continue
		}
		c, err := compareKeys(right[ri], rKey, l, lKey)
		if err != nil {
			return nil, err
		}
		if c > 0 {
			emitUnmatched(l)
			li++
			continue
		}
		// Equal keys: find the right-side run and join every left row with
		// the same key against it.
		runEnd := ri
		for runEnd < len(right) {
			if hasNilKey(right[runEnd], rKey) {
				break
			}
			cc, err := compareKeys(right[runEnd], rKey, l, lKey)
			if err != nil {
				return nil, err
			}
			if cc != 0 {
				break
			}
			runEnd++
		}
		for li < len(left) {
			ll := left[li]
			if hasNilKey(ll, lKey) {
				break
			}
			cc, err := compareKeys(ll, lKey, l, lKey)
			if err != nil {
				return nil, err
			}
			if cc != 0 {
				break
			}
			for k := ri; k < runEnd; k++ {
				joined := make(plan.Row, 0, len(ll)+rightWidth)
				joined = append(joined, ll...)
				joined = append(joined, right[k]...)
				out = append(out, joined)
			}
			li++
		}
		ri = runEnd
	}
	return out, nil
}
