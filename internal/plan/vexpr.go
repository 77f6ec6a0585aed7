package plan

import "slices"

// This file compiles resolved expressions into closures over column batches
// — the expression-VM idiom. A predicate compiles once per query into a
// chain of selection-vector transforms, one loop per conjunct. Each side of
// a comparison, IN list or LIKE compiles to an unboxed operand of one of
// two families, numeric (columns, literals, arithmetic; compared in
// float64) or string (columns, literals), and one loop per family compares
// them. A column against a literal or another column, and a numeric
// column's IN list, also get a loop over the vectors' storage, used for
// batches that hold it. A projection compiles into per-output evaluators
// that read vectors positionally. Any other shape falls back to a closure
// that materializes just the referenced columns of one row and calls the
// interpreted Eval, so every expression is supported.
//
// Compiled programs are immutable and shared across concurrently running
// partitions; all per-worker mutable state lives in EvalScratch.

// EvalScratch holds per-worker scratch for compiled programs, so one
// compiled filter/projection can run on many partitions concurrently.
type EvalScratch struct {
	row Row
}

// NewEvalScratch sizes scratch for programs compiled against schema.
func NewEvalScratch(schema Schema) *EvalScratch {
	return &EvalScratch{row: make(Row, len(schema))}
}

// VecFilter narrows a selection vector to the rows satisfying one conjunct.
// It rewrites sel in place and returns the surviving prefix.
type VecFilter func(b *Batch, sel []int, sc *EvalScratch) ([]int, error)

// CompiledFilter is a predicate compiled to a conjunct chain.
type CompiledFilter struct {
	steps []VecFilter
}

// Run applies the filter, narrowing sel to the surviving rows.
func (f *CompiledFilter) Run(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
	var err error
	for _, step := range f.steps {
		sel, err = step(b, sel, sc)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return sel, nil
		}
	}
	return sel, nil
}

// CompileFilter compiles a resolved predicate into a vectorized filter.
// SQL semantics match EvalPredicate exactly: a conjunct evaluating to NULL
// drops the row. Like the projection compiler it never fails: unsupported
// conjuncts get an interpreted fallback.
func CompileFilter(e Expr) *CompiledFilter {
	out := &CompiledFilter{}
	for _, c := range SplitConjuncts(e) {
		out.steps = append(out.steps, compileConjunct(c))
	}
	return out
}

// compileConjunct returns a filter step for one conjunct: a typed loop
// where one exists, the interpreted fallback otherwise.
func compileConjunct(e Expr) VecFilter {
	switch x := e.(type) {
	case *Comparison:
		if f := compileComparison(x); f != nil {
			return f
		}
	case *In:
		if f := compileIn(x); f != nil {
			return f
		}
	case *IsNull:
		if c, ok := x.E.(*ColumnRef); ok && c.idx >= 0 {
			idx, neg := c.idx, x.Negate
			return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
				v := b.Cols[idx]
				out := sel[:0]
				for _, i := range sel {
					if v.Null(i) != neg {
						out = append(out, i)
					}
				}
				return out, nil
			}
		}
	case *Like:
		if e, ok := compileStr(x.E); ok {
			pat := x.Pattern
			return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
				out := sel[:0]
				for _, i := range sel {
					s, null, err := e(b, i)
					if err != nil {
						return nil, err
					}
					if !null && likeMatch(s, pat) {
						out = append(out, i)
					}
				}
				return out, nil
			}
		}
	case *Not:
		// NOT pushes through the NULL-dropping filter semantics for nodes
		// whose negation is expressible in the same family: the result is
		// NULL exactly when the operand is, and flips otherwise.
		switch inner := x.E.(type) {
		case *Comparison:
			return compileConjunct(&Comparison{Op: negateCmp(inner.Op), L: inner.L, R: inner.R})
		case *In:
			return compileConjunct(&In{E: inner.E, Values: inner.Values, Negate: !inner.Negate})
		case *IsNull:
			return compileConjunct(&IsNull{E: inner.E, Negate: !inner.Negate})
		case *Not:
			return compileConjunct(inner.E)
		}
	}
	return rowFallbackFilter(e)
}

func negateCmp(op CmpOp) CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// cmpKeep reports whether a three-way comparison result satisfies op.
func cmpKeep(op CmpOp, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	}
	return c >= 0
}

// compileComparison compiles a comparison from its operands; nil when the
// two sides share no compiled family. Numeric operands compare in float64,
// exactly like Compare, so results match the row path bit for bit.
func compileComparison(x *Comparison) VecFilter {
	if _, ok := x.L.(*Literal); ok {
		x = &Comparison{Op: flipCmp(x.Op), L: x.R, R: x.L}
	}
	if l, ok := compileNum(x.L); ok {
		if r, ok := compileNum(x.R); ok {
			return typedCmp(x, cmpLoop(l, r, x.Op))
		}
	}
	if l, ok := compileStr(x.L); ok {
		if r, ok := compileStr(x.R); ok {
			return typedCmp(x, cmpLoop(l, r, x.Op))
		}
	}
	return nil
}

func flipCmp(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// threeWay orders two values of one operand family the way Compare does
// (for floats, NaN orders equal to everything).
func threeWay[T float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpLoop keeps the rows where neither operand is NULL and op holds.
func cmpLoop[T float64 | string](l, r operand[T], op CmpOp) VecFilter {
	return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
		out := sel[:0]
		for _, i := range sel {
			lv, lnull, err := l(b, i)
			if err != nil {
				return nil, err
			}
			rv, rnull, err := r(b, i)
			if err != nil {
				return nil, err
			}
			if !lnull && !rnull && cmpKeep(op, threeWay(lv, rv)) {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

// typedCmp gives the comparisons of a column against a non-NULL literal of
// its family, or against another column, a loop over the vectors' storage
// for batches that hold it (int64 and float64 against a literal; int64 or
// string pairs). Any other shape or storage (lazy, boxed) runs generic,
// the operand loop, whose two calls per row would double these shapes'
// cost.
func typedCmp(x *Comparison, generic VecFilter) VecFilter {
	c, ok := x.L.(*ColumnRef)
	if !ok {
		return generic
	}
	li, op := c.idx, x.Op
	switch r := x.R.(type) {
	case *Literal:
		if kf, ok := ToFloat(r.Val); ok {
			return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
				switch v := b.Cols[li]; v.Kind {
				case KindInt64:
					return keepVsConst(v, v.Int64s, sel, op, kf), nil
				case KindFloat64:
					return keepVsConst(v, v.Float64s, sel, op, kf), nil
				}
				return generic(b, sel, sc)
			}
		}
		if ks, ok := r.Val.(string); ok {
			return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
				v := b.Cols[li]
				if v.Kind != KindString {
					return generic(b, sel, sc)
				}
				out := sel[:0]
				for _, i := range sel {
					if !v.Null(i) && cmpKeep(op, threeWay(v.Strings[i], ks)) {
						out = append(out, i)
					}
				}
				return out, nil
			}
		}
	case *ColumnRef:
		ri := r.idx
		return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
			lv, rv := b.Cols[li], b.Cols[ri]
			out := sel[:0]
			switch {
			case lv.Kind == KindInt64 && rv.Kind == KindInt64:
				for _, i := range sel {
					if !lv.Null(i) && !rv.Null(i) && cmpKeep(op, threeWay(float64(lv.Int64s[i]), float64(rv.Int64s[i]))) {
						out = append(out, i)
					}
				}
			case lv.Kind == KindString && rv.Kind == KindString:
				for _, i := range sel {
					if !lv.Null(i) && !rv.Null(i) && cmpKeep(op, threeWay(lv.Strings[i], rv.Strings[i])) {
						out = append(out, i)
					}
				}
			default:
				return generic(b, sel, sc)
			}
			return out, nil
		}
	}
	return generic
}

func keepVsConst[T int64 | float64](v *Vector, data []T, sel []int, op CmpOp, k float64) []int {
	out := sel[:0]
	for _, i := range sel {
		if !v.Null(i) && cmpKeep(op, threeWay(float64(data[i]), k)) {
			out = append(out, i)
		}
	}
	return out
}

// compileIn compiles membership of an operand in a literal list of the
// same family. The three-valued outcome mirrors In.Eval: a match keeps (or
// drops, negated), a miss with a NULL in the list is NULL and drops.
func compileIn(x *In) VecFilter {
	var nums []float64
	var strs []string
	hasNull := false
	for _, ve := range x.Values {
		lit, ok := ve.(*Literal)
		if !ok {
			return nil
		}
		switch v := lit.Val.(type) {
		case nil:
			hasNull = true
		case string:
			strs = append(strs, v)
		default:
			f, ok := ToFloat(v)
			if !ok {
				return nil
			}
			nums = append(nums, f)
		}
	}
	if e, ok := compileNum(x.E); ok && len(strs) == 0 {
		generic, neg := inLoop(e, nums, x.Negate, hasNull), x.Negate
		c, ok := x.E.(*ColumnRef)
		if !ok {
			return generic
		}
		// A numeric column reads its storage directly, as typedCmp does.
		idx := c.idx
		return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
			switch v := b.Cols[idx]; v.Kind {
			case KindInt64:
				return keepIn(v, v.Int64s, sel, nums, neg, hasNull), nil
			case KindFloat64:
				return keepIn(v, v.Float64s, sel, nums, neg, hasNull), nil
			}
			return generic(b, sel, sc)
		}
	}
	if e, ok := compileStr(x.E); ok && len(nums) == 0 {
		return inLoop(e, strs, x.Negate, hasNull)
	}
	return nil
}

func inLoop[T float64 | string](e operand[T], set []T, negate, listHasNull bool) VecFilter {
	return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
		out := sel[:0]
		for _, i := range sel {
			v, null, err := e(b, i)
			if err != nil {
				return nil, err
			}
			if null {
				continue
			}
			if keepMembership(slices.Contains(set, v), negate, listHasNull) {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

func keepIn[T int64 | float64](v *Vector, data []T, sel []int, set []float64, negate, listHasNull bool) []int {
	out := sel[:0]
	for _, i := range sel {
		if !v.Null(i) && keepMembership(slices.Contains(set, float64(data[i])), negate, listHasNull) {
			out = append(out, i)
		}
	}
	return out
}

// keepMembership folds In's three-valued result into the filter decision
// for a non-NULL probe: match → !negate; miss with a NULL literal → NULL
// (drop); clean miss → negate.
func keepMembership(match, negate, listHasNull bool) bool {
	if match {
		return !negate
	}
	if listHasNull {
		return false
	}
	return negate
}

// interpreted evaluates e at one batch position through the interpreted
// Eval, materializing only the columns e references: the fallback that
// keeps every expression shape supported, for filters and projections.
func interpreted(e Expr) scalarFn {
	var cols []int
	seen := make(map[int]bool)
	var walk func(Expr)
	walk = func(x Expr) {
		if c, ok := x.(*ColumnRef); ok && c.idx >= 0 && !seen[c.idx] {
			seen[c.idx] = true
			cols = append(cols, c.idx)
		}
		for _, ch := range x.Children() {
			walk(ch)
		}
	}
	walk(e)
	return func(b *Batch, i int, sc *EvalScratch) (any, error) {
		for _, ci := range cols {
			v, err := b.Cols[ci].Value(i)
			if err != nil {
				return nil, err
			}
			sc.row[ci] = v
		}
		return e.Eval(sc.row)
	}
}

// rowFallbackFilter keeps the rows where the interpreted conjunct is true;
// NULL drops, as in EvalPredicate.
func rowFallbackFilter(e Expr) VecFilter {
	eval := interpreted(e)
	return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
		out := sel[:0]
		for _, i := range sel {
			v, err := eval(b, i, sc)
			if err != nil {
				return nil, err
			}
			if keep, _ := v.(bool); keep {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

// scalarFn evaluates one output expression at one batch position, boxed.
type scalarFn func(b *Batch, i int, sc *EvalScratch) (any, error)

// operand evaluates a numeric or string expression at one batch position
// without boxing; null=true represents SQL NULL.
type operand[T float64 | string] func(b *Batch, i int) (v T, null bool, err error)

// CompiledProjection evaluates a projection list against batch positions.
type CompiledProjection struct {
	fns []scalarFn
	// Vectorized reports that every output compiled to a typed accessor.
	Vectorized bool
}

// CompileProjection compiles resolved projection expressions. Like the
// filter compiler it never fails: unsupported shapes get an interpreted
// fallback that materializes just the referenced columns.
func CompileProjection(exprs []NamedExpr) *CompiledProjection {
	out := &CompiledProjection{fns: make([]scalarFn, len(exprs)), Vectorized: true}
	for i, ne := range exprs {
		fn, fast := compileScalar(ne.Expr)
		out.fns[i] = fn
		out.Vectorized = out.Vectorized && fast
	}
	return out
}

// Width reports the number of output columns.
func (p *CompiledProjection) Width() int { return len(p.fns) }

// ProjectRow evaluates every output expression at position i into dst,
// which must have Width() entries.
func (p *CompiledProjection) ProjectRow(b *Batch, i int, sc *EvalScratch, dst Row) error {
	for j, fn := range p.fns {
		v, err := fn(b, i, sc)
		if err != nil {
			return err
		}
		dst[j] = v
	}
	return nil
}

func compileScalar(e Expr) (scalarFn, bool) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.idx >= 0 {
			idx := x.idx
			return func(b *Batch, i int, _ *EvalScratch) (any, error) {
				return b.Cols[idx].Value(i)
			}, true
		}
	case *Literal:
		v := x.Val
		return func(*Batch, int, *EvalScratch) (any, error) { return v, nil }, true
	case *Arithmetic:
		if nf, ok := compileNum(x); ok {
			return func(b *Batch, i int, _ *EvalScratch) (any, error) {
				v, null, err := nf(b, i)
				if err != nil || null {
					return nil, err
				}
				return v, nil
			}, true
		}
	}
	return interpreted(e), false
}

// compileNum compiles a numeric column, literal or arithmetic expression
// to an unboxed operand, mirroring Arithmetic.Eval's widening, NULL
// propagation, and NULL on division by zero.
func compileNum(e Expr) (operand[float64], bool) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.idx >= 0 && x.typ.Numeric() {
			idx := x.idx
			return func(b *Batch, i int) (float64, bool, error) {
				f, ok, err := b.Cols[idx].Num(i)
				return f, !ok, err
			}, true
		}
	case *Literal:
		if x.Val == nil {
			return func(*Batch, int) (float64, bool, error) { return 0, true, nil }, true
		}
		if f, ok := ToFloat(x.Val); ok {
			return func(*Batch, int) (float64, bool, error) { return f, false, nil }, true
		}
	case *Arithmetic:
		lf, lok := compileNum(x.L)
		rf, rok := compileNum(x.R)
		if !lok || !rok {
			return nil, false
		}
		op := x.Op
		return func(b *Batch, i int) (float64, bool, error) {
			l, lnull, err := lf(b, i)
			if err != nil || lnull {
				return 0, true, err
			}
			r, rnull, err := rf(b, i)
			if err != nil || rnull {
				return 0, true, err
			}
			switch op {
			case OpAdd:
				return l + r, false, nil
			case OpSub:
				return l - r, false, nil
			case OpMul:
				return l * r, false, nil
			}
			if r == 0 {
				return 0, true, nil
			}
			return l / r, false, nil
		}, true
	}
	return nil, false
}

// compileStr compiles a string column or literal to an unboxed operand.
func compileStr(e Expr) (operand[string], bool) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.idx >= 0 && x.typ == TypeString {
			idx := x.idx
			return func(b *Batch, i int) (string, bool, error) {
				s, ok, err := b.Cols[idx].Str(i)
				return s, !ok, err
			}, true
		}
	case *Literal:
		if x.Val == nil {
			return func(*Batch, int) (string, bool, error) { return "", true, nil }, true
		}
		if s, ok := x.Val.(string); ok {
			return func(*Batch, int) (string, bool, error) { return s, false, nil }, true
		}
	}
	return nil, false
}
