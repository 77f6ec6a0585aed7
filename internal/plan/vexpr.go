package plan

import (
	"bytes"
	"fmt"
)

// This file compiles resolved expressions into closures over column batches
// — the expression-VM idiom. A predicate compiles once per query into a
// chain of selection-vector transforms (each conjunct a tight loop over one
// or two vectors); a projection compiles into per-output scalar evaluators
// that read vectors positionally. Any expression shape without a typed fast
// path falls back to a closure that materializes just the referenced
// columns of one row and calls the interpreted Eval — so every expression
// is supported and fallbacks still benefit from late materialization.
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
func CompileFilter(e Expr, schema Schema) *CompiledFilter {
	out := &CompiledFilter{}
	for _, c := range SplitConjuncts(e) {
		out.steps = append(out.steps, compileConjunct(c, schema))
	}
	return out
}

// compileConjunct returns a filter step for one conjunct: a typed loop
// where one exists, the interpreted fallback otherwise.
func compileConjunct(e Expr, schema Schema) VecFilter {
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
		if c, ok := x.E.(*ColumnRef); ok && c.idx >= 0 && c.typ == TypeString {
			idx, pat := c.idx, x.Pattern
			generic := rowFallbackFilter(x, schema)
			return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
				v := b.Cols[idx]
				if v.Kind != KindString {
					return generic(b, sel, sc)
				}
				out := sel[:0]
				for _, i := range sel {
					if !v.Null(i) && likeMatch(v.Strings[i], pat) {
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
			return compileConjunct(&Comparison{Op: negateCmp(inner.Op), L: inner.L, R: inner.R}, schema)
		case *In:
			return compileConjunct(&In{E: inner.E, Values: inner.Values, Negate: !inner.Negate}, schema)
		case *IsNull:
			return compileConjunct(&IsNull{E: inner.E, Negate: !inner.Negate}, schema)
		case *Not:
			return compileConjunct(inner.E, schema)
		}
	}
	return rowFallbackFilter(e, schema)
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

func cmpFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compileComparison builds a typed loop for col-vs-literal and col-vs-col
// comparisons; nil when no fast path applies. Numeric comparisons happen in
// float64 space, exactly like Compare, so results match the row path bit
// for bit.
func compileComparison(x *Comparison) VecFilter {
	if c, ok := x.L.(*ColumnRef); ok && c.idx >= 0 {
		if lit, ok := x.R.(*Literal); ok {
			return cmpColLit(c, x.Op, lit.Val)
		}
		if rc, ok := x.R.(*ColumnRef); ok && rc.idx >= 0 {
			return cmpColCol(c, x.Op, rc)
		}
	}
	if lit, ok := x.L.(*Literal); ok {
		if c, ok := x.R.(*ColumnRef); ok && c.idx >= 0 {
			return cmpColLit(c, flipCmp(x.Op), lit.Val)
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

// numAt reads entry i of a numeric vector as float64; ok=false for NULL.
func numAt(v *Vector, i int) (float64, bool, error) { return v.Num(i) }

func cmpColLit(c *ColumnRef, op CmpOp, lit any) VecFilter {
	if lit == nil {
		// NULL literal: every comparison is NULL, nothing survives.
		return func(_ *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			return sel[:0], nil
		}
	}
	idx := c.idx
	switch KindOf(c.typ) {
	case KindInt64, KindFloat64:
		lf, ok := ToFloat(lit)
		if !ok {
			return nil
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			switch v.Kind {
			case KindInt64:
				data := v.Int64s
				for _, i := range sel {
					if !v.Null(i) && cmpKeep(op, cmpFloats(float64(data[i]), lf)) {
						out = append(out, i)
					}
				}
			case KindFloat64:
				data := v.Float64s
				for _, i := range sel {
					if !v.Null(i) && cmpKeep(op, cmpFloats(data[i], lf)) {
						out = append(out, i)
					}
				}
			default:
				for _, i := range sel {
					f, ok, err := numAt(v, i)
					if err != nil {
						return nil, err
					}
					if ok && cmpKeep(op, cmpFloats(f, lf)) {
						out = append(out, i)
					}
				}
			}
			return out, nil
		}
	case KindString:
		ls, ok := lit.(string)
		if !ok {
			return nil
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			if v.Kind == KindString {
				data := v.Strings
				for _, i := range sel {
					if !v.Null(i) && cmpKeep(op, compareStrings(data[i], ls)) {
						out = append(out, i)
					}
				}
				return out, nil
			}
			for _, i := range sel {
				val, err := v.Value(i)
				if err != nil {
					return nil, err
				}
				s, ok := val.(string)
				if val != nil && !ok {
					return nil, fmt.Errorf("plan: cannot compare string with %T", val)
				}
				if val != nil && cmpKeep(op, compareStrings(s, ls)) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	case KindBool:
		lb, ok := lit.(bool)
		if !ok {
			return nil
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			for _, i := range sel {
				val, err := v.Value(i)
				if err != nil {
					return nil, err
				}
				vb, isBool := val.(bool)
				if val == nil {
					continue
				}
				if !isBool {
					return nil, fmt.Errorf("plan: cannot compare bool with %T", val)
				}
				if cmpKeep(op, compareBools(vb, lb)) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	case KindBytes:
		lv, ok := lit.([]byte)
		if !ok {
			return nil
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			if v.Kind == KindBytes {
				data := v.Bytes
				for _, i := range sel {
					if !v.Null(i) && cmpKeep(op, bytes.Compare(data[i], lv)) {
						out = append(out, i)
					}
				}
				return out, nil
			}
			for _, i := range sel {
				val, err := v.Value(i)
				if err != nil {
					return nil, err
				}
				bv, isBytes := val.([]byte)
				if val == nil {
					continue
				}
				if !isBytes {
					return nil, fmt.Errorf("plan: cannot compare binary with %T", val)
				}
				if cmpKeep(op, bytes.Compare(bv, lv)) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	}
	return nil
}

func cmpColCol(l *ColumnRef, op CmpOp, r *ColumnRef) VecFilter {
	lk, rk := KindOf(l.typ), KindOf(r.typ)
	numeric := func(k VecKind) bool { return k == KindInt64 || k == KindFloat64 }
	li, ri := l.idx, r.idx
	switch {
	case numeric(lk) && numeric(rk):
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			lv, rv := b.Cols[li], b.Cols[ri]
			out := sel[:0]
			for _, i := range sel {
				lf, lok, err := numAt(lv, i)
				if err != nil {
					return nil, err
				}
				rf, rok, err := numAt(rv, i)
				if err != nil {
					return nil, err
				}
				if lok && rok && cmpKeep(op, cmpFloats(lf, rf)) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	case lk == KindString && rk == KindString:
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			lv, rv := b.Cols[li], b.Cols[ri]
			out := sel[:0]
			if lv.Kind == KindString && rv.Kind == KindString {
				for _, i := range sel {
					if !lv.Null(i) && !rv.Null(i) && cmpKeep(op, compareStrings(lv.Strings[i], rv.Strings[i])) {
						out = append(out, i)
					}
				}
				return out, nil
			}
			for _, i := range sel {
				a, err := lv.Value(i)
				if err != nil {
					return nil, err
				}
				bb, err := rv.Value(i)
				if err != nil {
					return nil, err
				}
				if a == nil || bb == nil {
					continue
				}
				c, err := Compare(a, bb)
				if err != nil {
					return nil, err
				}
				if cmpKeep(op, c) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	}
	return nil
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareBools(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// compileIn builds a typed membership loop for a column tested against a
// literal list. The three-valued outcome mirrors In.Eval: a match keeps
// (or drops, negated), a miss with a NULL in the list is NULL and drops.
func compileIn(x *In) VecFilter {
	c, ok := x.E.(*ColumnRef)
	if !ok || c.idx < 0 {
		return nil
	}
	lits := make([]any, 0, len(x.Values))
	hasNull := false
	for _, ve := range x.Values {
		lit, ok := ve.(*Literal)
		if !ok {
			return nil
		}
		if lit.Val == nil {
			hasNull = true
			continue
		}
		lits = append(lits, lit.Val)
	}
	idx, neg := c.idx, x.Negate
	switch KindOf(c.typ) {
	case KindInt64, KindFloat64:
		floats := make([]float64, 0, len(lits))
		for _, lv := range lits {
			f, ok := ToFloat(lv)
			if !ok {
				return nil
			}
			floats = append(floats, f)
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			for _, i := range sel {
				f, ok, err := numAt(v, i)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				match := false
				for _, lf := range floats {
					if f == lf {
						match = true
						break
					}
				}
				if keepMembership(match, neg, hasNull) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	case KindString:
		strs := make([]string, 0, len(lits))
		for _, lv := range lits {
			s, ok := lv.(string)
			if !ok {
				return nil
			}
			strs = append(strs, s)
		}
		return func(b *Batch, sel []int, _ *EvalScratch) ([]int, error) {
			v := b.Cols[idx]
			out := sel[:0]
			for _, i := range sel {
				val, err := v.Value(i)
				if err != nil {
					return nil, err
				}
				if val == nil {
					continue
				}
				s, ok := val.(string)
				if !ok {
					return nil, fmt.Errorf("plan: cannot compare string with %T", val)
				}
				match := false
				for _, ls := range strs {
					if s == ls {
						match = true
						break
					}
				}
				if keepMembership(match, neg, hasNull) {
					out = append(out, i)
				}
			}
			return out, nil
		}
	}
	return nil
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

// columnIndexes collects the bound positions of every column e references.
func columnIndexes(e Expr) []int {
	var out []int
	seen := make(map[int]bool)
	var walk func(Expr)
	walk = func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			if c.idx >= 0 && !seen[c.idx] {
				seen[c.idx] = true
				out = append(out, c.idx)
			}
			return
		}
		for _, ch := range x.Children() {
			walk(ch)
		}
	}
	walk(e)
	return out
}

// rowFallbackFilter evaluates one conjunct through the interpreted Eval,
// materializing only the columns it references — the universal fallback
// that keeps every expression shape supported.
func rowFallbackFilter(e Expr, schema Schema) VecFilter {
	cols := columnIndexes(e)
	return func(b *Batch, sel []int, sc *EvalScratch) ([]int, error) {
		out := sel[:0]
		for _, i := range sel {
			for _, ci := range cols {
				v, err := b.Cols[ci].Value(i)
				if err != nil {
					return nil, err
				}
				sc.row[ci] = v
			}
			ok, err := EvalPredicate(e, sc.row)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, i)
			}
		}
		return out, nil
	}
}

// scalarFn evaluates one output expression at one batch position, boxed.
type scalarFn func(b *Batch, i int, sc *EvalScratch) (any, error)

// numFn evaluates a numeric expression at one position without boxing;
// null=true represents SQL NULL.
type numFn func(b *Batch, i int, sc *EvalScratch) (v float64, null bool, err error)

// CompiledProjection evaluates a projection list against batch positions.
type CompiledProjection struct {
	fns []scalarFn
	// Vectorized reports that every output compiled to a typed accessor.
	Vectorized bool
}

// CompileProjection compiles resolved projection expressions. Like the
// filter compiler it never fails: unsupported shapes get an interpreted
// fallback that materializes just the referenced columns.
func CompileProjection(exprs []NamedExpr, schema Schema) *CompiledProjection {
	out := &CompiledProjection{fns: make([]scalarFn, len(exprs)), Vectorized: true}
	for i, ne := range exprs {
		fn, fast := compileScalar(ne.Expr, schema)
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

func compileScalar(e Expr, schema Schema) (scalarFn, bool) {
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
			return func(b *Batch, i int, sc *EvalScratch) (any, error) {
				v, null, err := nf(b, i, sc)
				if err != nil || null {
					return nil, err
				}
				return v, nil
			}, true
		}
	}
	cols := columnIndexes(e)
	return func(b *Batch, i int, sc *EvalScratch) (any, error) {
		for _, ci := range cols {
			v, err := b.Cols[ci].Value(i)
			if err != nil {
				return nil, err
			}
			sc.row[ci] = v
		}
		return e.Eval(sc.row)
	}, false
}

// compileNum compiles a numeric expression to an unboxed evaluator,
// mirroring Arithmetic.Eval's widening, NULL propagation, and NULL on
// division by zero.
func compileNum(e Expr) (numFn, bool) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.idx >= 0 && x.typ.Numeric() {
			idx := x.idx
			return func(b *Batch, i int, _ *EvalScratch) (float64, bool, error) {
				f, ok, err := numAt(b.Cols[idx], i)
				return f, !ok, err
			}, true
		}
	case *Literal:
		if x.Val == nil {
			return func(*Batch, int, *EvalScratch) (float64, bool, error) { return 0, true, nil }, true
		}
		if f, ok := ToFloat(x.Val); ok {
			return func(*Batch, int, *EvalScratch) (float64, bool, error) { return f, false, nil }, true
		}
	case *Arithmetic:
		lf, lok := compileNum(x.L)
		rf, rok := compileNum(x.R)
		if !lok || !rok {
			return nil, false
		}
		op := x.Op
		return func(b *Batch, i int, sc *EvalScratch) (float64, bool, error) {
			l, lnull, err := lf(b, i, sc)
			if err != nil || lnull {
				return 0, true, err
			}
			r, rnull, err := rf(b, i, sc)
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
