package plan

import (
	"fmt"
	"strings"
)

// Expr is a typed expression tree evaluated against rows. Expressions are
// resolved against a schema once (Resolve), which binds column references
// to positions, then evaluated per row.
type Expr interface {
	// Eval computes the expression over a row. The schema is the one the
	// expression was resolved against.
	Eval(row Row) (any, error)
	// Type reports the expression's result type after resolution.
	Type() DataType
	// String renders the expression.
	String() string
	// Children returns sub-expressions (for tree walks).
	Children() []Expr
	// withChildren rebuilds the node with replaced children.
	WithChildren(children []Expr) Expr
}

// ColumnRef names a column; Resolve binds its position and type.
type ColumnRef struct {
	Name string
	idx  int
	typ  DataType
}

// Col constructs an unresolved column reference.
func Col(name string) *ColumnRef { return &ColumnRef{Name: name, idx: -1} }

// Eval implements Expr.
func (c *ColumnRef) Eval(row Row) (any, error) {
	if c.idx < 0 {
		return nil, fmt.Errorf("plan: column %q not resolved", c.Name)
	}
	if c.idx >= len(row) {
		return nil, fmt.Errorf("plan: column %q index %d out of range for row of %d", c.Name, c.idx, len(row))
	}
	return row[c.idx], nil
}

// Type implements Expr.
func (c *ColumnRef) Type() DataType { return c.typ }

// String implements Expr.
func (c *ColumnRef) String() string { return c.Name }

// Children implements Expr.
func (c *ColumnRef) Children() []Expr { return nil }

func (c *ColumnRef) WithChildren([]Expr) Expr { return c }

// Index returns the bound position, -1 if unresolved.
func (c *ColumnRef) Index() int { return c.idx }

// Literal is a constant.
type Literal struct {
	Val any
	Typ DataType
	// Slot is the 1-based position, among a normalized query's literal
	// tokens, of the token the SQL parser made this literal from; 0 for
	// literals that came from no such token. A prepared-plan template
	// rebinds slotted literals to a later query's values (see Bind).
	Slot int
	// Negated records that the parser folded a unary minus into the
	// token's value, so a rebound value is negated too.
	Negated bool
}

// Lit constructs a literal, inferring its type from the Go value.
func Lit(v any) *Literal {
	t := TypeUnknown
	switch v.(type) {
	case string:
		t = TypeString
	case int8:
		t = TypeInt8
	case int16:
		t = TypeInt16
	case int32:
		t = TypeInt32
	case int64, int:
		t = TypeInt64
	case float32:
		t = TypeFloat32
	case float64:
		t = TypeFloat64
	case bool:
		t = TypeBool
	case []byte:
		t = TypeBinary
	case nil:
		t = TypeUnknown
	}
	if i, ok := v.(int); ok {
		v = int64(i)
	}
	return &Literal{Val: v, Typ: t}
}

// Eval implements Expr.
func (l *Literal) Eval(Row) (any, error) { return l.Val, nil }

// Type implements Expr.
func (l *Literal) Type() DataType { return l.Typ }

// String implements Expr.
func (l *Literal) String() string {
	if s, ok := l.Val.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	if l.Val == nil {
		return "NULL"
	}
	return fmt.Sprintf("%v", l.Val)
}

// Children implements Expr.
func (l *Literal) Children() []Expr { return nil }

func (l *Literal) WithChildren([]Expr) Expr { return l }

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// CmpOps lists every comparison operator (useful for exhaustive tests).
func CmpOps() []CmpOp {
	return []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
}

// Comparison compares two sub-expressions. NULL operands yield NULL
// (represented as nil), which filters treat as false.
type Comparison struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c *Comparison) Eval(row Row) (any, error) {
	lv, err := c.L.Eval(row)
	if err != nil {
		return nil, err
	}
	rv, err := c.R.Eval(row)
	if err != nil {
		return nil, err
	}
	if lv == nil || rv == nil {
		return nil, nil
	}
	cmp, err := Compare(lv, rv)
	if err != nil {
		return nil, fmt.Errorf("plan: %s: %w", c.String(), err)
	}
	switch c.Op {
	case OpEq:
		return cmp == 0, nil
	case OpNe:
		return cmp != 0, nil
	case OpLt:
		return cmp < 0, nil
	case OpLe:
		return cmp <= 0, nil
	case OpGt:
		return cmp > 0, nil
	case OpGe:
		return cmp >= 0, nil
	}
	return nil, fmt.Errorf("plan: bad comparison op %d", c.Op)
}

// Type implements Expr.
func (c *Comparison) Type() DataType { return TypeBool }

// String implements Expr.
func (c *Comparison) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// Children implements Expr.
func (c *Comparison) Children() []Expr { return []Expr{c.L, c.R} }

func (c *Comparison) WithChildren(ch []Expr) Expr { return &Comparison{Op: c.Op, L: ch[0], R: ch[1]} }

// And is logical conjunction with SQL three-valued semantics.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a *And) Eval(row Row) (any, error) {
	lv, err := boolEval(a.L, row)
	if err != nil {
		return nil, err
	}
	if lv != nil && !*lv {
		return false, nil
	}
	rv, err := boolEval(a.R, row)
	if err != nil {
		return nil, err
	}
	if rv != nil && !*rv {
		return false, nil
	}
	if lv == nil || rv == nil {
		return nil, nil
	}
	return true, nil
}

// Type implements Expr.
func (a *And) Type() DataType { return TypeBool }

// String implements Expr.
func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Children implements Expr.
func (a *And) Children() []Expr { return []Expr{a.L, a.R} }

func (a *And) WithChildren(ch []Expr) Expr { return &And{L: ch[0], R: ch[1]} }

// Or is logical disjunction with SQL three-valued semantics.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o *Or) Eval(row Row) (any, error) {
	lv, err := boolEval(o.L, row)
	if err != nil {
		return nil, err
	}
	if lv != nil && *lv {
		return true, nil
	}
	rv, err := boolEval(o.R, row)
	if err != nil {
		return nil, err
	}
	if rv != nil && *rv {
		return true, nil
	}
	if lv == nil || rv == nil {
		return nil, nil
	}
	return false, nil
}

// Type implements Expr.
func (o *Or) Type() DataType { return TypeBool }

// String implements Expr.
func (o *Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Children implements Expr.
func (o *Or) Children() []Expr { return []Expr{o.L, o.R} }

func (o *Or) WithChildren(ch []Expr) Expr { return &Or{L: ch[0], R: ch[1]} }

// Not negates a boolean expression.
type Not struct{ E Expr }

// Eval implements Expr.
func (n *Not) Eval(row Row) (any, error) {
	v, err := boolEval(n.E, row)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	return !*v, nil
}

// Type implements Expr.
func (n *Not) Type() DataType { return TypeBool }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// Children implements Expr.
func (n *Not) Children() []Expr { return []Expr{n.E} }

func (n *Not) WithChildren(ch []Expr) Expr { return &Not{E: ch[0]} }

func boolEval(e Expr, row Row) (*bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	b, ok := v.(bool)
	if !ok {
		return nil, fmt.Errorf("plan: %s is not boolean (%T)", e, v)
	}
	return &b, nil
}

// In tests membership of E in a literal list. Negated, it is the predicate
// the paper singles out as NOT worth pushing down (§VI-A.3).
type In struct {
	E      Expr
	Values []Expr
	Negate bool
}

// Eval implements Expr.
func (in *In) Eval(row Row) (any, error) {
	v, err := in.E.Eval(row)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	sawNull := false
	for _, ve := range in.Values {
		lv, err := ve.Eval(row)
		if err != nil {
			return nil, err
		}
		if lv == nil {
			sawNull = true
			continue
		}
		cmp, err := Compare(v, lv)
		if err != nil {
			return nil, err
		}
		if cmp == 0 {
			return !in.Negate, nil
		}
	}
	if sawNull {
		return nil, nil
	}
	return in.Negate, nil
}

// Type implements Expr.
func (in *In) Type() DataType { return TypeBool }

// String implements Expr.
func (in *In) String() string {
	vals := make([]string, len(in.Values))
	for i, v := range in.Values {
		vals[i] = v.String()
	}
	op := "IN"
	if in.Negate {
		op = "NOT IN"
	}
	return fmt.Sprintf("(%s %s (%s))", in.E, op, strings.Join(vals, ", "))
}

// Children implements Expr.
func (in *In) Children() []Expr { return append([]Expr{in.E}, in.Values...) }

func (in *In) WithChildren(ch []Expr) Expr {
	return &In{E: ch[0], Values: ch[1:], Negate: in.Negate}
}

// Like matches a string column against a SQL LIKE pattern (% and _).
type Like struct {
	E       Expr
	Pattern string
}

// Eval implements Expr.
func (l *Like) Eval(row Row) (any, error) {
	v, err := l.E.Eval(row)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("plan: LIKE needs a string operand, got %T", v)
	}
	return likeMatch(s, l.Pattern), nil
}

func likeMatch(s, pat string) bool {
	// Dynamic programming over the pattern, treating % as any run and _ as
	// any single byte. Strings shorter than 64 bytes keep both rows on the
	// stack.
	var buf [128]bool
	prev, cur := buf[:0], buf[64:64]
	if n := len(s) + 1; n <= 64 {
		prev, cur = prev[:n], cur[:n]
	} else {
		prev, cur = make([]bool, n), make([]bool, n)
	}
	prev[0] = true
	for j := 0; j < len(s); j++ {
		prev[j+1] = false
	}
	for i := 0; i < len(pat); i++ {
		p := pat[i]
		cur[0] = prev[0] && p == '%'
		for j := 1; j <= len(s); j++ {
			switch p {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && s[j-1] == p
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(s)]
}

// Type implements Expr.
func (l *Like) Type() DataType { return TypeBool }

// String implements Expr.
func (l *Like) String() string { return fmt.Sprintf("(%s LIKE %q)", l.E, l.Pattern) }

// Children implements Expr.
func (l *Like) Children() []Expr { return []Expr{l.E} }

func (l *Like) WithChildren(ch []Expr) Expr { return &Like{E: ch[0], Pattern: l.Pattern} }

// IsNull tests for SQL NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (n *IsNull) Eval(row Row) (any, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return nil, err
	}
	return (v == nil) != n.Negate, nil
}

// Type implements Expr.
func (n *IsNull) Type() DataType { return TypeBool }

// String implements Expr.
func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// Children implements Expr.
func (n *IsNull) Children() []Expr { return []Expr{n.E} }

func (n *IsNull) WithChildren(ch []Expr) Expr { return &IsNull{E: ch[0], Negate: n.Negate} }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

// String renders the operator.
func (op ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[op] }

// Arithmetic computes L op R as float64 (integer inputs widen; SQL-style
// NULL propagation). Division by zero yields NULL.
type Arithmetic struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a *Arithmetic) Eval(row Row) (any, error) {
	lv, err := a.L.Eval(row)
	if err != nil {
		return nil, err
	}
	rv, err := a.R.Eval(row)
	if err != nil {
		return nil, err
	}
	if lv == nil || rv == nil {
		return nil, nil
	}
	lf, ok := toFloat(lv)
	if !ok {
		return nil, fmt.Errorf("plan: %s: non-numeric operand %T", a, lv)
	}
	rf, ok := toFloat(rv)
	if !ok {
		return nil, fmt.Errorf("plan: %s: non-numeric operand %T", a, rv)
	}
	switch a.Op {
	case OpAdd:
		return lf + rf, nil
	case OpSub:
		return lf - rf, nil
	case OpMul:
		return lf * rf, nil
	case OpDiv:
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("plan: bad arithmetic op %d", a.Op)
}

// Type implements Expr.
func (a *Arithmetic) Type() DataType { return TypeFloat64 }

// String implements Expr.
func (a *Arithmetic) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }

// Children implements Expr.
func (a *Arithmetic) Children() []Expr { return []Expr{a.L, a.R} }

func (a *Arithmetic) WithChildren(ch []Expr) Expr { return &Arithmetic{Op: a.Op, L: ch[0], R: ch[1]} }

// CaseWhen is a searched CASE expression.
type CaseWhen struct {
	Whens []WhenClause
	Else  Expr // may be nil (NULL)
}

// WhenClause pairs a condition with its result.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// Eval implements Expr.
func (c *CaseWhen) Eval(row Row) (any, error) {
	for _, w := range c.Whens {
		b, err := boolEval(w.Cond, row)
		if err != nil {
			return nil, err
		}
		if b != nil && *b {
			return w.Then.Eval(row)
		}
	}
	if c.Else == nil {
		return nil, nil
	}
	return c.Else.Eval(row)
}

// Type implements Expr.
func (c *CaseWhen) Type() DataType {
	if len(c.Whens) > 0 {
		return c.Whens[0].Then.Type()
	}
	return TypeUnknown
}

// String implements Expr.
func (c *CaseWhen) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// Children implements Expr.
func (c *CaseWhen) Children() []Expr {
	var out []Expr
	for _, w := range c.Whens {
		out = append(out, w.Cond, w.Then)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

func (c *CaseWhen) WithChildren(ch []Expr) Expr {
	out := &CaseWhen{Whens: make([]WhenClause, len(c.Whens))}
	for i := range c.Whens {
		out.Whens[i] = WhenClause{Cond: ch[2*i], Then: ch[2*i+1]}
	}
	if c.Else != nil {
		out.Else = ch[len(ch)-1]
	}
	return out
}

// Resolve binds every column reference in e to its position in schema,
// returning the first failure.
func Resolve(e Expr, schema Schema) error {
	if c, ok := e.(*ColumnRef); ok {
		i := schema.IndexOf(c.Name)
		if i < 0 {
			return fmt.Errorf("plan: column %q not found in %s", c.Name, schema)
		}
		c.idx = i
		c.typ = schema[i].Type
		return nil
	}
	for _, ch := range e.Children() {
		if err := Resolve(ch, schema); err != nil {
			return err
		}
	}
	return nil
}

// CloneExpr deep-copies an expression tree so separate plans can resolve
// their own copies against different schemas.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		cp := *x
		return &cp
	case *Literal:
		cp := *x
		return &cp
	}
	children := e.Children()
	cloned := make([]Expr, len(children))
	for i, c := range children {
		cloned[i] = CloneExpr(c)
	}
	return e.WithChildren(cloned)
}

// Columns collects the distinct column names referenced by e, in first-use
// order.
func Columns(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(Expr)
	walk = func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c.Name)
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

// SplitConjuncts flattens nested ANDs into a list of predicates.
func SplitConjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(SplitConjuncts(a.L), SplitConjuncts(a.R)...)
	}
	return []Expr{e}
}

// CombineConjuncts rebuilds a single predicate from a list (nil for empty).
func CombineConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &And{L: out, R: e}
		}
	}
	return out
}

// EvalPredicate evaluates a boolean expression, mapping NULL to false.
func EvalPredicate(e Expr, row Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}
