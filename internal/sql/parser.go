package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/shc-go/shc/internal/plan"
)

// SelectStmt is the parsed form of a SELECT query, possibly the head of a
// UNION chain.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    plan.Expr
	GroupBy  []plan.Expr
	Having   plan.Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent

	// Unions chains further SELECTs combined with UNION [ALL]. A trailing
	// ORDER BY / LIMIT applies to the whole union and is lifted here.
	Unions       []UnionPart
	UnionOrderBy []OrderItem
	UnionLimit   int // -1 when absent
}

// UnionPart is one UNION [ALL] member after the first.
type UnionPart struct {
	All  bool
	Stmt *SelectStmt
}

// SelectItem is one projection: an expression with an optional alias, or *.
type SelectItem struct {
	Star  bool
	Expr  plan.Expr
	Alias string
}

// TableRef names a base table or a parenthesized subquery with an alias.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
}

// JoinClause is one JOIN with its ON condition.
type JoinClause struct {
	Table TableRef
	On    plan.Expr
	Type  plan.JoinType
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr plan.Expr
	Desc bool
}

// FuncCall is an aggregate or scalar function call in the AST. It is a
// plan.Expr so expression trees can hold it, but it never evaluates
// directly — the builder replaces aggregate calls with references to
// aggregate outputs.
type FuncCall struct {
	Name     string
	Star     bool
	Distinct bool
	Args     []plan.Expr
}

// Eval implements plan.Expr; FuncCall must be rewritten before execution.
func (f *FuncCall) Eval(plan.Row) (any, error) {
	return nil, fmt.Errorf("sql: function %s not rewritten before evaluation", f.Name)
}

// Type implements plan.Expr.
func (f *FuncCall) Type() plan.DataType { return plan.TypeUnknown }

// String implements plan.Expr.
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// Children implements plan.Expr.
func (f *FuncCall) Children() []plan.Expr { return f.Args }

// WithChildren implements plan.Expr.
func (f *FuncCall) WithChildren(ch []plan.Expr) plan.Expr {
	return &FuncCall{Name: f.Name, Star: f.Star, Distinct: f.Distinct, Args: ch}
}

// Parse parses one SELECT statement.
func Parse(query string) (*SelectStmt, error) {
	toks, err := (&lexer{in: query}).lex(nil)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses one SELECT statement from lexed tokens.
func parseTokens(toks []token) (*SelectStmt, error) {
	p := &parser{toks: toks}
	stmt, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sql: unexpected %s after end of query", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool   { return p.peek().kind == tokEOF }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

// keyword consumes the given keyword (case-insensitive) and reports whether
// it was present.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("sql: expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return fmt.Errorf("sql: expected %q, got %s", s, p.peek())
	}
	return nil
}

var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"having": true, "order": true, "limit": true, "join": true, "inner": true,
	"on": true, "and": true, "or": true, "not": true, "in": true, "like": true,
	"between": true, "is": true, "null": true, "as": true, "case": true,
	"when": true, "then": true, "else": true, "end": true, "asc": true,
	"desc": true, "distinct": true, "true": true, "false": true,
	"left": true, "outer": true, "union": true, "all": true,
}

func (p *parser) ident() (string, bool) {
	t := p.peek()
	if t.kind == tokIdent && !reservedWords[strings.ToLower(t.text)] {
		p.pos++
		return t.text, true
	}
	return "", false
}

// parseQuery parses a SELECT optionally followed by UNION [ALL] members.
// An ORDER BY / LIMIT written after the final member applies to the whole
// union (standard SQL) and is lifted to the union level.
func (p *parser) parseQuery() (*SelectStmt, error) {
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	for p.keyword("union") {
		all := p.keyword("all")
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Unions = append(stmt.Unions, UnionPart{All: all, Stmt: next})
	}
	stmt.UnionLimit = -1
	if len(stmt.Unions) > 0 {
		last := stmt.Unions[len(stmt.Unions)-1].Stmt
		stmt.UnionOrderBy, last.OrderBy = last.OrderBy, nil
		stmt.UnionLimit, last.Limit = last.Limit, -1
	}
	return stmt, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1, UnionLimit: -1}
	if p.keyword("distinct") {
		stmt.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		jt := plan.InnerJoin
		switch {
		case p.keyword("inner"):
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
		case p.keyword("left"):
			p.keyword("outer")
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			jt = plan.LeftOuterJoin
		case p.keyword("join"):
		default:
			goto joinsDone
		}
		{
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Joins = append(stmt.Joins, JoinClause{Table: tr, On: on, Type: jt})
		}
	}
joinsDone:
	if p.keyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.keyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.punct(",") {
				break
			}
		}
	}
	if p.keyword("having") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.keyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.keyword("desc") {
				item.Desc = true
			} else {
				p.keyword("asc")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.punct(",") {
				break
			}
		}
	}
	if p.keyword("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: LIMIT expects a number, got %s", t)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.punct("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.keyword("as") {
		name, ok := p.ident()
		if !ok {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS, got %s", p.peek())
		}
		item.Alias = name
	} else if name, ok := p.ident(); ok {
		item.Alias = name
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if p.punct("(") {
		sub, err := p.parseQuery()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return TableRef{}, err
		}
		p.keyword("as")
		alias, ok := p.ident()
		if !ok {
			return TableRef{}, fmt.Errorf("sql: derived table needs an alias, got %s", p.peek())
		}
		return TableRef{Alias: alias, Sub: sub}, nil
	}
	name, ok := p.ident()
	if !ok {
		return TableRef{}, fmt.Errorf("sql: expected table name, got %s", p.peek())
	}
	tr := TableRef{Name: name, Alias: name}
	if p.keyword("as") {
		alias, ok := p.ident()
		if !ok {
			return TableRef{}, fmt.Errorf("sql: expected alias after AS, got %s", p.peek())
		}
		tr.Alias = alias
	} else if alias, ok := p.ident(); ok {
		tr.Alias = alias
	}
	return tr, nil
}

// Expression precedence: OR < AND < NOT < predicate < additive <
// multiplicative < unary < primary.
func (p *parser) parseExpr() (plan.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (plan.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &plan.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (plan.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &plan.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (plan.Expr, error) {
	if p.keyword("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &plan.Not{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (plan.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.keyword("is") {
		negate := p.keyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &plan.IsNull{E: l, Negate: negate}, nil
	}
	negate := false
	if save := p.save(); p.keyword("not") {
		if p.keywordAhead("in") || p.keywordAhead("like") || p.keywordAhead("between") {
			negate = true
		} else {
			p.restore(save)
		}
	}
	switch {
	case p.keyword("in"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var vals []plan.Expr
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &plan.In{E: l, Values: vals, Negate: negate}, nil
	case p.keyword("like"):
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sql: LIKE expects a string pattern, got %s", t)
		}
		var e plan.Expr = &plan.Like{E: l, Pattern: t.text}
		if negate {
			e = &plan.Not{E: e}
		}
		return e, nil
	case p.keyword("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e plan.Expr = &plan.And{
			L: &plan.Comparison{Op: plan.OpGe, L: l, R: lo},
			R: &plan.Comparison{Op: plan.OpLe, L: plan.CloneExpr(l), R: hi},
		}
		if negate {
			e = &plan.Not{E: e}
		}
		return e, nil
	}
	for {
		var op plan.CmpOp
		switch {
		case p.punct("="):
			op = plan.OpEq
		case p.punct("!="), p.punct("<>"):
			op = plan.OpNe
		case p.punct("<="):
			op = plan.OpLe
		case p.punct(">="):
			op = plan.OpGe
		case p.punct("<"):
			op = plan.OpLt
		case p.punct(">"):
			op = plan.OpGt
		default:
			return l, nil
		}
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &plan.Comparison{Op: op, L: l, R: r}
	}
}

// keywordAhead peeks whether the next token is the keyword without
// consuming it.
func (p *parser) keywordAhead(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseAdditive() (plan.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op plan.ArithOp
		switch {
		case p.punct("+"):
			op = plan.OpAdd
		case p.punct("-"):
			op = plan.OpSub
		default:
			return l, nil
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &plan.Arithmetic{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (plan.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op plan.ArithOp
		switch {
		case p.punct("*"):
			op = plan.OpMul
		case p.punct("/"):
			op = plan.OpDiv
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &plan.Arithmetic{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (plan.Expr, error) {
	if p.punct("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*plan.Literal); ok {
			var neg *plan.Literal
			switch v := lit.Val.(type) {
			case int64:
				neg = plan.Lit(-v)
			case float64:
				neg = plan.Lit(-v)
			}
			if neg != nil {
				neg.Slot, neg.Negated = lit.Slot, !lit.Negated
				return neg, nil
			}
		}
		return &plan.Arithmetic{Op: plan.OpSub, L: plan.Lit(int64(0)), R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (plan.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber, tokString:
		p.next()
		v, err := t.value()
		if err != nil {
			return nil, err
		}
		lit := plan.Lit(v)
		lit.Slot = int(t.slot)
		return lit, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		lower := strings.ToLower(t.text)
		switch lower {
		case "true":
			p.next()
			return plan.Lit(true), nil
		case "false":
			p.next()
			return plan.Lit(false), nil
		case "null":
			p.next()
			return &plan.Literal{Val: nil, Typ: plan.TypeUnknown}, nil
		case "case":
			return p.parseCase()
		}
		name, _ := p.ident()
		// Function call?
		if p.punct("(") {
			return p.parseFuncCall(name)
		}
		// Qualified column?
		if p.punct(".") {
			col, ok := p.ident()
			if !ok {
				return nil, fmt.Errorf("sql: expected column after %q., got %s", name, p.peek())
			}
			return plan.Col(name + "." + col), nil
		}
		return plan.Col(name), nil
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression", t)
}

func (p *parser) parseCase() (plan.Expr, error) {
	if err := p.expectKeyword("case"); err != nil {
		return nil, err
	}
	c := &plan.CaseWhen{}
	for p.keyword("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, plan.WhenClause{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE needs at least one WHEN, got %s", p.peek())
	}
	if p.keyword("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseFuncCall(name string) (plan.Expr, error) {
	f := &FuncCall{Name: strings.ToLower(name)}
	if p.punct("*") {
		f.Star = true
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.keyword("distinct") {
		f.Distinct = true
	}
	if !p.punct(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return f, nil
}
