package sql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/shc-go/shc/internal/plan"
)

// Normalized is a lexed query whose expression literals are masked into
// typed slots: queries that differ only in those literals share a Key,
// and the parser tags each literal it makes from a slot token with the
// slot's number (plan.Literal.Slot), so a plan built from one of them can
// be rebound to another's values (plan.Bind).
type Normalized struct {
	key   []byte
	toks  []token
	slots []int // index in toks of slot i+1
}

// Slot kinds as they appear in a Key.
const (
	slotInt    = 'i'
	slotFloat  = 'f'
	slotString = 's'
)

// normalizedPool recycles Normalized buffers: a plan-cache hit reads only
// a query's key and values, so its token and key buffers need not grow
// with the query on every call.
var normalizedPool = sync.Pool{New: func() any { return new(Normalized) }}

// Normalize lexes query and masks its literals. It fails exactly when
// lexing fails, with the same error Parse would return. The caller may
// hand the result back with Release once done with it and everything it
// returned.
func Normalize(query string) (*Normalized, error) {
	n := normalizedPool.Get().(*Normalized)
	toks, err := (&lexer{in: query}).lex(n.toks)
	if err != nil {
		normalizedPool.Put(n)
		return nil, err
	}
	n.toks, n.slots = toks, n.slots[:0]
	key := n.key[:0]
	for i := range toks {
		t := &toks[i]
		if kind := slotKind(toks, i); kind != 0 {
			n.slots = append(n.slots, i)
			t.slot = int32(len(n.slots))
			key = append(key, '?', kind)
			continue
		}
		key = append(key, byte('0'+t.kind))
		key = binary.AppendUvarint(key, uint64(len(t.text)))
		key = append(key, t.text...)
	}
	n.key = key
	return n, nil
}

// Release returns n's buffers to a later Normalize. Neither n nor the
// Key it returned may be used afterwards; values, plans and errors built
// from n stay valid.
func (n *Normalized) Release() { normalizedPool.Put(n) }

// Key is the token stream with each slot replaced by its kind (int, float
// or string). Literals the parser consumes structurally — the LIMIT count
// and the LIKE pattern — stay verbatim, as does every other token;
// whitespace and comments are not part of it. The caller must not modify
// it.
func (n *Normalized) Key() []byte { return n.key }

// slotKind is the slot kind of toks[i], or 0 when the token is not a
// maskable literal.
func slotKind(toks []token, i int) byte {
	t := toks[i]
	if t.kind != tokNumber && t.kind != tokString {
		return 0
	}
	if i > 0 {
		if prev := toks[i-1]; prev.kind == tokIdent &&
			(strings.EqualFold(prev.text, "limit") || strings.EqualFold(prev.text, "like")) {
			return 0
		}
	}
	switch {
	case t.kind == tokString:
		return slotString
	case strings.IndexByte(t.text, '.') >= 0:
		return slotFloat
	}
	return slotInt
}

// NumSlots is the number of masked literals.
func (n *Normalized) NumSlots() int { return len(n.slots) }

// Build parses and lowers the query like Build does; literals made from
// slot tokens carry their slot numbers.
func (n *Normalized) Build(resolve Resolver) (plan.LogicalPlan, error) {
	stmt, err := parseTokens(n.toks)
	if err != nil {
		return nil, err
	}
	return buildSelect(stmt, resolve)
}

// Values returns each slot's value as the parser reads it (int64,
// float64 or string, before any unary minus), failing where the parser
// would, e.g. on an int out of range.
func (n *Normalized) Values() ([]any, error) {
	vals := make([]any, len(n.slots))
	for i, ti := range n.slots {
		v, err := n.toks[ti].value()
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// Sentinels returns a copy of n whose slots hold sentinel values: one per
// slot, of the slot's kind, distinct from each other and from every
// literal value n holds. Building both and comparing the plans shows
// whether a literal reaches the plan other than through its slot.
func (n *Normalized) Sentinels() (*Normalized, error) {
	vals, err := n.Values()
	if err != nil {
		return nil, err
	}
	taken := make(map[any]bool, len(vals))
	for _, v := range vals {
		taken[v] = true
	}
	out := &Normalized{key: slices.Clone(n.key), toks: slices.Clone(n.toks), slots: slices.Clone(n.slots)}
	next := int64(1_000_000_007)
	for _, ti := range n.slots {
		t := &out.toks[ti]
		kind := slotKind(out.toks, ti)
		for {
			next++
			var v any
			switch kind {
			case slotInt:
				t.text = strconv.FormatInt(next, 10)
				v = next
			case slotFloat:
				t.text = strconv.FormatInt(next, 10) + ".5"
				v = float64(next) + 0.5
			default:
				t.text = fmt.Sprintf("\x00slot%d", next)
				v = t.text
			}
			if !taken[v] {
				taken[v] = true
				break
			}
		}
	}
	return out, nil
}

// value is the constant a number or string token denotes: an int64, a
// float64 for a number with a '.', or the string itself.
func (t token) value() (any, error) {
	if t.kind == tokString {
		return t.text, nil
	}
	if strings.IndexByte(t.text, '.') >= 0 {
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", t.text)
		}
		return f, nil
	}
	i, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad number %q", t.text)
	}
	return i, nil
}
