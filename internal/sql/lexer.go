// Package sql parses the SQL dialect the workloads use — SELECT queries
// with joins, derived tables, WHERE/GROUP BY/HAVING/ORDER BY/LIMIT,
// aggregates (count/sum/min/max/avg/stddev_samp, DISTINCT), CASE WHEN,
// BETWEEN/IN/LIKE — and lowers the AST onto the logical plan layer. It is
// the front end Code 4 of the paper exercises
// (sqlContext.sql("select count(1) from avrotable")).
package sql

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // ( ) , . * = < > <= >= != <> + - /
)

type token struct {
	text string
	pos  int
	kind tokenKind
	// slot is the token's 1-based literal slot once Normalize has masked
	// it; 0 for every other token.
	slot int32
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) error(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", pos, fmt.Sprintf(format, args...))
}

// lex appends the input's tokens to out[:0], which it grows when its
// capacity falls short of about one token per four bytes of SQL, so most
// queries lex without growing the slice.
func (l *lexer) lex(out []token) ([]token, error) {
	out = out[:0]
	if want := len(l.in)/4 + 2; cap(out) < want {
		out = make([]token, 0, want)
	}
	for {
		l.skipSpace()
		if l.pos >= len(l.in) {
			out = append(out, token{kind: tokEOF, pos: l.pos})
			return out, nil
		}
		start := l.pos
		c := l.in[l.pos]
		switch {
		case isIdentStart(c):
			for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
				l.pos++
			}
			out = append(out, token{kind: tokIdent, text: l.in[start:l.pos], pos: start})
		case c >= '0' && c <= '9':
			seenDot := false
			for l.pos < len(l.in) {
				ch := l.in[l.pos]
				if ch == '.' && !seenDot {
					seenDot = true
					l.pos++
					continue
				}
				if ch < '0' || ch > '9' {
					break
				}
				l.pos++
			}
			out = append(out, token{kind: tokNumber, text: l.in[start:l.pos], pos: start})
		case c == '`':
			// Backquoted identifier, for catalog columns like `user-id`.
			l.pos++
			end := strings.IndexByte(l.in[l.pos:], '`')
			if end < 0 {
				return nil, l.error(start, "unterminated quoted identifier")
			}
			out = append(out, token{kind: tokIdent, text: l.in[l.pos : l.pos+end], pos: start})
			l.pos += end + 1
		case c == '\'':
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.in) {
					return nil, l.error(start, "unterminated string literal")
				}
				ch := l.in[l.pos]
				if ch == '\'' {
					if l.pos+1 < len(l.in) && l.in[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(ch)
				l.pos++
			}
			out = append(out, token{kind: tokString, text: b.String(), pos: start})
		case strings.ContainsRune("(),.*=+-/", rune(c)):
			l.pos++
			out = append(out, token{kind: tokPunct, text: l.in[start:l.pos], pos: start})
		case c == '<':
			l.pos++
			if l.pos < len(l.in) && (l.in[l.pos] == '=' || l.in[l.pos] == '>') {
				l.pos++
			}
			out = append(out, token{kind: tokPunct, text: l.in[start:l.pos], pos: start})
		case c == '>':
			l.pos++
			if l.pos < len(l.in) && l.in[l.pos] == '=' {
				l.pos++
			}
			out = append(out, token{kind: tokPunct, text: l.in[start:l.pos], pos: start})
		case c == '!':
			l.pos++
			if l.pos >= len(l.in) || l.in[l.pos] != '=' {
				return nil, l.error(start, "unexpected '!'")
			}
			l.pos++
			out = append(out, token{kind: tokPunct, text: "!=", pos: start})
		default:
			return nil, l.error(start, "unexpected character %q", string(c))
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '-' {
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
