// Package sqleng implements the SQL subset engine Semandaq runs its
// automatically generated detection queries on. It replaces the commercial
// RDBMS of the paper: the error detector emits SQL text (exactly as in
// Fan et al., TODS 2008) and this engine parses, plans and executes it over
// the relstore tables.
//
// The surface is the two statement shapes the detector generates, Qc and
// Qv (Parse gives the grammar): a comma-joined FROM list; WHERE as AND/OR
// over = and <> between a column and a column or literal; GROUP BY columns;
// HAVING as AND/OR over comparisons of COUNT(*), COUNT([DISTINCT] column)
// and INT literals; and a select list of *, t.*, columns (_tid included)
// and COUNTs. Anything else is a *ParseError naming the construct. Every
// comparison and key runs on dictionary codes: there is no value-level
// evaluator. The engine only reads: tables are written through the
// relstore API.
package sqleng

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords uppercased; idents as written; strings unquoted
	pos  int    // byte offset in the input, for error messages
}

// keywords recognized by the lexer. Everything else is an identifier. The
// constructs the grammar leaves out keep their keywords reserved, so a name
// prints and quotes the same whichever constructs the parser accepts.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "OFFSET": true, "AS": true, "AND": true,
	"OR": true, "NOT": true, "NULL": true, "TRUE": true, "FALSE": true,
	"IS": true, "IN": true, "LIKE": true, "JOIN": true, "INNER": true,
	"LEFT": true, "ON": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "UNION": true, "ALL": true,
	"EXISTS": true, "BETWEEN": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "EXPLAIN": true,
}

// lexer turns SQL text into tokens.
type lexer struct {
	src string
	pos int
}

// lexError reports a malformed input with position.
type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: lex error at byte %d: %s", e.pos, e.msg)
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &lexError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

// lex tokenizes the whole input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		return l.lexWord(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '\'':
		return l.lexString(start)
	case c == '"':
		return l.lexQuotedIdent(start)
	default:
		return l.lexSymbol(start)
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexWord(start int) token {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	up := strings.ToUpper(word)
	if keywords[up] {
		return token{kind: tokKeyword, text: up, pos: start}
	}
	return token{kind: tokIdent, text: word, pos: start}
}

func (l *lexer) lexNumber(start int) (token, error) {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	if l.pos < len(l.src) && isIdentStart(l.src[l.pos]) {
		return token{}, l.errorf(l.pos, "malformed number")
	}
	return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
}

func (l *lexer) lexString(start int) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf(start, "unterminated string literal")
}

func (l *lexer) lexQuotedIdent(start int) (token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return token{kind: tokIdent, text: b.String(), pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return token{}, l.errorf(start, "unterminated quoted identifier")
}

// twoByteSymbols are the multi-byte operators; checked before single bytes.
var twoByteSymbols = []string{"<>", "!=", "<=", ">=", "||"}

func (l *lexer) lexSymbol(start int) (token, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, s := range twoByteSymbols {
			if two == s {
				l.pos += 2
				return token{kind: tokSymbol, text: s, pos: start}, nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', '+', '-', '/', ';', '%':
		l.pos++
		return token{kind: tokSymbol, text: string(c), pos: start}, nil
	}
	return token{}, l.errorf(start, "unexpected character %q", string(c))
}
