package cfd

import (
	"fmt"
	"strings"

	"semandaq/internal/types"
)

// This file implements the text syntax for CFDs used by the CLI, the HTTP
// API and the test corpus. One line per pattern tuple:
//
//	[table ':'] '[' attr['='value] (',' attr['='value])* ']'
//	    '->' '[' attr['='value] (',' attr['='value])* ']'
//
// A missing '=value' or the token '_' denotes the wildcard. Values may be
// bare words (no commas/brackets/spaces) or single-quoted strings with ''
// as the escape. Examples:
//
//	customer: [CNT=UK, ZIP=_] -> [STR=_]
//	[CC=44] -> [CNT=UK]
//	customer: [CNT, ZIP] -> [CITY]            (a classical FD)

// ParseLine parses a single-pattern CFD from one line of text.
func ParseLine(line string) (*CFD, error) {
	p := &lineParser{src: line}
	c, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("cfd: parse %q: %w", strings.TrimSpace(line), err)
	}
	return c, nil
}

// ParseSet parses a multi-line CFD specification. Blank lines and lines
// starting with '#' are skipped. Lines whose embedded FD matches an earlier
// line are merged into that CFD's tableau. IDs are assigned phi1, phi2, ...
// per distinct embedded FD; a line may override with "id@" prefix:
//
//	zipstr@ customer: [CNT=UK, ZIP=_] -> [STR=_]
func ParseSet(text string) ([]*CFD, error) {
	var singles []*CFD
	for i, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id := ""
		if at := strings.Index(line, "@"); at > 0 && !strings.ContainsAny(line[:at], "[]':,=") {
			id = strings.TrimSpace(line[:at])
			line = strings.TrimSpace(line[at+1:])
		}
		c, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		c.ID = id
		singles = append(singles, c)
	}
	merged := MergeByFD(singles)
	for n, c := range merged {
		// Merged IDs have accumulated "+" (with a leading one when the
		// first line had no ID): keep the first name, else number the CFD.
		c.ID = firstName(c.ID)
		if c.ID == "" {
			c.ID = fmt.Sprintf("phi%d", n+1)
		}
	}
	return merged, nil
}

// firstName is the first non-blank "+"-separated token of a merged ID.
func firstName(id string) string {
	for _, tok := range strings.Split(id, "+") {
		if tok = strings.TrimSpace(tok); tok != "" {
			return tok
		}
	}
	return ""
}

type lineParser struct {
	src string
	pos int
}

func (p *lineParser) parse() (*CFD, error) {
	c := &CFD{}
	p.skipSpace()
	// Optional "table:" prefix — present when the next ':' appears before
	// the first '['.
	if i := strings.IndexByte(p.src[p.pos:], ':'); i >= 0 {
		j := strings.IndexByte(p.src[p.pos:], '[')
		if j < 0 || i < j {
			c.Table = strings.TrimSpace(p.src[p.pos : p.pos+i])
			if c.Table == "" {
				return nil, fmt.Errorf("empty table name")
			}
			p.pos += i + 1
		}
	}
	lhsAttrs, lhsPats, err := p.parseSide()
	if err != nil {
		return nil, fmt.Errorf("LHS: %w", err)
	}
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.pos:], "->") {
		return nil, fmt.Errorf("expected '->' at byte %d", p.pos)
	}
	p.pos += 2
	rhsAttrs, rhsPats, err := p.parseSide()
	if err != nil {
		return nil, fmt.Errorf("RHS: %w", err)
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trailing input %q", p.src[p.pos:])
	}
	c.LHS, c.RHS = lhsAttrs, rhsAttrs
	c.Tableau = []PatternTuple{{LHS: lhsPats, RHS: rhsPats}}
	if err := c.checkArity(); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *lineParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) parseSide() ([]string, []PatternValue, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '[' {
		return nil, nil, fmt.Errorf("expected '[' at byte %d", p.pos)
	}
	p.pos++
	var attrs []string
	var pats []PatternValue
	for {
		p.skipSpace()
		attr, err := p.parseWord()
		if err != nil {
			return nil, nil, err
		}
		pv := Wild
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '=' {
			p.pos++
			p.skipSpace()
			v, err := p.parsePatternValue()
			if err != nil {
				return nil, nil, err
			}
			pv = v
		}
		attrs = append(attrs, attr)
		pats = append(pats, pv)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		break
	}
	if p.pos >= len(p.src) || p.src[p.pos] != ']' {
		return nil, nil, fmt.Errorf("expected ']' at byte %d", p.pos)
	}
	p.pos++
	return attrs, pats, nil
}

func (p *lineParser) parseWord() (string, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ',' || c == ']' || c == '=' || c == ' ' || c == '\t' || c == '[' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("expected attribute name at byte %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *lineParser) parsePatternValue() (PatternValue, error) {
	if p.pos < len(p.src) && p.src[p.pos] == '\'' {
		// Quoted string constant.
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == '\'' {
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return Constant(types.NewString(b.String())), nil
			}
			b.WriteByte(c)
			p.pos++
		}
		return PatternValue{}, fmt.Errorf("unterminated quoted value")
	}
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ',' || c == ']' {
			break
		}
		p.pos++
	}
	raw := strings.TrimSpace(p.src[start:p.pos])
	if raw == "" {
		return PatternValue{}, fmt.Errorf("empty pattern value at byte %d", start)
	}
	if raw == WildcardToken {
		return Wild, nil
	}
	return Constant(types.Parse(raw)), nil
}
