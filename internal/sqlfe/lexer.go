package sqlfe

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkPunct   // ( ) , . *
	tkOp      // = < <= > >= <>
	tkKeyword // normalised upper-case SQL keyword
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true,
	"GROUP": true, "BY": true, "HAVING": true, "LIMIT": true, "BETWEEN": true,
	"LIKE": true, "NOT": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "DISTINCT": true, "AS": true, "DATE": true,
	"ORDER": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "VALUES": true, "DELETE": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises the query text.
func lex(src string) ([]token, error) {
	// Most tokens span several bytes, so one allocation usually holds
	// them all; the bound keeps a huge literal from sizing a huge slice.
	l := &lexer{src: src, toks: make([]token, 0, min(len(src)/3, 128)+2)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '\'':
			if err := l.str(); err != nil {
				return nil, err
			}
		case c >= '0' && c <= '9':
			l.number()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			// Negative literal (dec BETWEEN -90 AND 90). The subset has
			// no arithmetic, so a minus can only introduce a number.
			l.number()
		case isIdentStart(rune(c)):
			l.ident()
		case c == '(' || c == ')' || c == ',' || c == '.' || c == '*':
			l.toks = append(l.toks, token{kind: tkPunct, text: string(c), pos: l.pos})
			l.pos++
		case c == '=' || c == '<' || c == '>':
			l.op()
		default:
			return nil, fmt.Errorf("sqlfe: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{kind: tkEOF, pos: l.pos})
	return l.toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func (l *lexer) str() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote, SQL style.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tkString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlfe: unterminated string starting at %d", start)
}

func (l *lexer) number() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			seenDot = true
			l.pos++
			continue
		}
		// Date literals inside DATE '...' come through str(); bare
		// 1996-07-01 would lex as numbers and minuses, which the
		// subset does not support.
		break
	}
	l.toks = append(l.toks, token{kind: tkNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) ident() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if isIdentStart(c) || unicode.IsDigit(c) {
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if isKeyword(text) {
		l.toks = append(l.toks, token{kind: tkKeyword, text: strings.ToUpper(text), pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tkIdent, text: strings.ToLower(text), pos: start})
}

// isKeyword reports whether text is a keyword in any case. It folds
// into a stack buffer, so the identifiers that are not keywords — most
// of an INSERT's words — cost no allocation.
func isKeyword(text string) bool {
	var up [8]byte // the longest keyword, DISTINCT
	if len(text) > len(up) {
		return false
	}
	// Clearing 0x20 upper-cases a-z and maps no other byte onto A-Z,
	// and keywords are A-Z only.
	for i := 0; i < len(text); i++ {
		up[i] = text[i] &^ 0x20
	}
	return keywords[string(up[:len(text)])]
}

func (l *lexer) op() {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	text := string(c)
	if l.pos < len(l.src) {
		two := text + string(l.src[l.pos])
		if two == "<=" || two == ">=" || two == "<>" {
			text = two
			l.pos++
		}
	}
	l.toks = append(l.toks, token{kind: tkOp, text: text, pos: start})
}
