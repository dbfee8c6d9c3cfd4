// Package sql is a small SQL front end over the functional engine: enough
// of the language to type the paper's Table 2 queries against real data —
// CREATE TABLE, INSERT, single-table SELECT with WHERE conjunctions and
// aggregates, UPDATE, and two-table equi-JOINs. Statements execute on
// engine.DB, so every query runs through the dual-addressable storage
// layer (and can be trace-recorded for the timing simulator).
package sql

import (
	"fmt"
	"math"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokPunct // ( ) , . * ;
	tokOp    // = < > <= >= !=
)

// token is one lexeme; its text is a substring of the source.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer hands out the tokens of src one at a time. It allocates nothing
// until it meets a character it rejects: from then on err holds that error
// and every token is tokEOF.
type lexer struct {
	src string
	pos int
	err error
}

// Byte classes: what a token starting with the byte is (0: none, a lex
// error), and whether the byte continues an identifier. A byte is read as
// the rune of the same value, so bytes 0x80–0xFF are Latin-1 letters or
// not, whatever the UTF-8 around them.
const (
	clsSpace = 1 + iota
	clsIdent
	clsDigit
	clsPunct // ( ) , . * ;
	clsCmp   // < > !
	clsEq    // =

	clsKind      = 7
	clsIdentPart = 8
)

var byteClass = func() (cls [256]uint8) {
	for b := range cls {
		c := byte(b)
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			cls[b] = clsSpace
		case isIdentStart(rune(c)):
			cls[b] = clsIdent
		case c >= '0' && c <= '9':
			cls[b] = clsDigit
		case strings.IndexByte("(),.*;", c) >= 0:
			cls[b] = clsPunct
		case c == '<' || c == '>' || c == '!':
			cls[b] = clsCmp
		case c == '=':
			cls[b] = clsEq
		}
		if isIdentPart(rune(c)) {
			cls[b] |= clsIdentPart
		}
	}
	return cls
}()

// next returns the next token, tokEOF at the end of the source or after an
// error.
func (l *lexer) next() token {
	src := l.src
	for l.err == nil && l.pos < len(src) {
		start := l.pos
		c := src[start]
		l.pos++
		switch byteClass[c] & clsKind {
		case clsSpace:
			continue
		case clsIdent:
			for l.pos < len(src) && byteClass[src[l.pos]]&clsIdentPart != 0 {
				l.pos++
			}
			return token{tokIdent, src[start:l.pos], start}
		case clsDigit:
			for l.pos < len(src) && src[l.pos] >= '0' && src[l.pos] <= '9' {
				l.pos++
			}
			return token{tokNumber, src[start:l.pos], start}
		case clsPunct:
			return token{tokPunct, src[start:l.pos], start}
		case clsCmp:
			if l.pos < len(src) && src[l.pos] == '=' {
				l.pos++
			} else if c == '!' {
				return l.fail(fmt.Errorf("sql: stray '!' at %d", start))
			}
			return token{tokOp, src[start:l.pos], start}
		case clsEq:
			return token{tokOp, src[start:l.pos], start}
		default:
			return l.fail(fmt.Errorf("sql: unexpected character %q at %d", c, start))
		}
	}
	return token{tokEOF, "", len(src)}
}

// fail keeps err as the lexer's error and answers EOF.
func (l *lexer) fail(err error) token {
	l.err = err
	return token{tokEOF, "", len(l.src)}
}

// value is a number token's value, false past MaxUint64.
func (t token) value() (uint64, bool) {
	var v uint64
	for i := 0; i < len(t.text); i++ {
		d := uint64(t.text[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// drain lexes the rest of the source and returns the lexer's error, if any:
// a lex error anywhere in a statement is what a parse of it reports.
func (l *lexer) drain() error {
	for l.err == nil && l.next().kind != tokEOF {
	}
	return l.err
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}
