// Package parser implements the front end of the dhpf compiler: a lexer
// and recursive-descent parser for the mini-HPF surface language into the
// internal/ir representation.
//
// The language is a deliberately small Fortran-like notation:
//
//	program stencil
//	param N = 64
//	!hpf$ processors procs(2, 2)
//	!hpf$ template tmpl(N, N)
//	!hpf$ align a with tmpl(d0, d1)
//	!hpf$ distribute tmpl(BLOCK, BLOCK) onto procs
//
//	subroutine main()
//	  real a(0:N-1, 0:N-1)
//	  !hpf$ independent, new(cv)
//	  do j = 1, N-2
//	    do i = 1, N-2
//	      a(i,j) = 0.25 * (a(i-1,j) + a(i+1,j))
//	    enddo
//	  enddo
//	end
//
// Statements are line-oriented; `!` begins a comment unless the line is a
// `!hpf$` directive.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tIdent
	tInt
	tFloat
	tPunct // single punctuation: ( ) , = + - * / :
	tDirective
)

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of input"
	case tNewline:
		return "end of line"
	case tDirective:
		return "directive " + t.text
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer tokenizes on demand: the parser holds two tokens at a time, so
// parsing a source never materializes its token stream.
type lexer struct {
	src     string
	pos     int
	line    int
	col     int
	newline bool // the last token handed out was a newline
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// check scans the whole input for its first lexical error, so that a bad
// character anywhere is reported ahead of a syntax error earlier on.
func check(src string) error {
	l := newLexer(src)
	for {
		tok, err := l.next()
		if err != nil || tok.kind == tEOF {
			return err
		}
	}
}

// token returns the next token of a checked input, collapsing
// consecutive newlines into one.
func (l *lexer) token() token {
	for {
		tok, _ := l.next()
		if tok.kind == tNewline && l.newline {
			continue
		}
		l.newline = tok.kind == tNewline
		return tok
	}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) next() (token, error) {
	// Skip spaces and tabs (not newlines).
	for l.pos < len(l.src) {
		c := l.peekByte()
		if c == ' ' || c == '\t' || c == '\r' {
			l.advance()
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peekByte()

	switch {
	case c == '\n':
		l.advance()
		return token{kind: tNewline, line: line, col: col}, nil

	case c == '!':
		// Directive or comment: read to end of line.
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '\n' {
			l.advance()
		}
		text := l.src[start:l.pos]
		if len(text) >= 5 && strings.EqualFold(text[:5], "!hpf$") {
			return token{kind: tDirective, text: strings.TrimSpace(text[5:]), line: line, col: col}, nil
		}
		// Plain comment: produce the newline that follows (if any) on the
		// next call; comments vanish.
		return l.next()

	case isIdentStart(rune(c)):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.peekByte())) {
			l.advance()
		}
		return token{kind: tIdent, text: l.src[start:l.pos], line: line, col: col}, nil

	case c >= '0' && c <= '9':
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) {
			c := l.peekByte()
			if c >= '0' && c <= '9' {
				l.advance()
				continue
			}
			if c == '.' && !isFloat {
				// Disambiguate "1.5" from "1:" ranges — '.' always means
				// float here since ranges use ':'.
				isFloat = true
				l.advance()
				continue
			}
			if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
				nxt := l.src[l.pos+1]
				if (nxt >= '0' && nxt <= '9') || nxt == '+' || nxt == '-' {
					isFloat = true
					l.advance() // e
					l.advance() // sign or digit
					continue
				}
			}
			break
		}
		kind := tInt
		if isFloat {
			kind = tFloat
		}
		return token{kind: kind, text: l.src[start:l.pos], line: line, col: col}, nil

	case strings.IndexByte("(),=+-*/:<>", c) >= 0:
		l.advance()
		// Slice the source rather than string(c): no allocation per token.
		return token{kind: tPunct, text: l.src[l.pos-1 : l.pos], line: line, col: col}, nil
	}
	return token{}, fmt.Errorf("parser: line %d:%d: unexpected character %q", line, col, c)
}

// Identifiers are ASCII in practice; fall back to unicode classes only for
// multi-byte runes so non-ASCII input still errors in the same place.
func isIdentStart(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || (r > 127 && unicode.IsLetter(r))
}

func isIdentPart(r rune) bool {
	return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' || (r > 127 && unicode.IsLetter(r))
}
