// Package scanner implements a lexer for the C subset accepted by this
// front end. It produces token.Token values including newline tokens (needed
// by the preprocessor to delimit directives) and handles line continuations,
// both comment styles, and all C89 operators.
package scanner

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/cc/token"
)

// ErrorList collects scan errors.
type ErrorList []error

func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l[0]
}

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Scanner tokenizes a single source buffer.
type Scanner struct {
	file string
	src  []byte

	offset int // reading offset
	line   int
	col    int

	atBOL       bool // next token is first on its line
	sawWS       bool // whitespace seen since last token
	inDirective bool // inside a # directive line (affects <header> scanning)
	wantHeader  bool // after #include, scan <...> as HEADER

	// KeepNewlines controls whether NEWLINE tokens are emitted. The
	// preprocessor needs them; direct-to-parser use does not.
	KeepNewlines bool

	Errors ErrorList
}

// New returns a Scanner over src, reporting positions against file.
func New(file string, src []byte) *Scanner {
	return &Scanner{
		file:  file,
		src:   src,
		line:  1,
		col:   1,
		atBOL: true,
	}
}

func (s *Scanner) errorf(pos token.Pos, format string, args ...interface{}) {
	s.Errors = append(s.Errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (s *Scanner) pos() token.Pos {
	return token.Pos{File: s.file, Line: s.line, Col: s.col}
}

// peek returns the byte at offset+n without consuming, or 0 at EOF.
func (s *Scanner) peek(n int) byte {
	if s.offset+n < len(s.src) {
		return s.src[s.offset+n]
	}
	return 0
}

// next consumes one byte, tracking line/column and splicing backslash-newline.
func (s *Scanner) next() byte {
	if s.offset >= len(s.src) {
		return 0
	}
	c := s.src[s.offset]
	s.offset++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

// spliceAhead skips any backslash-newline sequences at the current offset.
func (s *Scanner) spliceAhead() {
	for s.peek(0) == '\\' {
		// Allow \ followed by \r\n or \n.
		j := 1
		if s.peek(j) == '\r' {
			j++
		}
		if s.peek(j) != '\n' {
			return
		}
		for i := 0; i <= j; i++ {
			s.next()
		}
	}
}

func isLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Next returns the next token. At end of input it returns EOF forever.
func (s *Scanner) Next() token.Token {
	for {
		tok, ok := s.scan()
		if !ok {
			continue // skipped comment or newline
		}
		return tok
	}
}

// SetWantHeader tells the scanner that the next token may be a <header>
// (called by the preprocessor after seeing #include).
func (s *Scanner) SetWantHeader(v bool) { s.wantHeader = v }

func (s *Scanner) make(kind token.Kind, text string, pos token.Pos) token.Token {
	t := token.Token{Kind: kind, Text: text, Pos: pos, BOL: s.atBOL, WS: s.sawWS || s.atBOL}
	s.atBOL = false
	s.sawWS = false
	return t
}

// scan returns the next token and true, or false if it consumed a
// non-token (a comment, or a newline without KeepNewlines).
func (s *Scanner) scan() (token.Token, bool) {
	s.spliceAhead()
	// Skip horizontal whitespace.
	for {
		c := s.peek(0)
		if c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f' {
			s.next()
			s.sawWS = true
			s.spliceAhead()
			continue
		}
		break
	}

	pos := s.pos()
	c := s.peek(0)

	switch {
	case c == 0:
		return s.make(token.EOF, "", pos), true

	case c == '\n':
		s.next()
		wasDirective := s.inDirective
		s.inDirective = false
		s.wantHeader = false
		s.atBOL = true
		s.sawWS = false
		if s.KeepNewlines {
			t := token.Token{Kind: token.NEWLINE, Pos: pos, BOL: wasDirective}
			return t, true
		}
		return token.Token{}, false

	case isLetter(c):
		return s.scanIdent(pos), true

	case isDigit(c) || (c == '.' && isDigit(s.peek(1))):
		return s.scanNumber(pos), true

	case c == '\'':
		return s.scanChar(pos), true

	case c == '"':
		return s.scanString(pos), true

	case c == '<' && s.wantHeader:
		return s.scanHeader(pos), true

	case c == '/':
		if s.peek(1) == '*' {
			s.scanBlockComment(pos)
			s.sawWS = true
			return token.Token{}, false
		}
		if s.peek(1) == '/' {
			for s.peek(0) != '\n' && s.peek(0) != 0 {
				s.next()
				s.spliceAhead()
			}
			s.sawWS = true
			return token.Token{}, false
		}
		return s.scanOperator(pos), true

	default:
		return s.scanOperator(pos), true
	}
}

func (s *Scanner) scanIdent(pos token.Pos) token.Token {
	start := s.offset
	for isLetter(s.peek(0)) || isDigit(s.peek(0)) {
		s.next()
		s.spliceAhead()
	}
	return s.make(token.IDENT, s.text(start), pos)
}

// text returns the token read since offset start: its source bytes less
// the line splices (backslash-newline) inside or right after it, the only
// '\\', '\r' and '\n' bytes an identifier or number spans.
func (s *Scanner) text(start int) string {
	src := s.src[start:s.offset]
	if bytes.IndexByte(src, '\\') < 0 {
		return string(src)
	}
	b := make([]byte, 0, len(src))
	for _, c := range src {
		if c != '\\' && c != '\r' && c != '\n' {
			b = append(b, c)
		}
	}
	return string(b)
}

func (s *Scanner) scanNumber(pos token.Pos) token.Token {
	start := s.offset
	kind := token.INT
	c := s.peek(0)
	if c == '0' && (s.peek(1) == 'x' || s.peek(1) == 'X') {
		s.next()
		s.next()
		for isHexDigit(s.peek(0)) {
			s.next()
			s.spliceAhead()
		}
	} else {
		for isDigit(s.peek(0)) {
			s.next()
			s.spliceAhead()
		}
		if s.peek(0) == '.' {
			kind = token.FLOAT
			s.next()
			for isDigit(s.peek(0)) {
				s.next()
				s.spliceAhead()
			}
		}
		if e := s.peek(0); e == 'e' || e == 'E' {
			// Exponent only if followed by digits or sign+digits.
			j := 1
			if s.peek(j) == '+' || s.peek(j) == '-' {
				j++
			}
			if isDigit(s.peek(j)) {
				kind = token.FLOAT
				for i := 0; i < j; i++ {
					s.next()
				}
				for isDigit(s.peek(0)) {
					s.next()
					s.spliceAhead()
				}
			}
		}
	}
	// Suffixes: u U l L f F (combinations).
	for {
		c := s.peek(0)
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			s.next()
			continue
		}
		if (c == 'f' || c == 'F') && kind == token.FLOAT {
			s.next()
			continue
		}
		break
	}
	return s.make(kind, s.text(start), pos)
}

func (s *Scanner) scanEscape(sb *strings.Builder) {
	sb.WriteByte(s.next()) // backslash
	c := s.peek(0)
	switch {
	case c == 'x':
		sb.WriteByte(s.next())
		for isHexDigit(s.peek(0)) {
			sb.WriteByte(s.next())
		}
	case c >= '0' && c <= '7':
		for i := 0; i < 3 && s.peek(0) >= '0' && s.peek(0) <= '7'; i++ {
			sb.WriteByte(s.next())
		}
	default:
		sb.WriteByte(s.next())
	}
}

func (s *Scanner) scanChar(pos token.Pos) token.Token {
	var sb strings.Builder
	sb.WriteByte(s.next()) // opening '
	for {
		c := s.peek(0)
		if c == 0 || c == '\n' {
			s.errorf(pos, "unterminated character literal")
			break
		}
		if c == '\\' {
			s.scanEscape(&sb)
			continue
		}
		sb.WriteByte(s.next())
		if c == '\'' {
			break
		}
	}
	return s.make(token.CHAR, sb.String(), pos)
}

func (s *Scanner) scanString(pos token.Pos) token.Token {
	var sb strings.Builder
	sb.WriteByte(s.next()) // opening "
	for {
		c := s.peek(0)
		if c == 0 || c == '\n' {
			s.errorf(pos, "unterminated string literal")
			break
		}
		if c == '\\' {
			s.scanEscape(&sb)
			continue
		}
		sb.WriteByte(s.next())
		if c == '"' {
			break
		}
	}
	return s.make(token.STRING, sb.String(), pos)
}

func (s *Scanner) scanHeader(pos token.Pos) token.Token {
	var sb strings.Builder
	sb.WriteByte(s.next()) // <
	for {
		c := s.peek(0)
		if c == 0 || c == '\n' {
			s.errorf(pos, "unterminated header name")
			break
		}
		sb.WriteByte(s.next())
		if c == '>' {
			break
		}
	}
	s.wantHeader = false
	return s.make(token.HEADER, sb.String(), pos)
}

func (s *Scanner) scanBlockComment(pos token.Pos) {
	s.next() // /
	s.next() // *
	for {
		c := s.peek(0)
		if c == 0 {
			s.errorf(pos, "unterminated block comment")
			return
		}
		if c == '*' && s.peek(1) == '/' {
			s.next()
			s.next()
			return
		}
		s.next()
	}
}

// opTable maps multi-character operators, longest match first per leading byte.
func (s *Scanner) scanOperator(pos token.Pos) token.Token {
	c := s.next()
	two := func(b byte, k2 token.Kind, k1 token.Kind) token.Token {
		s.spliceAhead()
		if s.peek(0) == b {
			s.next()
			return s.make(k2, "", pos)
		}
		return s.make(k1, "", pos)
	}
	switch c {
	case '+':
		s.spliceAhead()
		switch s.peek(0) {
		case '+':
			s.next()
			return s.make(token.INC, "", pos)
		case '=':
			s.next()
			return s.make(token.ADD_ASSIGN, "", pos)
		}
		return s.make(token.ADD, "", pos)
	case '-':
		s.spliceAhead()
		switch s.peek(0) {
		case '-':
			s.next()
			return s.make(token.DEC, "", pos)
		case '=':
			s.next()
			return s.make(token.SUB_ASSIGN, "", pos)
		case '>':
			s.next()
			return s.make(token.ARROW, "", pos)
		}
		return s.make(token.SUB, "", pos)
	case '*':
		return two('=', token.MUL_ASSIGN, token.MUL)
	case '/':
		return two('=', token.QUO_ASSIGN, token.QUO)
	case '%':
		return two('=', token.REM_ASSIGN, token.REM)
	case '&':
		s.spliceAhead()
		switch s.peek(0) {
		case '&':
			s.next()
			return s.make(token.LAND, "", pos)
		case '=':
			s.next()
			return s.make(token.AND_ASSIGN, "", pos)
		}
		return s.make(token.AND, "", pos)
	case '|':
		s.spliceAhead()
		switch s.peek(0) {
		case '|':
			s.next()
			return s.make(token.LOR, "", pos)
		case '=':
			s.next()
			return s.make(token.OR_ASSIGN, "", pos)
		}
		return s.make(token.OR, "", pos)
	case '^':
		return two('=', token.XOR_ASSIGN, token.XOR)
	case '~':
		return s.make(token.TILDE, "", pos)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '<':
		s.spliceAhead()
		switch s.peek(0) {
		case '<':
			s.next()
			s.spliceAhead()
			if s.peek(0) == '=' {
				s.next()
				return s.make(token.SHL_ASSIGN, "", pos)
			}
			return s.make(token.SHL, "", pos)
		case '=':
			s.next()
			return s.make(token.LEQ, "", pos)
		}
		return s.make(token.LSS, "", pos)
	case '>':
		s.spliceAhead()
		switch s.peek(0) {
		case '>':
			s.next()
			s.spliceAhead()
			if s.peek(0) == '=' {
				s.next()
				return s.make(token.SHR_ASSIGN, "", pos)
			}
			return s.make(token.SHR, "", pos)
		case '=':
			s.next()
			return s.make(token.GEQ, "", pos)
		}
		return s.make(token.GTR, "", pos)
	case '(':
		return s.make(token.LPAREN, "", pos)
	case ')':
		return s.make(token.RPAREN, "", pos)
	case '[':
		return s.make(token.LBRACK, "", pos)
	case ']':
		return s.make(token.RBRACK, "", pos)
	case '{':
		return s.make(token.LBRACE, "", pos)
	case '}':
		return s.make(token.RBRACE, "", pos)
	case ',':
		return s.make(token.COMMA, "", pos)
	case ';':
		return s.make(token.SEMICOLON, "", pos)
	case ':':
		return s.make(token.COLON, "", pos)
	case '?':
		return s.make(token.QUESTION, "", pos)
	case '.':
		s.spliceAhead()
		if s.peek(0) == '.' && s.peek(1) == '.' {
			s.next()
			s.next()
			return s.make(token.ELLIPSIS, "", pos)
		}
		return s.make(token.PERIOD, "", pos)
	case '#':
		s.spliceAhead()
		if s.peek(0) == '#' {
			s.next()
			return s.make(token.HASHHASH, "", pos)
		}
		t := s.make(token.HASH, "", pos)
		if t.BOL {
			s.inDirective = true
		}
		return t
	}
	// Any other character is still a preprocessing token (ISO C's
	// catch-all punctuator); it only becomes an error if it survives
	// into a live parse (the parser rejects ILLEGAL tokens).
	return s.make(token.ILLEGAL, string(rune(c)), pos)
}
