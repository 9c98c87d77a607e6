package scanner

import (
	"strings"
	"testing"

	"repro/internal/cc/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	s := New("test.c", []byte(src))
	var ks []token.Kind
	for {
		tok := s.Next()
		if tok.Kind == token.EOF {
			break
		}
		ks = append(ks, tok.Kind)
	}
	if err := s.Errors.Err(); err != nil {
		t.Fatalf("scan %q: %v", src, err)
	}
	return ks
}

func texts(t *testing.T, src string) []string {
	t.Helper()
	s := New("test.c", []byte(src))
	var out []string
	for {
		tok := s.Next()
		if tok.Kind == token.EOF {
			break
		}
		if tok.Text != "" {
			out = append(out, tok.Text)
		} else {
			out = append(out, tok.Kind.String())
		}
	}
	return out
}

func eqKinds(a, b []token.Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOperators(t *testing.T) {
	cases := []struct {
		src  string
		want []token.Kind
	}{
		{"+ - * / %", []token.Kind{token.ADD, token.SUB, token.MUL, token.QUO, token.REM}},
		{"++ -- -> .", []token.Kind{token.INC, token.DEC, token.ARROW, token.PERIOD}},
		{"<< >> <<= >>=", []token.Kind{token.SHL, token.SHR, token.SHL_ASSIGN, token.SHR_ASSIGN}},
		{"== != <= >= < >", []token.Kind{token.EQL, token.NEQ, token.LEQ, token.GEQ, token.LSS, token.GTR}},
		{"&& || & | ^ ~ !", []token.Kind{token.LAND, token.LOR, token.AND, token.OR, token.XOR, token.TILDE, token.NOT}},
		{"+= -= *= /= %= &= |= ^=", []token.Kind{token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN}},
		{"( ) [ ] { } , ; : ?", []token.Kind{token.LPAREN, token.RPAREN, token.LBRACK, token.RBRACK, token.LBRACE, token.RBRACE, token.COMMA, token.SEMICOLON, token.COLON, token.QUESTION}},
		{"...", []token.Kind{token.ELLIPSIS}},
		{"a--b", []token.Kind{token.IDENT, token.DEC, token.IDENT}},
		{"a- -b", []token.Kind{token.IDENT, token.SUB, token.SUB, token.IDENT}},
	}
	for _, c := range cases {
		got := kinds(t, c.src)
		if !eqKinds(got, c.want) {
			t.Errorf("scan %q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind token.Kind
	}{
		{"0", token.INT},
		{"12345", token.INT},
		{"0x1fU", token.INT},
		{"017", token.INT},
		{"42uL", token.INT},
		{"3.14", token.FLOAT},
		{"1e9", token.FLOAT},
		{".5f", token.FLOAT},
		{"1.5e-3", token.FLOAT},
		{"2E+4", token.FLOAT},
	}
	for _, c := range cases {
		got := kinds(t, c.src)
		if len(got) != 1 || got[0] != c.kind {
			t.Errorf("scan %q = %v, want [%v]", c.src, got, c.kind)
		}
	}
}

func TestNumberNotExponent(t *testing.T) {
	// "1e" followed by a non-digit must not consume the e as exponent start.
	got := texts(t, "0x1f+2")
	want := []string{"0x1f", "+", "2"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestStringsAndChars(t *testing.T) {
	got := texts(t, `"hello\n" 'a' '\n' '\x41' "quo\"te"`)
	want := []string{`"hello\n"`, `'a'`, `'\n'`, `'\x41'`, `"quo\"te"`}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a /* comment */ b // line\nc")
	want := []token.Kind{token.IDENT, token.IDENT, token.IDENT}
	if !eqKinds(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestLineSplice(t *testing.T) {
	got := texts(t, "ab\\\ncd")
	if len(got) != 1 || got[0] != "abcd" {
		t.Errorf("splice: got %v, want [abcd]", got)
	}
	// Splices inside and right after identifiers and numbers, CRLF too.
	got = texts(t, "ab\\\ncd\\\n+ 12\\\r\n34u\\\n 1.5\\\ne3")
	if strings.Join(got, " ") != "abcd + 1234u 1.5e3" {
		t.Errorf("splice: got %q", got)
	}
	// Splice inside an operator.
	ks := kinds(t, "a <\\\n< b")
	want := []token.Kind{token.IDENT, token.SHL, token.IDENT}
	if !eqKinds(ks, want) {
		t.Errorf("splice op: got %v, want %v", ks, want)
	}
}

func TestPositions(t *testing.T) {
	s := New("f.c", []byte("a\n  b"))
	ta := s.Next()
	tb := s.Next()
	if ta.Pos.Line != 1 || ta.Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", ta.Pos)
	}
	if tb.Pos.Line != 2 || tb.Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", tb.Pos)
	}
	if !ta.BOL || !tb.BOL {
		t.Errorf("BOL flags: a=%v b=%v, want true true", ta.BOL, tb.BOL)
	}
}

func TestNewlinesKept(t *testing.T) {
	s := New("f.c", []byte("#define X 1\nint x;\n"))
	s.KeepNewlines = true
	var ks []token.Kind
	for {
		tok := s.Next()
		if tok.Kind == token.EOF {
			break
		}
		ks = append(ks, tok.Kind)
	}
	want := []token.Kind{token.HASH, token.IDENT, token.IDENT, token.INT, token.NEWLINE,
		token.IDENT, token.IDENT, token.SEMICOLON, token.NEWLINE}
	if !eqKinds(ks, want) {
		t.Errorf("got %v want %v", ks, want)
	}
}

func TestHeaderName(t *testing.T) {
	s := New("f.c", []byte("#include <stdio.h>\n"))
	s.KeepNewlines = true
	s.Next() // #
	s.Next() // include
	s.SetWantHeader(true)
	h := s.Next()
	if h.Kind != token.HEADER || h.Text != "<stdio.h>" {
		t.Errorf("header = %v %q", h.Kind, h.Text)
	}
}

func TestHashHash(t *testing.T) {
	got := kinds(t, "# ##")
	want := []token.Kind{token.HASH, token.HASHHASH}
	if !eqKinds(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestEOFForever(t *testing.T) {
	s := New("f.c", []byte(""))
	for i := 0; i < 3; i++ {
		if tok := s.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: got %v, want EOF", i, tok.Kind)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	s := New("f.c", []byte("\"abc"))
	s.Next()
	if s.Errors.Err() == nil {
		t.Error("expected error for unterminated string")
	}
}

func TestKeywordLookup(t *testing.T) {
	if token.LookupKeyword("struct") != token.STRUCT {
		t.Error("struct not recognized")
	}
	if token.LookupKeyword("structx") != token.IDENT {
		t.Error("structx wrongly recognized")
	}
	if !token.STRUCT.IsKeyword() {
		t.Error("STRUCT.IsKeyword() = false")
	}
	if token.IDENT.IsKeyword() {
		t.Error("IDENT.IsKeyword() = true")
	}
}

func TestWSFlag(t *testing.T) {
	s := New("f.c", []byte("f (x) g(y)"))
	f := s.Next()
	lp := s.Next()
	if !lp.WS {
		t.Error("'(' after space should have WS set")
	}
	_ = f
	s.Next() // x
	s.Next() // )
	s.Next() // g
	lp2 := s.Next()
	if lp2.WS {
		t.Error("'(' directly after g should not have WS set")
	}
}
