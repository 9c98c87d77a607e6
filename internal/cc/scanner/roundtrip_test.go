package scanner

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cc/token"
)

// Property: rendering a token stream back to text and rescanning yields the
// same kinds and spellings (idempotence of scan∘print).

func renderTokens(toks []token.Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if t.Kind == token.EOF {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

func scanAll(src string) ([]token.Token, error) {
	s := New("rt.c", []byte(src))
	var toks []token.Token
	for {
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, s.Errors.Err()
		}
	}
}

func sameStream(a, b []token.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// genToken emits one random valid token spelling.
func genToken(r *rand.Rand) string {
	switch r.Intn(7) {
	case 0: // identifier
		letters := "abcxyz_"
		n := 1 + r.Intn(6)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[r.Intn(len(letters))])
		}
		return sb.String()
	case 1: // integer
		forms := []string{"0", "42", "0x1f", "017", "42u", "7L"}
		return forms[r.Intn(len(forms))]
	case 2: // float
		forms := []string{"1.5", "2e3", ".25", "1.5e-3"}
		return forms[r.Intn(len(forms))]
	case 3: // string
		forms := []string{`"abc"`, `""`, `"a b"`, `"\n"`, `"q\"q"`}
		return forms[r.Intn(len(forms))]
	case 4: // char
		forms := []string{`'a'`, `'\n'`, `'\x41'`}
		return forms[r.Intn(len(forms))]
	case 5: // keyword
		forms := []string{"int", "struct", "while", "return", "sizeof"}
		return forms[r.Intn(len(forms))]
	default: // operator
		forms := []string{"+", "-", "*", "/", "%", "<<", ">>", "<=", ">=",
			"==", "!=", "&&", "||", "->", "++", "--", "...", "(", ")",
			"[", "]", "{", "}", ",", ";", "?", ":", "~", "^", "&", "|"}
		return forms[r.Intn(len(forms))]
	}
}

func TestScanPrintRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(30)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = genToken(r)
		}
		src := strings.Join(parts, " ")
		t1, err := scanAll(src)
		if err != nil {
			t.Fatalf("scan %q: %v", src, err)
		}
		printed := renderTokens(t1)
		t2, err := scanAll(printed)
		if err != nil {
			t.Fatalf("rescan %q: %v", printed, err)
		}
		if !sameStream(t1, t2) {
			t.Fatalf("round trip diverged:\n src: %q\n out: %q", src, printed)
		}
	}
}

func TestScanTokenCountMatches(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = genToken(r)
		}
		src := strings.Join(parts, " ")
		toks, err := scanAll(src)
		if err != nil {
			t.Fatal(err)
		}
		// Space-separated valid tokens scan one-to-one (minus EOF).
		if len(toks)-1 != n {
			t.Fatalf("%q scanned to %d tokens, want %d", src, len(toks)-1, n)
		}
	}
}
