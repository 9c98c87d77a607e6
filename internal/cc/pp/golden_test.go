package pp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cc/hdr"
	"repro/internal/cc/pp"
	"repro/internal/corpus"
	"repro/internal/frontend"
)

// tokenGolden is one entry of the token-stream golden file: the SHA-256 of
// every token pp.Process returned (kind, spelling, position and the BOL,
// WS and NoExpand flags), the token count, and every error in the order
// Errors reports them.
type tokenGolden struct {
	Name   string   `json:"name"`
	Tokens int      `json:"tokens"`
	SHA256 string   `json:"sha256"`
	Errors []string `json:"errors,omitempty"`
}

// goldenHandCases are small inputs for the paths the corpus does not
// reach: invocations and continuations across lines, computed includes,
// nested conditionals, and error ordering between the scanner, the
// directives and an included file. Each maps a file name to its text; the
// first file is the one preprocessed, the rest are includable.
var goldenHandCases = []struct {
	name  string
	files [][2]string
}{
	{"args-span-lines", [][2]string{{"a.c", "#define ADD(a, b) ((a) + (b))\n" +
		"int x = ADD(1,\n   2);\n" +
		"int y = ADD(\n  x,\n  3) + ADD(4, 5);\n" +
		"int z = ADD((1,\n 2), [3\n]);\nint after;\n"}}},
	{"name-then-paren-next-line", [][2]string{{"b.c", "#define F(x) (x*2)\n#define O 9\n" +
		"int z = F\n(7);\nint w = F;\nint v = F\n;\n" +
		"int u = O\n(1);\nint t = F\n\n\n(3) + F\n"}}},
	{"line-after-continuation", [][2]string{{"c.c", "int a = \\\n __LINE__;\n" +
		"int b = __LINE__ + \\\n__LINE__;\nchar *f = __FILE__;\n" +
		"#define L __LINE__\nint c = L\\\n+ L;\n"}}},
	{"include-macro", [][2]string{
		{"d.c", "#define HDR <stddef.h>\n#include HDR\n#define Q \"inc.h\"\n#include Q\nsize_t n = INC;\n"},
		{"inc.h", "#define INC (sizeof(int) + __LINE__)\nint from_inc = __LINE__;\nchar *g = __FILE__;\n"},
	}},
	{"nested-if-elif", [][2]string{{"e.c", "#define A 2\n" +
		"#if A == 1\none\n#elif A == 2\n# if defined(B)\ntwoB\n# elif A > 1\n" +
		"#  ifdef A\ntwoA\n#  else\nnotA\n#  endif\n# else\nno\n# endif\n" +
		"#elif A == 3\nthree\n#else\nother\n#endif\nend A;\n"}}},
	{"scan-and-directive-errors", [][2]string{
		{"f.c", "#error first directive error\nint a;\n#include \"bad.h\"\n#bogus\n" +
			"char *s = \"unterminated;\nchar c = 'x\nint b;\n"},
		{"bad.h", "#warning fine\n#nosuch\nint h = 1 /* open comment\n"},
	}},
	{"invocation-cut-by-directive", [][2]string{{"g.c", "#define F(x) x\n" +
		"int a = F(1,\n#define Y 2\n2);\nint b = F(\n"}}},
	{"paste-stringify-lines", [][2]string{{"h.c", "#define CAT(a, b) a ## b\n#define STR(x) #x\n" +
		"int CAT(foo,\n bar) = 1;\nchar *s = STR(a +\n b);\n#define SELF SELF + 1\nint r = SELF;\n" +
		"int bad = CAT(+,\n /) CAT(x, 1.5) CAT(,) CAT(a,);\n"}}},
}

// goldenInputs lists every (name, files) pair the golden covers: the 20
// corpus programs, the casts benchmark's generated program at seed 1, the
// default GenerateLarge program, each built-in header on its own, and the
// hand cases.
func goldenInputs(t *testing.T) []struct {
	name  string
	files [][2]string
} {
	type input = struct {
		name  string
		files [][2]string
	}
	var out []input
	fromSources := func(name string, srcs []frontend.Source) input {
		in := input{name: name}
		for _, s := range srcs {
			in.files = append(in.files, [2]string{s.Name, s.Text})
		}
		return in
	}
	all, names, err := corpus.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		out = append(out, fromSources("corpus/"+n, all[n]))
	}
	out = append(out, fromSources("generate/casts-seed1", corpus.Generate(corpus.GenParams{
		NStructs: 24, NFields: 8, NObjects: 12, NDerefs: 600, CastDensity: 25, Seed: 1})))
	out = append(out, fromSources("generate-large/default", corpus.GenerateLarge(corpus.DefaultLargeParams())))
	var hdrs []string
	for h := range hdr.Headers {
		hdrs = append(hdrs, h)
	}
	sort.Strings(hdrs)
	for _, h := range hdrs {
		out = append(out, input{name: "hdr/" + h, files: [][2]string{{"<" + h + ">", hdr.Headers[h]}}})
	}
	for _, hc := range goldenHandCases {
		out = append(out, input{name: "hand/" + hc.name, files: hc.files})
	}
	return out
}

// preprocessGolden runs pp.Process on the first file of files, resolving
// includes among the rest, and digests the result.
func preprocessGolden(name string, files [][2]string) tokenGolden {
	p := pp.New(pp.Config{Include: func(inc string, system bool, from string) (string, []byte, error) {
		for _, f := range files[1:] {
			if f[0] == inc {
				return f[0], []byte(f[1]), nil
			}
		}
		return "", nil, fmt.Errorf("not found")
	}})
	toks, err := p.Process(files[0][0], []byte(files[0][1]))
	h := sha256.New()
	for _, tk := range toks {
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d\x00%d\x00%t %t %t\n",
			tk.Kind, tk.Text, tk.Pos.File, tk.Pos.Line, tk.Pos.Col, tk.BOL, tk.WS, tk.NoExpand)
	}
	g := tokenGolden{Name: name, Tokens: len(toks), SHA256: hex.EncodeToString(h.Sum(nil))}
	for _, e := range p.Errors() {
		g.Errors = append(g.Errors, e.Error())
	}
	if (err == nil) != (len(g.Errors) == 0) || err != nil && err.Error() != g.Errors[0] {
		g.Errors = append(g.Errors, fmt.Sprintf("Process returned %v", err))
	}
	return g
}

// TestTokenStreamGolden pins pp.Process's output token for token, and its
// errors in order, to a file recorded before the preprocessor was rewritten
// to stream from the scanner. The file is not regenerated on purpose: on a
// mismatch the test prints the entries it computed; replace the file with
// them only when the change in output is intended and reviewed.
func TestTokenStreamGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "token_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []tokenGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var got []tokenGolden
	for _, in := range goldenInputs(t) {
		got = append(got, preprocessGolden(in.name, in.files))
	}
	bad := len(got) != len(want)
	if bad {
		t.Errorf("golden has %d entries, computed %d", len(want), len(got))
	}
	for i := range got {
		if i < len(want) && !sameGolden(got[i], want[i]) {
			bad = true
			t.Errorf("%s:\n got  %+v\n want %+v", got[i].Name, got[i], want[i])
		}
	}
	if bad {
		out, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("computed entries:\n%s", out)
	}
}

func sameGolden(a, b tokenGolden) bool {
	if a.Name != b.Name || a.Tokens != b.Tokens || a.SHA256 != b.SHA256 || len(a.Errors) != len(b.Errors) {
		return false
	}
	for i := range a.Errors {
		if a.Errors[i] != b.Errors[i] {
			return false
		}
	}
	return true
}
