// Package pp implements a C preprocessor: object- and function-like macros
// with stringification (#) and token pasting (##), #include with built-in
// system headers, the full conditional family (#if/#ifdef/#ifndef/#elif/
// #else/#endif with a constant-expression evaluator and defined()), #undef,
// #error, #pragma once, and the predefined macros __FILE__, __LINE__ and
// __STDC__.
//
// The output is a flat token stream (no newlines, no directives) ready for
// the parser.
package pp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cc/hdr"
	"repro/internal/cc/scanner"
	"repro/internal/cc/token"
)

// Macro is a preprocessor macro definition.
type Macro struct {
	Name   string
	IsFunc bool
	Params []string
	Body   []token.Token
}

// sameDef reports whether two definitions are effectively identical
// (benign redefinition, allowed by the standard).
func (m *Macro) sameDef(o *Macro) bool {
	if m.IsFunc != o.IsFunc || len(m.Params) != len(o.Params) || len(m.Body) != len(o.Body) {
		return false
	}
	for i := range m.Params {
		if m.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range m.Body {
		a, b := m.Body[i], o.Body[i]
		if a.Kind != b.Kind || a.Text != b.Text {
			return false
		}
	}
	return true
}

// IncludeFunc resolves an #include. name is the text between the delimiters,
// system reports <...> vs "...", and from is the directory of the including
// file. It returns a display path and the file contents.
type IncludeFunc func(name string, system bool, from string) (path string, content []byte, err error)

// Config controls preprocessing.
type Config struct {
	// Include resolves #include directives. If nil, only the built-in
	// system headers (package hdr) are available.
	Include IncludeFunc
	// Defines is a set of predefined object macros, e.g. {"DEBUG": "1"}.
	// An empty value defines the macro as 1.
	Defines map[string]string
	// MaxIncludeDepth bounds #include nesting (default 64).
	MaxIncludeDepth int
}

// Preprocessor holds macro state across files.
type Preprocessor struct {
	cfg      Config
	macros   map[string]*Macro
	onceSeen map[string]bool
	depth    int
	out      []token.Token
	errs     scanner.ErrorList
}

// New creates a preprocessor with the given configuration.
func New(cfg Config) *Preprocessor {
	if cfg.MaxIncludeDepth == 0 {
		cfg.MaxIncludeDepth = 64
	}
	p := &Preprocessor{
		cfg:      cfg,
		macros:   make(map[string]*Macro),
		onceSeen: make(map[string]bool),
	}
	p.defineBuiltin("__STDC__", "1")
	for name, val := range cfg.Defines {
		if val == "" {
			val = "1"
		}
		p.defineBuiltin(name, val)
	}
	return p
}

func (p *Preprocessor) defineBuiltin(name, val string) {
	body, _ := scanText("<builtin>", val)
	p.macros[name] = &Macro{Name: name, Body: body}
}

// scanText returns the tokens of text, EOF excluded, and whether it scanned
// without error.
func scanText(file, text string) ([]token.Token, bool) {
	s := scanner.New(file, []byte(text))
	var toks []token.Token
	for t := s.Next(); t.Kind != token.EOF; t = s.Next() {
		toks = append(toks, t)
	}
	return toks, len(s.Errors) == 0
}

func (p *Preprocessor) errorf(pos token.Pos, format string, args ...interface{}) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// Process preprocesses one translation unit and returns its token stream,
// terminated by an EOF token. The slice is freshly allocated on every call
// and belongs to the caller, which may hand it to parser.Parse.
func (p *Preprocessor) Process(file string, src []byte) ([]token.Token, error) {
	// C runs at about one token per four source bytes; the margin covers
	// a few built-in headers.
	p.out = make([]token.Token, 0, len(src)/4+512)
	p.errs = nil
	p.processFile(file, src)
	out := append(p.out, token.Token{Kind: token.EOF, Pos: token.Pos{File: file}})
	p.out = nil
	return out, p.errs.Err()
}

// Errors returns all accumulated errors.
func (p *Preprocessor) Errors() []error { return p.errs }

// IsDefined reports whether name is currently defined as a macro.
func (p *Preprocessor) IsDefined(name string) bool {
	_, ok := p.macros[name]
	return ok
}

// fileState is the per-file processing state.
type fileState struct {
	sc   *scanner.Scanner
	tok  token.Token
	line []token.Token
	path string
	dir  string
}

func (f *fileState) next() token.Token {
	t := f.tok
	if t.Kind != token.EOF {
		f.tok = f.sc.Next()
	}
	return t
}

// readLine consumes tokens up to (not including) EOF, stopping after NEWLINE;
// the NEWLINE itself is consumed but not returned. The returned slice is
// only valid until the next readLine on f.
func (f *fileState) readLine() []token.Token {
	f.line = f.line[:0]
	for f.tok.Kind != token.EOF {
		t := f.next()
		if t.Kind == token.NEWLINE {
			break
		}
		f.line = append(f.line, t)
	}
	return f.line
}

// condState tracks one level of conditional nesting.
type condState struct {
	active    bool // this branch is being processed
	everTaken bool // some branch at this level was taken
	parentOn  bool // enclosing context was active
	sawElse   bool
}

// processFile preprocesses one file, pulling its tokens from the scanner a
// line at a time. A text line that names no macro is appended to the
// output as it stands; other lines collect in pending, which is expanded
// at each line boundary up to the first function-like invocation that may
// still continue on the next line, and in full before each directive.
// Lines that cannot complete that invocation are only appended, so an
// invocation spanning many lines costs time linear in its length.
func (p *Preprocessor) processFile(path string, src []byte) {
	if p.depth >= p.cfg.MaxIncludeDepth {
		p.errorf(token.Pos{File: path}, "#include nesting too deep")
		return
	}
	p.depth++
	defer func() { p.depth-- }()
	mark := len(p.errs)

	sc := scanner.New(path, src)
	sc.KeepNewlines = true
	f := &fileState{sc: sc, tok: sc.Next(), path: path, dir: dirOf(path)}
	var conds []condState
	skipping := func() bool {
		for _, c := range conds {
			if !c.active {
				return true
			}
		}
		return false
	}

	var pending []token.Token // text held back by a cut-off invocation
	open := 0                 // its unclosed brackets (0: its name awaits the '(')
	for {
		t := f.tok
		if t.Kind == token.EOF {
			break
		}
		if t.Kind == token.NEWLINE {
			f.next()
			continue
		}
		if t.Kind == token.HASH && t.BOL {
			pending = p.flush(pending, false)
			f.next() // consume #
			p.directive(f, &conds, skipping)
			continue
		}
		// Ordinary text line.
		line := f.readLine()
		if skipping() {
			continue
		}
		if len(pending) > 0 {
			var cut bool
			if open, cut = cutOff(open, line); cut {
				pending = append(pending, line...)
				continue
			}
		} else if !p.namesMacro(line) {
			p.out = append(p.out, line...)
			continue
		}
		if pending = p.flush(append(pending, line...), true); len(pending) > 0 {
			open, _ = cutOff(0, pending[1:])
		}
	}
	p.flush(pending, false)
	if len(conds) > 0 {
		p.errorf(token.Pos{File: path}, "unterminated conditional directive")
	}
	// The scanner's errors for this file come before those its directives
	// and expansions raised, as if the file had been scanned up front.
	p.errs = append(p.errs[:mark], append(sc.Errors, p.errs[mark:]...)...)
}

// namesMacro reports whether expanding line could change it: whether some
// identifier in it is a defined macro, __FILE__ or __LINE__.
func (p *Preprocessor) namesMacro(line []token.Token) bool {
	for _, t := range line {
		if t.Kind == token.IDENT {
			if _, ok := p.macros[t.Text]; ok || t.Text == "__FILE__" || t.Text == "__LINE__" {
				return true
			}
		}
	}
	return false
}

// cutOff reports whether a function-like invocation cut off by a line end,
// with open brackets unclosed (0: its name still awaits the '('), is still
// cut off after line, and how many brackets it then leaves open. It counts
// brackets as collectArgs does, so a line that cannot complete the
// invocation is appended without expanding anything.
func cutOff(open int, line []token.Token) (int, bool) {
	if open == 0 && len(line) > 0 && line[0].Kind != token.LPAREN {
		return 0, false
	}
	for _, t := range line {
		switch t.Kind {
		case token.LPAREN, token.LBRACK:
			open++
		case token.RPAREN, token.RBRACK:
			if open--; open == 0 {
				return 0, false
			}
		}
	}
	return open, true
}

// flush expands pending onto the output. With partial set it stops before
// a function-like invocation that the next line may still continue (the
// macro name ends pending, or its argument list is unclosed) and returns
// that tail, moved to the front of pending; otherwise it expands all of
// pending and returns it empty.
func (p *Preprocessor) flush(pending []token.Token, partial bool) []token.Token {
	if len(pending) == 0 {
		return pending
	}
	var n int
	p.out, n = p.expand(p.out, pending, nil, partial)
	return pending[:copy(pending, pending[n:])]
}

// directive processes one directive; the leading # is already consumed.
func (p *Preprocessor) directive(f *fileState, conds *[]condState, skipping func() bool) {
	// The operand of an active #include is scanned as one header-name
	// token, so a <...> name keeps its text byte for byte.
	f.sc.SetWantHeader(f.tok.Kind == token.IDENT && f.tok.Text == "include" && !skipping())
	t := f.next()
	f.sc.SetWantHeader(false)
	if t.Kind == token.NEWLINE || t.Kind == token.EOF {
		return // null directive
	}
	name := t.Text
	line := f.readLine()
	switch name {
	case "if", "ifdef", "ifndef":
		active := false
		if !skipping() {
			switch name {
			case "ifdef", "ifndef":
				if len(line) != 1 || line[0].Kind != token.IDENT {
					p.errorf(t.Pos, "#%s expects a single identifier", name)
				} else {
					_, def := p.macros[line[0].Text]
					active = def == (name == "ifdef")
				}
			default:
				active = p.evalCondition(line, t.Pos)
			}
		}
		*conds = append(*conds, condState{active: active, everTaken: active, parentOn: !skipping()})

	case "elif":
		if len(*conds) == 0 {
			p.errorf(t.Pos, "#elif without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			p.errorf(t.Pos, "#elif after #else")
			return
		}
		if c.parentOn && !c.everTaken && p.evalCondition(line, t.Pos) {
			c.active = true
			c.everTaken = true
		} else {
			c.active = false
		}

	case "else":
		if len(*conds) == 0 {
			p.errorf(t.Pos, "#else without #if")
			return
		}
		c := &(*conds)[len(*conds)-1]
		if c.sawElse {
			p.errorf(t.Pos, "duplicate #else")
			return
		}
		c.sawElse = true
		c.active = c.parentOn && !c.everTaken
		if c.active {
			c.everTaken = true
		}

	case "endif":
		if len(*conds) == 0 {
			p.errorf(t.Pos, "#endif without #if")
			return
		}
		*conds = (*conds)[:len(*conds)-1]

	case "define":
		if !skipping() {
			p.define(line, t.Pos)
		}

	case "undef":
		if !skipping() {
			if len(line) != 1 || line[0].Kind != token.IDENT {
				p.errorf(t.Pos, "#undef expects a single identifier")
				return
			}
			delete(p.macros, line[0].Text)
		}

	case "include":
		if !skipping() {
			p.include(line, f.dir, t.Pos)
		}

	case "error":
		if !skipping() {
			p.errorf(t.Pos, "#error %s", tokensText(line))
		}

	case "warning", "ident", "line":
		// recognized, ignored

	case "pragma":
		if !skipping() && len(line) == 1 && line[0].Text == "once" {
			p.onceSeen[f.path] = true
		}

	default:
		if !skipping() {
			p.errorf(t.Pos, "unknown directive #%s", name)
		}
	}
}

func tokensText(toks []token.Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 && t.WS {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

// define handles a #define line (tokens after the directive name).
func (p *Preprocessor) define(line []token.Token, pos token.Pos) {
	if len(line) == 0 || line[0].Kind != token.IDENT {
		p.errorf(pos, "#define expects a macro name")
		return
	}
	m := &Macro{Name: line[0].Text}
	rest := line[1:]
	// Function-like iff '(' immediately follows the name (no whitespace).
	if len(rest) > 0 && rest[0].Kind == token.LPAREN && !rest[0].WS {
		m.IsFunc = true
		i := 1
		if i < len(rest) && rest[i].Kind == token.RPAREN {
			i++
		} else {
			for {
				if i >= len(rest) || rest[i].Kind != token.IDENT {
					p.errorf(pos, "malformed macro parameter list for %s", m.Name)
					return
				}
				m.Params = append(m.Params, rest[i].Text)
				i++
				if i < len(rest) && rest[i].Kind == token.COMMA {
					i++
					continue
				}
				if i < len(rest) && rest[i].Kind == token.RPAREN {
					i++
					break
				}
				p.errorf(pos, "malformed macro parameter list for %s", m.Name)
				return
			}
		}
		m.Body = append(m.Body, rest[i:]...)
	} else {
		m.Body = append(m.Body, rest...)
	}
	if old, ok := p.macros[m.Name]; ok && !old.sameDef(m) {
		p.errorf(pos, "macro %s redefined incompatibly", m.Name)
	}
	p.macros[m.Name] = m
}

// include handles an #include line (tokens after the directive name) in a
// file in directory dir.
func (p *Preprocessor) include(line []token.Token, dir string, pos token.Pos) {
	if len(line) == 0 {
		p.errorf(pos, "#include expects a header name")
		return
	}
	// Re-expand in case the operand is a macro producing a header name.
	if line[0].Kind == token.IDENT {
		line, _ = p.expand(nil, line, nil, false)
	}
	var name string
	var system bool
	switch {
	case len(line) >= 1 && line[0].Kind == token.STRING:
		s := line[0].Text
		name = s[1 : len(s)-1]
	case len(line) >= 1 && line[0].Kind == token.HEADER && strings.HasSuffix(line[0].Text, ">"):
		s := line[0].Text
		name, system = s[1:len(s)-1], true
	case len(line) >= 2 && line[0].Kind == token.LSS:
		// A macro-expanded <name>: rebuild it from the < ... > token run.
		var sb strings.Builder
		i := 1
		for i < len(line) && line[i].Kind != token.GTR {
			sb.WriteString(line[i].String())
			i++
		}
		if i == len(line) {
			p.errorf(pos, "malformed #include")
			return
		}
		name = sb.String()
		system = true
	default:
		p.errorf(pos, "malformed #include")
		return
	}

	path, content, err := p.resolveInclude(name, system, dir)
	if err != nil {
		p.errorf(pos, "#include %q: %v", name, err)
		return
	}
	if p.onceSeen[path] {
		return
	}
	p.processFile(path, content)
}

func (p *Preprocessor) resolveInclude(name string, system bool, from string) (string, []byte, error) {
	if system {
		if text, ok := hdr.Lookup(name); ok {
			return "<" + name + ">", []byte(text), nil
		}
	}
	if p.cfg.Include != nil {
		path, content, err := p.cfg.Include(name, system, from)
		if err == nil {
			return path, content, nil
		}
		// Fall back to built-ins for "name.h" style includes of
		// system headers.
		if text, ok := hdr.Lookup(name); ok {
			return "<" + name + ">", []byte(text), nil
		}
		return "", nil, err
	}
	if text, ok := hdr.Lookup(name); ok {
		return "<" + name + ">", []byte(text), nil
	}
	return "", nil, fmt.Errorf("not found")
}

func dirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return "."
}

// --- Macro expansion ---

// expand appends the macro expansion of toks to out and returns it with
// the number of tokens of toks it consumed. active is the set of macro
// names whose expansion is in progress (blue paint). All of toks is
// consumed unless partial is set and the end of toks cuts a function-like
// invocation short: expansion then stops at the macro name, so the caller
// can retry once more tokens have arrived.
func (p *Preprocessor) expand(out, toks []token.Token, active map[string]bool, partial bool) ([]token.Token, int) {
	for i := 0; i < len(toks); {
		t := toks[i]
		if t.Kind != token.IDENT || t.NoExpand {
			out = append(out, t)
			i++
			continue
		}
		// Predefined dynamic macros.
		switch t.Text {
		case "__FILE__":
			out = append(out, token.Token{Kind: token.STRING, Text: strconv.Quote(t.Pos.File), Pos: t.Pos, WS: t.WS})
			i++
			continue
		case "__LINE__":
			out = append(out, token.Token{Kind: token.INT, Text: strconv.Itoa(t.Pos.Line), Pos: t.Pos, WS: t.WS})
			i++
			continue
		}
		m, ok := p.macros[t.Text]
		if !ok {
			out = append(out, t)
			i++
			continue
		}
		if active[t.Text] {
			t.NoExpand = true
			out = append(out, t)
			i++
			continue
		}
		if m.IsFunc {
			// Function-like macro: need a following '('.
			j := i + 1
			if j >= len(toks) && partial {
				return out, i
			}
			if j >= len(toks) || toks[j].Kind != token.LPAREN {
				out = append(out, t)
				i++
				continue
			}
			args, rest, err := collectArgs(toks[j:], len(m.Params))
			if err != nil {
				if partial {
					return out, i
				}
				p.errorf(t.Pos, "macro %s: %v", m.Name, err)
				out = append(out, t)
				i++
				continue
			}
			i = j + rest
			body := p.subst(m, args, active, t.Pos)
			out, _ = p.expand(out, body, withName(active, m.Name), false)
			continue
		}
		// Object-like macro.
		body := p.subst(m, nil, active, t.Pos)
		out, _ = p.expand(out, body, withName(active, m.Name), false)
		i++
	}
	return out, len(toks)
}

func withName(active map[string]bool, name string) map[string]bool {
	na := make(map[string]bool, len(active)+1)
	for k := range active {
		na[k] = true
	}
	na[name] = true
	return na
}

// collectArgs parses a macro argument list starting at the '(' (toks[0]).
// It returns the arguments, the number of tokens consumed (including both
// parens), and an error. nparams disambiguates zero-argument invocations.
func collectArgs(toks []token.Token, nparams int) ([][]token.Token, int, error) {
	var args [][]token.Token
	var cur []token.Token
	depth := 1
	i := 1
	for ; i < len(toks); i++ {
		t := toks[i]
		switch t.Kind {
		case token.LPAREN, token.LBRACK:
			depth++
		case token.RPAREN, token.RBRACK:
			depth--
			if depth == 0 {
				args = append(args, cur)
				if nparams == 0 && len(args) == 1 && len(args[0]) == 0 {
					args = nil
				}
				return args, i + 1, nil
			}
		case token.COMMA:
			if depth == 1 {
				args = append(args, cur)
				cur = nil
				continue
			}
		case token.EOF:
			return nil, 0, fmt.Errorf("unterminated argument list")
		}
		cur = append(cur, t)
	}
	return nil, 0, fmt.Errorf("unterminated argument list")
}

// subst substitutes arguments into a macro body, handling # and ##.
func (p *Preprocessor) subst(m *Macro, args [][]token.Token, active map[string]bool, usePos token.Pos) []token.Token {
	paramIndex := func(name string) int {
		for k, pn := range m.Params {
			if pn == name {
				return k
			}
		}
		return -1
	}
	argFor := func(k int) []token.Token {
		if k < len(args) {
			return args[k]
		}
		return nil
	}

	var out []token.Token
	body := m.Body
	for i := 0; i < len(body); i++ {
		t := body[i]

		// Stringification: # param
		if t.Kind == token.HASH && m.IsFunc && i+1 < len(body) && body[i+1].Kind == token.IDENT {
			if k := paramIndex(body[i+1].Text); k >= 0 {
				out = append(out, token.Token{
					Kind: token.STRING,
					Text: strconv.Quote(tokensText(argFor(k))),
					Pos:  usePos,
					WS:   t.WS,
				})
				i++
				continue
			}
		}

		// Token pasting: X ## Y
		if i+1 < len(body) && body[i+1].Kind == token.HASHHASH {
			// Collect a paste chain a ## b ## c ...
			left := p.pasteOperand(t, args, paramIndex, false)
			i++ // at ##
			for i < len(body) && body[i].Kind == token.HASHHASH {
				i++
				if i >= len(body) {
					p.errorf(usePos, "macro %s: ## at end of body", m.Name)
					break
				}
				right := p.pasteOperand(body[i], args, paramIndex, false)
				left = p.paste(left, right, usePos)
				i++
			}
			i-- // loop will increment
			out = append(out, left...)
			continue
		}

		// Ordinary parameter: substitute fully expanded argument.
		if t.Kind == token.IDENT && m.IsFunc {
			if k := paramIndex(t.Text); k >= 0 {
				n := len(out)
				out, _ = p.expand(out, argFor(k), active, false)
				if len(out) > n {
					out[n].WS = t.WS
				}
				continue
			}
		}

		tt := t
		if tt.Pos.Line == 0 {
			tt.Pos = usePos
		}
		out = append(out, tt)
	}
	return out
}

// pasteOperand returns the tokens an operand of ## stands for: the raw
// (unexpanded) argument for a parameter, or the token itself.
func (p *Preprocessor) pasteOperand(t token.Token, args [][]token.Token, paramIndex func(string) int, _ bool) []token.Token {
	if t.Kind == token.IDENT {
		if k := paramIndex(t.Text); k >= 0 {
			if k < len(args) {
				return args[k]
			}
			return nil
		}
	}
	return []token.Token{t}
}

// paste concatenates the last token of left with the first token of right,
// rescanning the concatenation as a single token.
func (p *Preprocessor) paste(left, right []token.Token, pos token.Pos) []token.Token {
	if len(left) == 0 {
		return right
	}
	if len(right) == 0 {
		return left
	}
	l := left[len(left)-1]
	r := right[0]
	text := l.String() + r.String()
	pasted, ok := scanText(pos.File, text)
	if !ok || len(pasted) != 1 {
		p.errorf(pos, "pasting %q and %q does not form a valid token", l.String(), r.String())
		pasted = []token.Token{l, r}
	} else {
		pasted[0].Pos = pos
	}
	out := append([]token.Token{}, left[:len(left)-1]...)
	out = append(out, pasted...)
	out = append(out, right[1:]...)
	return out
}
