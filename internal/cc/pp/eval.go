package pp

import (
	"fmt"

	"repro/internal/cc/lit"
	"repro/internal/cc/token"
)

// evalCondition evaluates a #if / #elif controlling expression. Per the
// standard, defined-expressions are recognized before macro expansion,
// remaining identifiers evaluate to 0, and arithmetic is done in the widest
// integer type (int64 here).
func (p *Preprocessor) evalCondition(line []token.Token, pos token.Pos) bool {
	pre := p.resolveDefined(line)
	expanded, _ := p.expand(nil, pre, nil, false)
	ev := &condEval{p: p, toks: expanded, pos: pos}
	v := ev.ternary()
	if ev.i < len(ev.toks) && !ev.failed {
		ev.fail("trailing tokens in #if expression")
	}
	if ev.failed {
		return false
	}
	return v != 0
}

// resolveDefined replaces defined X and defined(X) with 1 or 0 before
// macro expansion.
func (p *Preprocessor) resolveDefined(line []token.Token) []token.Token {
	var out []token.Token
	for i := 0; i < len(line); i++ {
		t := line[i]
		if t.Kind == token.IDENT && t.Text == "defined" {
			j := i + 1
			parens := false
			if j < len(line) && line[j].Kind == token.LPAREN {
				parens = true
				j++
			}
			if j < len(line) && line[j].Kind == token.IDENT {
				_, def := p.macros[line[j].Text]
				val := "0"
				if def {
					val = "1"
				}
				out = append(out, token.Token{Kind: token.INT, Text: val, Pos: t.Pos, WS: t.WS})
				i = j
				if parens && i+1 < len(line) && line[i+1].Kind == token.RPAREN {
					i++
				}
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

type condEval struct {
	p      *Preprocessor
	toks   []token.Token
	i      int
	pos    token.Pos
	failed bool
}

func (e *condEval) fail(format string, args ...interface{}) int64 {
	if !e.failed {
		e.p.errorf(e.pos, "#if: %s", fmt.Sprintf(format, args...))
		e.failed = true
	}
	return 0
}

func (e *condEval) peek() token.Token {
	if e.i < len(e.toks) {
		return e.toks[e.i]
	}
	return token.Token{Kind: token.EOF}
}

func (e *condEval) next() token.Token {
	t := e.peek()
	if e.i < len(e.toks) {
		e.i++
	}
	return t
}

func (e *condEval) ternary() int64 {
	cond := e.logicalOr()
	if e.peek().Kind == token.QUESTION {
		e.next()
		a := e.ternary()
		if e.peek().Kind != token.COLON {
			return e.fail("expected ':' in conditional expression")
		}
		e.next()
		b := e.ternary()
		if cond != 0 {
			return a
		}
		return b
	}
	return cond
}

func (e *condEval) logicalOr() int64 {
	v := e.logicalAnd()
	for e.peek().Kind == token.LOR {
		e.next()
		r := e.logicalAnd()
		if v != 0 || r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) logicalAnd() int64 {
	v := e.bitOr()
	for e.peek().Kind == token.LAND {
		e.next()
		r := e.bitOr()
		if v != 0 && r != 0 {
			v = 1
		} else {
			v = 0
		}
	}
	return v
}

func (e *condEval) bitOr() int64 {
	v := e.bitXor()
	for e.peek().Kind == token.OR {
		e.next()
		v |= e.bitXor()
	}
	return v
}

func (e *condEval) bitXor() int64 {
	v := e.bitAnd()
	for e.peek().Kind == token.XOR {
		e.next()
		v ^= e.bitAnd()
	}
	return v
}

func (e *condEval) bitAnd() int64 {
	v := e.equality()
	for e.peek().Kind == token.AND {
		e.next()
		v &= e.equality()
	}
	return v
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (e *condEval) equality() int64 {
	v := e.relational()
	for {
		switch e.peek().Kind {
		case token.EQL:
			e.next()
			v = boolToInt(v == e.relational())
		case token.NEQ:
			e.next()
			v = boolToInt(v != e.relational())
		default:
			return v
		}
	}
}

func (e *condEval) relational() int64 {
	v := e.shift()
	for {
		switch e.peek().Kind {
		case token.LSS:
			e.next()
			v = boolToInt(v < e.shift())
		case token.GTR:
			e.next()
			v = boolToInt(v > e.shift())
		case token.LEQ:
			e.next()
			v = boolToInt(v <= e.shift())
		case token.GEQ:
			e.next()
			v = boolToInt(v >= e.shift())
		default:
			return v
		}
	}
}

func (e *condEval) shift() int64 {
	v := e.additive()
	for {
		switch e.peek().Kind {
		case token.SHL:
			e.next()
			v <<= uint64(e.additive()) & 63
		case token.SHR:
			e.next()
			v >>= uint64(e.additive()) & 63
		default:
			return v
		}
	}
}

func (e *condEval) additive() int64 {
	v := e.multiplicative()
	for {
		switch e.peek().Kind {
		case token.ADD:
			e.next()
			v += e.multiplicative()
		case token.SUB:
			e.next()
			v -= e.multiplicative()
		default:
			return v
		}
	}
}

func (e *condEval) multiplicative() int64 {
	v := e.unary()
	for {
		switch e.peek().Kind {
		case token.MUL:
			e.next()
			v *= e.unary()
		case token.QUO:
			e.next()
			r := e.unary()
			if r == 0 {
				return e.fail("division by zero")
			}
			v /= r
		case token.REM:
			e.next()
			r := e.unary()
			if r == 0 {
				return e.fail("modulo by zero")
			}
			v %= r
		default:
			return v
		}
	}
}

func (e *condEval) unary() int64 {
	switch e.peek().Kind {
	case token.SUB:
		e.next()
		return -e.unary()
	case token.ADD:
		e.next()
		return e.unary()
	case token.NOT:
		e.next()
		return boolToInt(e.unary() == 0)
	case token.TILDE:
		e.next()
		return ^e.unary()
	}
	return e.primary()
}

func (e *condEval) primary() int64 {
	t := e.next()
	switch t.Kind {
	case token.INT:
		info, err := lit.ParseInt(t.Text)
		if err != nil {
			return e.fail("%v", err)
		}
		return int64(info.Value)
	case token.CHAR:
		v, err := lit.ParseChar(t.Text)
		if err != nil {
			return e.fail("%v", err)
		}
		return v
	case token.IDENT:
		return 0 // undefined identifier
	case token.LPAREN:
		v := e.ternary()
		if e.peek().Kind != token.RPAREN {
			return e.fail("expected ')'")
		}
		e.next()
		return v
	default:
		return e.fail("unexpected token %q", t.String())
	}
}
