package parser

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dhpf/internal/ir"
)

// intrinsics the expression grammar recognizes as function calls.
var intrinsics = map[string]bool{
	"sqrt": true, "exp": true, "sin": true, "cos": true, "log": true,
	"min": true, "max": true, "abs": true, "mod": true, "pow": true,
}

// Parse parses mini-HPF source into an ir.Program.
func Parse(src string) (*ir.Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	return p.parseProgram()
}

// MustParse is Parse that panics on error; for embedded workload sources
// validated by tests.
func MustParse(src string) *ir.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lx lexer
	// tok is the current token and ahead the one after it.
	tok, ahead token
	prog       *ir.Program
	proc       *ir.Procedure
	// loop index variables currently in scope
	loopVars []string
}

// newParser checks src for lexical errors and positions a parser on its
// first token.
func newParser(src string) (*parser, error) {
	if err := check(src); err != nil {
		return nil, err
	}
	p := &parser{lx: newLexer(src)}
	p.tok = p.lx.token()
	p.ahead = p.lx.token()
	return p, nil
}

func (p *parser) cur() token { return p.tok }
func (p *parser) at(k tokKind) bool {
	return p.cur().kind == k
}
func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}
func (p *parser) atKw(kw string) bool {
	return p.cur().kind == tIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) next() token {
	t := p.tok
	if t.kind != tEOF {
		p.tok, p.ahead = p.ahead, p.lx.token()
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("parser: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if !p.at(tIdent) {
		return "", p.errf("expected identifier, found %s", p.cur())
	}
	return p.next().text, nil
}

func (p *parser) expectKw(kw string) error {
	if !p.atKw(kw) {
		return p.errf("expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) endOfLine() error {
	if p.at(tEOF) {
		return nil
	}
	if !p.at(tNewline) {
		return p.errf("unexpected %s at end of statement", p.cur())
	}
	p.next()
	return nil
}

func (p *parser) skipNewlines() {
	for p.at(tNewline) {
		p.next()
	}
}

// --- top level -------------------------------------------------------------

func (p *parser) parseProgram() (*ir.Program, error) {
	p.skipNewlines()
	if err := p.expectKw("program"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	p.prog = ir.NewProgram(name)

	for {
		p.skipNewlines()
		switch {
		case p.at(tEOF):
			return p.prog, nil
		case p.atKw("param"):
			if err := p.parseParam(); err != nil {
				return nil, err
			}
		case p.at(tDirective):
			if err := p.parseGlobalDirective(p.next().text); err != nil {
				return nil, err
			}
		case p.atKw("subroutine"):
			if err := p.parseSubroutine(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected param, directive or subroutine, found %s", p.cur())
		}
	}
}

func (p *parser) parseParam() error {
	p.next() // param
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	neg := false
	if p.atPunct("-") {
		neg = true
		p.next()
	}
	if !p.at(tInt) {
		return p.errf("expected integer parameter value, found %s", p.cur())
	}
	v, _ := strconv.Atoi(p.next().text)
	if neg {
		v = -v
	}
	p.prog.Params[name] = v
	return p.endOfLine()
}

// --- directives ------------------------------------------------------------

// parseGlobalDirective handles processors/template/align/distribute.  The
// directive text was captured as one token; re-lex it.
func (p *parser) parseGlobalDirective(text string) error {
	d, err := newParser(text)
	if err != nil {
		return err
	}
	d.prog = p.prog
	switch {
	case d.atKw("processors"):
		d.next()
		name, extents, err := d.parseNameExtents()
		if err != nil {
			return err
		}
		p.prog.Processors = append(p.prog.Processors, &ir.ProcessorsDecl{Name: name, Extents: extents})
	case d.atKw("template"):
		d.next()
		name, extents, err := d.parseNameExtents()
		if err != nil {
			return err
		}
		p.prog.Templates = append(p.prog.Templates, &ir.TemplateDecl{Name: name, Extents: extents})
	case d.atKw("align"):
		d.next()
		if err := d.parseAlign(); err != nil {
			return err
		}
	case d.atKw("distribute"):
		d.next()
		if err := d.parseDistribute(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("parser: unknown global directive %q", text)
	}
	return p.endOfLine()
}

func (p *parser) parseNameExtents() (string, []ir.AffExpr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return "", nil, err
	}
	var extents []ir.AffExpr
	for {
		e, err := p.parseAffParamExpr()
		if err != nil {
			return "", nil, err
		}
		extents = append(extents, e)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return "", nil, err
	}
	return name, extents, nil
}

func (p *parser) parseAlign() error {
	array, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectKw("with"); err != nil {
		return err
	}
	tmpl, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var dims []ir.AlignDim
	for {
		if p.atPunct("*") {
			p.next()
			dims = append(dims, ir.AlignDim{TDim: -1})
		} else {
			id, err := p.expectIdent()
			if err != nil {
				return err
			}
			if !strings.HasPrefix(id, "d") {
				return fmt.Errorf("parser: align dim must be dK or *, got %q", id)
			}
			k, err := strconv.Atoi(id[1:])
			if err != nil {
				return fmt.Errorf("parser: bad align dim %q", id)
			}
			off := ir.Num(0)
			if p.atPunct("+") || p.atPunct("-") {
				sign := 1
				if p.next().text == "-" {
					sign = -1
				}
				e, err := p.parseAffParamExpr()
				if err != nil {
					return err
				}
				off = e.Scale(sign)
			}
			dims = append(dims, ir.AlignDim{TDim: k, Off: off})
		}
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	p.prog.Aligns = append(p.prog.Aligns, &ir.AlignDecl{Array: array, Template: tmpl, Dims: dims})
	return nil
}

func (p *parser) parseDistribute() error {
	target, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var specs []ir.DistSpec
	for {
		switch {
		case p.atPunct("*"):
			p.next()
			specs = append(specs, ir.DistSpec{Kind: ir.DistStar})
		case p.atKw("block"):
			p.next()
			spec := ir.DistSpec{Kind: ir.DistBlock}
			if p.atPunct("(") {
				p.next()
				e, err := p.parseAffParamExpr()
				if err != nil {
					return err
				}
				spec.Size, spec.Has = e, true
				if err := p.expectPunct(")"); err != nil {
					return err
				}
			}
			specs = append(specs, spec)
		case p.atKw("cyclic"):
			p.next()
			specs = append(specs, ir.DistSpec{Kind: ir.DistCyclic})
		default:
			return p.errf("expected BLOCK, CYCLIC or *")
		}
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.expectKw("onto"); err != nil {
		return err
	}
	onto, err := p.expectIdent()
	if err != nil {
		return err
	}
	p.prog.Distributes = append(p.prog.Distributes, &ir.DistributeDecl{Target: target, Onto: onto, Specs: specs})
	return nil
}

// loopDirective is a parsed "!hpf$ independent[, new(..)][, localize(..)]".
type loopDirective struct {
	independent bool
	newVars     []string
	localize    []string
}

func parseLoopDirective(text string) (*loopDirective, error) {
	d, err := newParser(text)
	if err != nil {
		return nil, err
	}
	out := &loopDirective{}
	if !d.atKw("independent") {
		return nil, fmt.Errorf("parser: unknown loop directive %q", text)
	}
	d.next()
	out.independent = true
	for d.atPunct(",") {
		d.next()
		switch {
		case d.atKw("new"), d.atKw("localize"):
			kw := strings.ToLower(d.next().text)
			if err := d.expectPunct("("); err != nil {
				return nil, err
			}
			var names []string
			for {
				n, err := d.expectIdent()
				if err != nil {
					return nil, err
				}
				names = append(names, n)
				if d.atPunct(",") {
					d.next()
					continue
				}
				break
			}
			if err := d.expectPunct(")"); err != nil {
				return nil, err
			}
			if kw == "new" {
				out.newVars = append(out.newVars, names...)
			} else {
				out.localize = append(out.localize, names...)
			}
		default:
			return nil, fmt.Errorf("parser: unknown clause in %q", text)
		}
	}
	return out, nil
}

// --- subroutines -----------------------------------------------------------

func (p *parser) parseSubroutine() error {
	p.next() // subroutine
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	var formals []string
	if !p.atPunct(")") {
		for {
			f, err := p.expectIdent()
			if err != nil {
				return err
			}
			formals = append(formals, f)
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.endOfLine(); err != nil {
		return err
	}
	p.proc = &ir.Procedure{Name: name, Formals: formals}
	p.prog.Procs = append(p.prog.Procs, p.proc)
	p.loopVars = nil

	body, err := p.parseBody(func() bool { return p.atKw("end") })
	if err != nil {
		return err
	}
	p.proc.Body = body
	p.next() // end
	return p.endOfLine()
}

// parseBody parses statements until stop() holds at a statement boundary.
func (p *parser) parseBody(stop func() bool) ([]ir.Stmt, error) {
	var body []ir.Stmt
	var pending *loopDirective
	for {
		p.skipNewlines()
		if p.at(tEOF) {
			return nil, p.errf("unexpected end of input inside body")
		}
		if stop() {
			if pending != nil {
				return nil, p.errf("dangling !hpf$ independent directive")
			}
			return body, nil
		}
		switch {
		case p.at(tDirective):
			d, err := parseLoopDirective(p.next().text)
			if err != nil {
				return nil, err
			}
			pending = d
			if err := p.endOfLine(); err != nil {
				return nil, err
			}

		case p.atKw("real"):
			if pending != nil {
				return nil, p.errf("directive must precede a do loop")
			}
			if err := p.parseRealDecl(); err != nil {
				return nil, err
			}

		case p.atKw("do"):
			l, err := p.parseDo(pending)
			pending = nil
			if err != nil {
				return nil, err
			}
			body = append(body, l)

		case p.atKw("call"):
			if pending != nil {
				return nil, p.errf("directive must precede a do loop")
			}
			c, err := p.parseCall()
			if err != nil {
				return nil, err
			}
			body = append(body, c)

		case p.atKw("if"):
			if pending != nil {
				return nil, p.errf("directive must precede a do loop")
			}
			st, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			body = append(body, st)

		default:
			if pending != nil {
				return nil, p.errf("directive must precede a do loop")
			}
			a, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			body = append(body, a)
		}
	}
}

func (p *parser) parseRealDecl() error {
	p.next() // real
	for {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		d := &ir.Decl{Name: name}
		for _, f := range p.proc.Formals {
			if f == name {
				d.Dummy = true
			}
		}
		if p.atPunct("(") {
			p.next()
			for {
				lb, err := p.parseAffParamExpr()
				if err != nil {
					return err
				}
				ub := lb
				if p.atPunct(":") {
					p.next()
					ub, err = p.parseAffParamExpr()
					if err != nil {
						return err
					}
				} else {
					// Fortran-style "real a(N)" means 1:N.
					ub = lb
					lb = ir.Num(1)
				}
				d.LB = append(d.LB, lb)
				d.UB = append(d.UB, ub)
				if p.atPunct(",") {
					p.next()
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return err
			}
		}
		p.proc.Decls = append(p.proc.Decls, d)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	return p.endOfLine()
}

func (p *parser) parseDo(dir *loopDirective) (*ir.Loop, error) {
	p.next() // do
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	lo, err := p.parseAffParamExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	hi, err := p.parseAffParamExpr()
	if err != nil {
		return nil, err
	}
	step := 1
	if p.atPunct(",") {
		p.next()
		neg := false
		if p.atPunct("-") {
			neg = true
			p.next()
		}
		if !p.at(tInt) {
			return nil, p.errf("expected loop step")
		}
		step, _ = strconv.Atoi(p.next().text)
		if neg {
			step = -step
		}
		if step != 1 && step != -1 {
			return nil, p.errf("loop step must be 1 or -1")
		}
	}
	if err := p.endOfLine(); err != nil {
		return nil, err
	}

	l := &ir.Loop{ID: p.prog.NewStmtID(), Var: v, Lo: lo, Hi: hi, Step: step}
	if dir != nil {
		l.Independent = dir.independent
		l.New = dir.newVars
		l.Localize = dir.localize
	}
	p.loopVars = append(p.loopVars, v)
	body, err := p.parseBody(func() bool { return p.atKw("enddo") })
	if err != nil {
		return nil, err
	}
	p.loopVars = p.loopVars[:len(p.loopVars)-1]
	l.Body = body
	p.next() // enddo
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	return l, nil
}

// parseIf parses "if (cond) then ... [else ...] endif".  Conditions are
// restricted to loop indices, parameters and constants so control flow
// is identical on every processor.
func (p *parser) parseIf() (*ir.IfStmt, error) {
	p.next() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	st := &ir.IfStmt{ID: p.prog.NewStmtID(), Cond: cond}
	thenBody, err := p.parseBody(func() bool { return p.atKw("endif") || p.atKw("else") })
	if err != nil {
		return nil, err
	}
	st.Then = thenBody
	if p.atKw("else") {
		p.next()
		if err := p.endOfLine(); err != nil {
			return nil, err
		}
		elseBody, err := p.parseBody(func() bool { return p.atKw("endif") })
		if err != nil {
			return nil, err
		}
		st.Else = elseBody
	}
	p.next() // endif
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	return st, nil
}

// parseCond parses "expr RELOP expr" with RELOP ∈ {<, >, <=, >=, ==, /=}.
func (p *parser) parseCond() (ir.Cond, error) {
	var c ir.Cond
	l, err := p.parseExpr()
	if err != nil {
		return c, err
	}
	var op string
	switch {
	case p.atPunct("<"):
		p.next()
		op = "<"
		if p.atPunct("=") {
			p.next()
			op = "<="
		}
	case p.atPunct(">"):
		p.next()
		op = ">"
		if p.atPunct("=") {
			p.next()
			op = ">="
		}
	case p.atPunct("="):
		p.next()
		if err := p.expectPunct("="); err != nil {
			return c, err
		}
		op = "=="
	case p.atPunct("/"):
		p.next()
		if err := p.expectPunct("="); err != nil {
			return c, err
		}
		op = "/="
	default:
		return c, p.errf("expected a comparison operator, found %s", p.cur())
	}
	r, err := p.parseExpr()
	if err != nil {
		return c, err
	}
	for _, side := range []ir.Expr{l, r} {
		bad := false
		ir.WalkExpr(side, func(e ir.Expr) {
			switch e.(type) {
			case *ir.ArrayRef, ir.ScalarRef:
				bad = true
			}
		})
		if bad {
			return c, p.errf("if-conditions may use loop indices, parameters and constants only (processor-uniform control flow)")
		}
	}
	return ir.Cond{L: l, Op: op, R: r}, nil
}

func (p *parser) parseCall() (*ir.CallStmt, error) {
	p.next() // call
	callee, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []ir.Expr
	if !p.atPunct(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	return &ir.CallStmt{ID: p.prog.NewStmtID(), Callee: callee, Args: args}, nil
}

func (p *parser) parseAssign() (*ir.Assign, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	lhs := &ir.ArrayRef{Name: name}
	if p.atPunct("(") {
		subs, err := p.parseSubscripts()
		if err != nil {
			return nil, err
		}
		lhs.Subs = subs
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfLine(); err != nil {
		return nil, err
	}
	return &ir.Assign{ID: p.prog.NewStmtID(), LHS: lhs, RHS: rhs}, nil
}

// --- expressions -----------------------------------------------------------

func (p *parser) parseExpr() (ir.Expr, error) { return p.parseAdd() }

func (p *parser) parseAdd() (ir.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atPunct("+") || p.atPunct("-") {
		op := p.next().text[0]
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

// nextIsPunct reports whether the token after the current one is the
// given punctuation (one-token lookahead, used to keep "/" division
// distinct from the "/=" comparison).
func (p *parser) nextIsPunct(s string) bool {
	return p.ahead.kind == tPunct && p.ahead.text == s
}

func (p *parser) parseMul() (ir.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("*") || (p.atPunct("/") && !p.nextIsPunct("=")) {
		op := p.next().text[0]
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &ir.Bin{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (ir.Expr, error) {
	if p.atPunct("-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &ir.Bin{Op: '-', L: ir.FloatConst{Val: 0}, R: x}, nil
	}
	if p.atPunct("+") {
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ir.Expr, error) {
	switch {
	case p.at(tInt), p.at(tFloat):
		t := p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("parser: line %d: bad number %q", t.line, t.text)
		}
		return ir.FloatConst{Val: v}, nil

	case p.atPunct("("):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil

	case p.at(tIdent):
		name := p.next().text
		if p.atPunct("(") {
			if intrinsics[strings.ToLower(name)] {
				p.next()
				var args []ir.Expr
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.atPunct(",") {
						p.next()
						continue
					}
					break
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &ir.Intrinsic{Name: strings.ToLower(name), Args: args}, nil
			}
			subs, err := p.parseSubscripts()
			if err != nil {
				return nil, err
			}
			return &ir.ArrayRef{Name: name, Subs: subs}, nil
		}
		return p.resolveName(name), nil
	}
	return nil, p.errf("expected expression, found %s", p.cur())
}

// resolveName classifies a bare identifier: loop index, symbolic
// parameter, declared array (whole-array reference), or scalar.
func (p *parser) resolveName(name string) ir.Expr {
	for _, v := range p.loopVars {
		if v == name {
			return ir.IndexRef{Name: name}
		}
	}
	if _, ok := p.prog.Params[name]; ok {
		return ir.ParamRef{Name: name}
	}
	if p.proc != nil {
		if d := p.proc.DeclOf(name); d != nil && d.Rank() > 0 {
			return &ir.ArrayRef{Name: name}
		}
	}
	return ir.ScalarRef{Name: name}
}

// parseSubscripts parses "(aff, aff, ...)" where each subscript is affine
// in at most one in-scope loop variable with coefficient ±1.
func (p *parser) parseSubscripts() ([]ir.Subscript, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// Collected on the stack and copied once, at their final length.
	var stack [4]ir.Subscript
	subs := stack[:0]
	for {
		s, err := p.parseSubscript()
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return slices.Clone(subs), nil
}

func (p *parser) isLoopVar(name string) bool {
	for _, v := range p.loopVars {
		if v == name {
			return true
		}
	}
	return false
}

// parseSubscript parses one affine subscript: a sum of terms over loop
// variables, parameters and integers.
func (p *parser) parseSubscript() (ir.Subscript, error) {
	var sub ir.Subscript
	sign := 1
	first := true
	for {
		if p.atPunct("-") {
			sign = -sign
			p.next()
		} else if p.atPunct("+") {
			p.next()
		} else if !first {
			break
		}
		if err := p.parseSubTerm(&sub, sign); err != nil {
			return sub, err
		}
		sign = 1
		first = false
		if !(p.atPunct("+") || p.atPunct("-")) {
			break
		}
	}
	return sub, nil
}

func (p *parser) parseSubTerm(sub *ir.Subscript, sign int) error {
	switch {
	case p.at(tInt):
		c, _ := strconv.Atoi(p.next().text)
		if p.atPunct("*") {
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return err
			}
			return p.addSubTerm(sub, name, sign*c)
		}
		sub.Off.Const += sign * c
		return nil
	case p.at(tIdent):
		name := p.next().text
		return p.addSubTerm(sub, name, sign)
	}
	return p.errf("expected affine subscript term, found %s", p.cur())
}

func (p *parser) addSubTerm(sub *ir.Subscript, name string, coef int) error {
	if p.isLoopVar(name) {
		if sub.Var != "" && sub.Var != name {
			return p.errf("subscript uses two loop variables (%s and %s)", sub.Var, name)
		}
		if sub.Var == name {
			coef += sub.Coef
		}
		if coef != 1 && coef != -1 {
			if coef == 0 {
				sub.Var = ""
				sub.Coef = 0
				return nil
			}
			return p.errf("loop variable %s has non-unit coefficient %d", name, coef)
		}
		sub.Var, sub.Coef = name, coef
		return nil
	}
	addTerm(&sub.Off, name, coef)
	return nil
}

// addTerm adds coef*name to a in place, keeping AddAff's normal form: a
// term stays where it first appeared, and a term that cancels is dropped.
func addTerm(a *ir.AffExpr, name string, coef int) {
	if coef == 0 {
		return
	}
	for i := range a.Terms {
		if a.Terms[i].Name == name {
			if a.Terms[i].Coef += coef; a.Terms[i].Coef == 0 {
				a.Terms = append(a.Terms[:i], a.Terms[i+1:]...)
			}
			return
		}
	}
	a.Terms = append(a.Terms, ir.AffTerm{Name: name, Coef: coef})
}

// parseAffParamExpr parses an affine expression over parameters only
// (loop bounds, extents, align offsets).
func (p *parser) parseAffParamExpr() (ir.AffExpr, error) {
	var out ir.AffExpr
	sign := 1
	first := true
	for {
		if p.atPunct("-") {
			sign = -sign
			p.next()
		} else if p.atPunct("+") {
			p.next()
		} else if !first {
			break
		}
		switch {
		case p.at(tInt):
			c, _ := strconv.Atoi(p.next().text)
			if p.atPunct("*") {
				p.next()
				name, err := p.expectIdent()
				if err != nil {
					return out, err
				}
				addTerm(&out, name, sign*c)
			} else {
				out.Const += sign * c
			}
		case p.at(tIdent):
			addTerm(&out, p.next().text, sign)
		default:
			return out, p.errf("expected affine term, found %s", p.cur())
		}
		sign = 1
		first = false
		if !(p.atPunct("+") || p.atPunct("-")) {
			break
		}
	}
	return out, nil
}
