package ir

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"
)

// The fmt-based renderers AppendText replaced, kept as its oracle: every
// text the compiler prints (reports, node programs, procedure fingerprints)
// was spelled by these.

func oracleAff(a AffExpr) string {
	var sb strings.Builder
	first := true
	for _, t := range a.Terms {
		if t.Coef == 0 {
			continue
		}
		switch {
		case first && t.Coef == 1:
			sb.WriteString(t.Name)
		case first && t.Coef == -1:
			sb.WriteString("-" + t.Name)
		case first:
			fmt.Fprintf(&sb, "%d*%s", t.Coef, t.Name)
		case t.Coef == 1:
			sb.WriteString("+" + t.Name)
		case t.Coef == -1:
			sb.WriteString("-" + t.Name)
		case t.Coef > 0:
			fmt.Fprintf(&sb, "+%d*%s", t.Coef, t.Name)
		default:
			fmt.Fprintf(&sb, "%d*%s", t.Coef, t.Name)
		}
		first = false
	}
	if first {
		return fmt.Sprintf("%d", a.Const)
	}
	if a.Const > 0 {
		fmt.Fprintf(&sb, "+%d", a.Const)
	} else if a.Const < 0 {
		fmt.Fprintf(&sb, "%d", a.Const)
	}
	return sb.String()
}

func oracleSubscript(s Subscript) string {
	if s.Var == "" {
		return oracleAff(s.Off)
	}
	var v string
	switch s.Coef {
	case 1:
		v = s.Var
	case -1:
		v = "-" + s.Var
	default:
		v = fmt.Sprintf("%d*%s", s.Coef, s.Var)
	}
	if s.Off.isZero() {
		return v
	}
	off := oracleAff(s.Off)
	if off[0] != '-' && off[0] != '+' {
		off = "+" + off
	}
	return v + off
}

func oracleRef(r *ArrayRef) string {
	if len(r.Subs) == 0 {
		return r.Name
	}
	s := r.Name + "("
	for i, sub := range r.Subs {
		if i > 0 {
			s += ","
		}
		s += oracleSubscript(sub)
	}
	return s + ")"
}

func oracleTrimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

func oracleExpr(e Expr) string {
	switch x := e.(type) {
	case FloatConst:
		return oracleTrimFloat(x.Val)
	case IndexRef:
		return x.Name
	case ParamRef:
		return x.Name
	case ScalarRef:
		return x.Name
	case *ArrayRef:
		return oracleRef(x)
	case *Bin:
		return fmt.Sprintf("(%s %c %s)", oracleExpr(x.L), x.Op, oracleExpr(x.R))
	case *Intrinsic:
		s := x.Name + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ", "
			}
			s += oracleExpr(a)
		}
		return s + ")"
	}
	panic(fmt.Sprintf("oracleExpr: %T", e))
}

func oracleCond(c Cond) string {
	return fmt.Sprintf("%s %s %s", oracleExpr(c.L), c.Op, oracleExpr(c.R))
}

// The fmt printer Print, AppendHeader and AppendProc replaced: the
// program text, and through it every procedure and header fingerprint,
// was spelled by these.

func oraclePrint(p *Program) string {
	var sb strings.Builder
	oracleHeader(&sb, p)
	for _, pr := range p.Procs {
		sb.WriteByte('\n')
		oracleProc(&sb, pr)
	}
	return sb.String()
}

func oracleHeader(sb *strings.Builder, p *Program) {
	fmt.Fprintf(sb, "program %s\n", p.Name)
	names := make([]string, 0, len(p.Params))
	for n := range p.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(sb, "param %s = %d\n", n, p.Params[n])
	}
	for _, d := range p.Processors {
		fmt.Fprintf(sb, "!hpf$ processors %s(%s)\n", d.Name, oracleAffList(d.Extents))
	}
	for _, d := range p.Templates {
		fmt.Fprintf(sb, "!hpf$ template %s(%s)\n", d.Name, oracleAffList(d.Extents))
	}
	for _, d := range p.Aligns {
		dims := make([]string, len(d.Dims))
		for i, ad := range d.Dims {
			if ad.TDim < 0 {
				dims[i] = "*"
			} else if c, ok := ad.Off.IsConst(); ok && c == 0 {
				dims[i] = fmt.Sprintf("d%d", ad.TDim)
			} else {
				dims[i] = fmt.Sprintf("d%d+%s", ad.TDim, oracleAff(ad.Off))
			}
		}
		fmt.Fprintf(sb, "!hpf$ align %s with %s(%s)\n", d.Array, d.Template, strings.Join(dims, ","))
	}
	for _, d := range p.Distributes {
		specs := make([]string, len(d.Specs))
		for i, s := range d.Specs {
			specs[i] = s.Kind.String()
			if s.Kind == DistBlock && s.Has {
				specs[i] += "(" + oracleAff(s.Size) + ")"
			}
		}
		fmt.Fprintf(sb, "!hpf$ distribute %s(%s) onto %s\n", d.Target, strings.Join(specs, ","), d.Onto)
	}
}

func oracleProc(sb *strings.Builder, pr *Procedure) {
	fmt.Fprintf(sb, "subroutine %s(%s)\n", pr.Name, strings.Join(pr.Formals, ", "))
	for _, d := range pr.Decls {
		if d.Rank() == 0 {
			fmt.Fprintf(sb, "  real %s\n", d.Name)
			continue
		}
		dims := make([]string, d.Rank())
		for k := range d.LB {
			dims[k] = fmt.Sprintf("%s:%s", oracleAff(d.LB[k]), oracleAff(d.UB[k]))
		}
		fmt.Fprintf(sb, "  real %s(%s)\n", d.Name, strings.Join(dims, ", "))
	}
	oracleBody(sb, pr.Body, 1)
	fmt.Fprintf(sb, "end\n")
}

func oracleBody(sb *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch st := s.(type) {
		case *Assign:
			fmt.Fprintf(sb, "%s%s = %s\n", ind, oracleRef(st.LHS), oracleExpr(st.RHS))
		case *CallStmt:
			args := make([]string, len(st.Args))
			for i, a := range st.Args {
				args[i] = oracleExpr(a)
			}
			fmt.Fprintf(sb, "%scall %s(%s)\n", ind, st.Callee, strings.Join(args, ", "))
		case *IfStmt:
			fmt.Fprintf(sb, "%sif (%s) then\n", ind, oracleCond(st.Cond))
			oracleBody(sb, st.Then, depth+1)
			if len(st.Else) > 0 {
				fmt.Fprintf(sb, "%selse\n", ind)
				oracleBody(sb, st.Else, depth+1)
			}
			fmt.Fprintf(sb, "%sendif\n", ind)
		case *Loop:
			if st.Independent {
				dir := "!hpf$ independent"
				if len(st.New) > 0 {
					dir += ", new(" + strings.Join(st.New, ",") + ")"
				}
				if len(st.Localize) > 0 {
					dir += ", localize(" + strings.Join(st.Localize, ",") + ")"
				}
				fmt.Fprintf(sb, "%s%s\n", ind, dir)
			}
			if st.Step == 1 {
				fmt.Fprintf(sb, "%sdo %s = %s, %s\n", ind, st.Var, oracleAff(st.Lo), oracleAff(st.Hi))
			} else {
				fmt.Fprintf(sb, "%sdo %s = %s, %s, %d\n", ind, st.Var, oracleAff(st.Lo), oracleAff(st.Hi), st.Step)
			}
			oracleBody(sb, st.Body, depth+1)
			fmt.Fprintf(sb, "%senddo\n", ind)
		}
	}
}

func oracleAffList(xs []AffExpr) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = oracleAff(x)
	}
	return strings.Join(out, ", ")
}

// checkProgramText asserts Print, AppendHeader and AppendProc spell the
// program exactly as the fmt printer did, each appending onto a buffer
// that already holds text.
func checkProgramText(t *testing.T, p *Program) {
	t.Helper()
	if got, want := Print(p), oraclePrint(p); got != want {
		t.Errorf("program %s: Print differs from the fmt printer:\n--- Print\n%s\n--- oracle\n%s", p.Name, got, want)
	}
	var want strings.Builder
	oracleHeader(&want, p)
	if got := string(AppendHeader([]byte("x\n"), p)); got != "x\n"+want.String() {
		t.Errorf("program %s: AppendHeader = %q, oracle %q", p.Name, got, "x\n"+want.String())
	}
	for _, pr := range p.Procs {
		want.Reset()
		oracleProc(&want, pr)
		if got := string(AppendProc([]byte("x\n"), pr)); got != "x\n"+want.String() {
			t.Errorf("procedure %s: AppendProc = %q, oracle %q", pr.Name, got, "x\n"+want.String())
		}
	}
}

// checkText asserts the three spellings of one value agree: the oracle,
// String, and AppendText onto a buffer that already holds text.
func checkText(t *testing.T, what, want, str string, appendText func([]byte) []byte) {
	t.Helper()
	if str != want {
		t.Errorf("%s: String() = %q, oracle %q", what, str, want)
	}
	if got := string(appendText([]byte("x = "))); got != "x = "+want {
		t.Errorf("%s: AppendText = %q, oracle %q", what, got, "x = "+want)
	}
}

func checkAff(t *testing.T, a AffExpr) {
	t.Helper()
	checkText(t, fmt.Sprintf("aff %+v", a), oracleAff(a), a.String(), a.AppendText)
}

func checkSubscript(t *testing.T, s Subscript) {
	t.Helper()
	checkText(t, fmt.Sprintf("subscript %+v", s), oracleSubscript(s), s.String(), s.AppendText)
}

func checkExpr(t *testing.T, e Expr) {
	t.Helper()
	checkText(t, fmt.Sprintf("expr %T %+v", e, e), oracleExpr(e), e.String(), e.AppendText)
}

var oracleFloats = []float64{0, 1, -1, 0.1, 1e-05, 1e+21, 1e+20, 123456789, math.Copysign(0, -1),
	2.5e-324, math.MaxFloat64, 1.0 / 3, -2.5, 100, 1e6, 1e-4, math.Inf(1), math.Inf(-1), math.NaN()}

func TestAppendTextMatchesOracle(t *testing.T) {
	// Coefficients -3…3 on one and two terms with every sign of constant:
	// the "%d*%s" branches no shipped program reaches.
	var affs []AffExpr
	for c1 := -3; c1 <= 3; c1++ {
		for _, k := range []int{0, 1, -1, 7, -12} {
			affs = append(affs, AffExpr{Const: k, Terms: []AffTerm{{"N", c1}}})
			for c2 := -3; c2 <= 3; c2++ {
				affs = append(affs, AffExpr{Const: k, Terms: []AffTerm{{"N", c1}, {"P", c2}}})
			}
		}
	}
	affs = append(affs, Num(0), Num(5), Num(-3), AffExpr{},
		Sym("N").AddConst(-2), Sym("P").Scale(2).AddConst(1), Sym("N").Neg().AddConst(4))
	for _, a := range affs {
		checkAff(t, a)
		// Every offset after every variable part: i+N-2, -i-1, 2*i+2*P+1,
		// and the leading sign an offset takes there.
		for _, coef := range []int{1, -1, 0, 2, -3} {
			checkSubscript(t, Subscript{Var: "i", Coef: coef, Off: a})
		}
		checkSubscript(t, SubConst(a))
	}

	refs := []*ArrayRef{
		NewRef("s"), // zero-subscript: a scalar, or a whole array passed to a call
		NewRef("u", SubVar("i", 1), SubVar("j", 0), SubVar("k", -1)),
		NewRef("a", Subscript{Var: "i", Coef: -1, Off: Sym("N").AddConst(-2)}, SubConst(Sym("P").Scale(2).AddConst(1))),
		NewRef("b", Subscript{Var: "i", Coef: -1, Off: Num(-1)}, SubConst(Num(0))),
	}
	var exprs []Expr
	for _, r := range refs {
		exprs = append(exprs, r)
	}
	for _, v := range oracleFloats {
		exprs = append(exprs, FloatConst{v})
	}
	exprs = append(exprs, IndexRef{"i"}, ParamRef{"N"}, ScalarRef{"s"})
	for _, op := range []byte("+-*/") {
		exprs = append(exprs, &Bin{Op: op, L: refs[1], R: &Bin{Op: '*', L: FloatConst{0.1}, R: ScalarRef{"c"}}})
	}
	exprs = append(exprs,
		&Intrinsic{Name: "sqrt", Args: []Expr{refs[2]}},
		&Intrinsic{Name: "max", Args: []Expr{&Bin{Op: '-', L: refs[1], R: FloatConst{1e-05}}, &Intrinsic{Name: "abs", Args: []Expr{refs[3]}}}},
		&Intrinsic{Name: "f"},
	)
	for _, e := range exprs {
		checkExpr(t, e)
	}
	for _, op := range []string{"<", ">", "<=", ">=", "==", "/="} {
		c := Cond{L: IndexRef{"i"}, Op: op, R: &Bin{Op: '-', L: ParamRef{"N"}, R: FloatConst{2}}}
		checkText(t, "cond "+op, oracleCond(c), c.String(), c.AppendText)
	}
}

// treeFromBytes grows an expression from fuzz input: every byte picks a
// node kind or a field, so any input is a tree and small mutations are
// small changes to it.
type treeFromBytes struct {
	data []byte
	pos  int
}

func (g *treeFromBytes) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1])
}

func (g *treeFromBytes) name() string {
	return []string{"i", "j", "k", "N", "P", "lhs", "x1"}[g.next()%7]
}

func (g *treeFromBytes) aff() AffExpr {
	a := AffExpr{Const: g.next()%9 - 4}
	for n := g.next() % 3; n > 0; n-- {
		a.Terms = append(a.Terms, AffTerm{Name: g.name(), Coef: g.next()%7 - 3})
	}
	return a
}

func (g *treeFromBytes) subscript() Subscript {
	if g.next()%4 == 0 {
		return SubConst(g.aff())
	}
	return Subscript{Var: g.name(), Coef: g.next()%7 - 3, Off: g.aff()}
}

func (g *treeFromBytes) ref() *ArrayRef {
	r := &ArrayRef{Name: g.name()}
	for n := g.next() % 4; n > 0; n-- {
		r.Subs = append(r.Subs, g.subscript())
	}
	return r
}

func (g *treeFromBytes) expr(depth int) Expr {
	kind := g.next() % 7
	if depth > 6 && kind >= 5 {
		kind -= 5
	}
	switch kind {
	case 0:
		return FloatConst{oracleFloats[g.next()%len(oracleFloats)] * float64(g.next()%5+1)}
	case 1:
		return IndexRef{g.name()}
	case 2:
		return ParamRef{g.name()}
	case 3:
		return ScalarRef{g.name()}
	case 4:
		return g.ref()
	case 5:
		return &Bin{Op: "+-*/"[g.next()%4], L: g.expr(depth + 1), R: g.expr(depth + 1)}
	default:
		in := &Intrinsic{Name: []string{"sqrt", "max", "mod"}[g.next()%3]}
		for n := g.next() % 4; n > 0; n-- {
			in.Args = append(in.Args, g.expr(depth+1))
		}
		return in
	}
}

func (g *treeFromBytes) names() []string {
	var out []string
	for n := g.next() % 3; n > 0; n-- {
		out = append(out, g.name())
	}
	return out
}

func (g *treeFromBytes) cond() Cond {
	return Cond{L: g.expr(4), Op: []string{"<", ">", "<=", ">=", "==", "/="}[g.next()%6], R: g.expr(4)}
}

func (g *treeFromBytes) body(depth int) []Stmt {
	var out []Stmt
	for n := g.next() % 4; n > 0; n-- {
		kind := g.next() % 4
		if depth > 3 {
			kind %= 2
		}
		switch kind {
		case 0:
			out = append(out, &Assign{LHS: g.ref(), RHS: g.expr(2)})
		case 1:
			call := &CallStmt{Callee: g.name()}
			for k := g.next() % 3; k > 0; k-- {
				call.Args = append(call.Args, g.expr(5))
			}
			out = append(out, call)
		case 2:
			out = append(out, &IfStmt{Cond: g.cond(), Then: g.body(depth + 1), Else: g.body(depth + 1)})
		default:
			l := &Loop{Var: g.name(), Lo: g.aff(), Hi: g.aff(), Step: 1 - 2*(g.next()%2),
				Independent: g.next()%2 == 0, New: g.names(), Localize: g.names()}
			l.Body = g.body(depth + 1)
			out = append(out, l)
		}
	}
	return out
}

// program grows a whole program: every header directive form the printer
// spells and procedures with every statement kind.
func (g *treeFromBytes) program() *Program {
	p := NewProgram(g.name())
	for n := g.next() % 3; n > 0; n-- {
		p.Params[g.name()] = g.next()%40 - 8
	}
	for n := g.next() % 2; n > 0; n-- {
		p.Processors = append(p.Processors, &ProcessorsDecl{Name: g.name(), Extents: []AffExpr{g.aff(), g.aff()}})
		p.Templates = append(p.Templates, &TemplateDecl{Name: g.name(), Extents: []AffExpr{g.aff()}})
		al := &AlignDecl{Array: g.name(), Template: g.name()}
		for k := g.next()%3 + 1; k > 0; k-- {
			al.Dims = append(al.Dims, AlignDim{TDim: g.next()%4 - 1, Off: g.aff()})
		}
		p.Aligns = append(p.Aligns, al)
		d := &DistributeDecl{Target: g.name(), Onto: g.name()}
		for k := g.next()%3 + 1; k > 0; k-- {
			d.Specs = append(d.Specs, DistSpec{Kind: DistKind(g.next() % 3), Size: g.aff(), Has: g.next()%2 == 0})
		}
		p.Distributes = append(p.Distributes, d)
	}
	for n := g.next()%2 + 1; n > 0; n-- {
		pr := &Procedure{Name: g.name(), Formals: g.names()}
		for k := g.next() % 3; k > 0; k-- {
			d := &Decl{Name: g.name()}
			for r := g.next() % 3; r > 0; r-- {
				d.LB, d.UB = append(d.LB, g.aff()), append(d.UB, g.aff())
			}
			pr.Decls = append(pr.Decls, d)
		}
		pr.Body = g.body(0)
		p.Procs = append(p.Procs, pr)
	}
	return p
}

// TestProgramTextMatchesOracle: whole programs grown from 500 seeded
// byte strings — every header directive and statement form, nested —
// print as the fmt printer spelled them.
func TestProgramTextMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 1))
	data := make([]byte, 400)
	for i := 0; i < 500; i++ {
		for k := range data {
			data[k] = byte(rng.Uint32())
		}
		checkProgramText(t, (&treeFromBytes{data: data}).program())
	}
}

func FuzzAppendText(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 4, 3, 1, 0, 5, 2, 6, 1, 4, 2, 0, 0, 3})    // (u(…) + sqrt(…))
	f.Add([]byte{4, 1, 3, 1, 2, 4, 1, 3, 6, 0, 0, 0, 5, 2, 0, 1}) // ref with -i-1 / 2*P+1 shaped subscripts
	f.Add([]byte{0, 3, 0, 0, 4, 0, 0, 9, 0, 0, 14, 0})            // floats 0.1, 1e-05, -0, 2.5e-324
	f.Add([]byte{6, 1, 3, 5, 3, 0, 8, 1, 0, 5, 4, 5, 2, 6, 0, 0}) // nested Intrinsic / Bin
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &treeFromBytes{data: data}
		checkExpr(t, g.expr(0))
		checkAff(t, g.aff())
		checkSubscript(t, g.subscript())
		c := g.cond()
		checkText(t, "cond", oracleCond(c), c.String(), c.AppendText)
		checkProgramText(t, g.program())
	})
}
