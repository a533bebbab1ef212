package ir

import (
	"fmt"
	"math"
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
		c := Cond{L: g.expr(4), Op: []string{"<", ">", "<=", ">=", "==", "/="}[g.next()%6], R: g.expr(4)}
		checkText(t, "cond", oracleCond(c), c.String(), c.AppendText)
	})
}
