// Package ir defines the intermediate representation the dhpf compiler
// analyzes: a mini-HPF language of procedures, DO loops, assignments with
// affine array subscripts, procedure calls, and HPF directives
// (PROCESSORS, TEMPLATE, ALIGN, DISTRIBUTE, INDEPENDENT, NEW, LOCALIZE).
//
// The representation deliberately covers exactly the program forms the
// SC'98 dHPF paper's optimizations operate on: perfectly or imperfectly
// nested DO loops with unit steps (±1), subscripts affine in one loop
// index with unit coefficient, and symbolic integer parameters for grid
// extents.
package ir

import (
	"fmt"
	"sort"
)

// AffTerm is one coefficient*parameter term of an affine expression.
type AffTerm struct {
	Name string
	Coef int
}

// AffExpr is an affine integer expression over named parameters:
// Const + Σ Coef_i * Name_i.  Loop bounds and array extents are AffExprs,
// evaluated against a parameter binding (e.g. problem-size constants).
type AffExpr struct {
	Const int
	Terms []AffTerm
}

// Num returns the constant affine expression c.
func Num(c int) AffExpr { return AffExpr{Const: c} }

// Sym returns the affine expression 1*name.
func Sym(name string) AffExpr { return AffExpr{Terms: []AffTerm{{Name: name, Coef: 1}}} }

// AddAff returns a + b.
func (a AffExpr) AddAff(b AffExpr) AffExpr {
	out := AffExpr{Const: a.Const + b.Const}
	coef := map[string]int{}
	order := []string{}
	for _, t := range append(append([]AffTerm{}, a.Terms...), b.Terms...) {
		if _, ok := coef[t.Name]; !ok {
			order = append(order, t.Name)
		}
		coef[t.Name] += t.Coef
	}
	for _, n := range order {
		if coef[n] != 0 {
			out.Terms = append(out.Terms, AffTerm{Name: n, Coef: coef[n]})
		}
	}
	return out
}

// AddConst returns a + c.
func (a AffExpr) AddConst(c int) AffExpr {
	out := a.clone()
	out.Const += c
	return out
}

// Neg returns -a.
func (a AffExpr) Neg() AffExpr {
	out := AffExpr{Const: -a.Const, Terms: make([]AffTerm, len(a.Terms))}
	for i, t := range a.Terms {
		out.Terms[i] = AffTerm{Name: t.Name, Coef: -t.Coef}
	}
	return out
}

// Sub returns a - b.
func (a AffExpr) Sub(b AffExpr) AffExpr { return a.AddAff(b.Neg()) }

// Scale returns c*a.
func (a AffExpr) Scale(c int) AffExpr {
	out := AffExpr{Const: c * a.Const, Terms: make([]AffTerm, 0, len(a.Terms))}
	if c == 0 {
		return out
	}
	for _, t := range a.Terms {
		out.Terms = append(out.Terms, AffTerm{Name: t.Name, Coef: c * t.Coef})
	}
	return out
}

// IsConst reports whether the expression has no symbolic terms, returning
// the constant value when it does.
func (a AffExpr) IsConst() (int, bool) {
	if len(a.Terms) == 0 {
		return a.Const, true
	}
	return 0, false
}

// Eval evaluates the expression under the given parameter binding.
// It panics if a parameter is unbound (programming error in the compiler).
func (a AffExpr) Eval(bind map[string]int) int {
	v := a.Const
	for _, t := range a.Terms {
		val, ok := bind[t.Name]
		if !ok {
			panic(fmt.Sprintf("ir: unbound parameter %q in affine expression", t.Name))
		}
		v += t.Coef * val
	}
	return v
}

// EvalOr evaluates like Eval but substitutes missing for unbound
// parameters instead of panicking.  Analyses use it where procedure
// formals (bound only at run time) can appear in subscript offsets.
func (a AffExpr) EvalOr(bind map[string]int, missing int) int {
	v := a.Const
	for _, t := range a.Terms {
		val, ok := bind[t.Name]
		if !ok {
			val = missing
		}
		v += t.Coef * val
	}
	return v
}

// Params returns the sorted set of parameter names the expression uses.
func (a AffExpr) Params() []string {
	seen := map[string]bool{}
	for _, t := range a.Terms {
		seen[t.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (a AffExpr) clone() AffExpr {
	out := AffExpr{Const: a.Const, Terms: make([]AffTerm, len(a.Terms))}
	copy(out.Terms, a.Terms)
	return out
}

// ConstDiff returns a − b and true when the difference is a constant —
// every parameter's coefficients cancel — and false otherwise.  It equals
// a.Sub(b).IsConst() without building the difference.
func (a AffExpr) ConstDiff(b AffExpr) (int, bool) {
	for _, t := range a.Terms {
		if a.coef(t.Name) != b.coef(t.Name) {
			return 0, false
		}
	}
	for _, t := range b.Terms {
		if a.coef(t.Name) != b.coef(t.Name) {
			return 0, false
		}
	}
	return a.Const - b.Const, true
}

// coef returns the net coefficient of name (terms may repeat a name).
func (a AffExpr) coef(name string) int {
	c := 0
	for _, t := range a.Terms {
		if t.Name == name {
			c += t.Coef
		}
	}
	return c
}

// Eq reports structural equality after normalization.
func (a AffExpr) Eq(b AffExpr) bool {
	c, ok := a.ConstDiff(b)
	return ok && c == 0
}

func (a AffExpr) isZero() bool {
	if a.Const != 0 {
		return false
	}
	for _, t := range a.Terms {
		if t.Coef != 0 {
			return false
		}
	}
	return true
}
