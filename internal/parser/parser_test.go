package parser

import (
	"strings"
	"testing"

	"dhpf/internal/ir"
)

const stencilSrc = `
program stencil
param N = 64

!hpf$ processors procs(2, 2)
!hpf$ template tmpl(N, N)
!hpf$ align a with tmpl(d0, d1)
!hpf$ align b with tmpl(d0, d1)
!hpf$ distribute tmpl(BLOCK, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
    enddo
  enddo
end
`

func TestParseStencil(t *testing.T) {
	prog, err := Parse(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "stencil" {
		t.Errorf("name = %q", prog.Name)
	}
	if prog.Params["N"] != 64 {
		t.Errorf("param N = %d", prog.Params["N"])
	}
	if len(prog.Processors) != 1 || len(prog.Processors[0].Extents) != 2 {
		t.Fatalf("processors = %+v", prog.Processors)
	}
	if len(prog.Templates) != 1 || len(prog.Aligns) != 2 || len(prog.Distributes) != 1 {
		t.Fatalf("directive counts wrong: %d %d %d", len(prog.Templates), len(prog.Aligns), len(prog.Distributes))
	}
	if prog.Distributes[0].Specs[0].Kind != ir.DistBlock {
		t.Error("distribute spec not BLOCK")
	}
	m := prog.Main()
	if m == nil {
		t.Fatal("no main")
	}
	if got := m.DeclOf("a"); got == nil || got.Rank() != 2 {
		t.Fatalf("decl a = %+v", got)
	}
	asn := ir.Assignments(m.Body)
	if len(asn) != 1 {
		t.Fatalf("assignments = %d", len(asn))
	}
	a := asn[0]
	if len(a.Nest) != 2 || a.Nest[0].Var != "j" || a.Nest[1].Var != "i" {
		t.Fatalf("nest = %v", ir.NestVars(a.Nest))
	}
	refs := ir.Refs(a.Assign.RHS)
	if len(refs) != 4 {
		t.Fatalf("rhs refs = %d", len(refs))
	}
	// Check a(i-1,j) parsed with offset -1 on dim 0.
	r := refs[0]
	if r.Subs[0].Var != "i" || r.Subs[0].Coef != 1 {
		t.Fatalf("sub[0] = %+v", r.Subs[0])
	}
	if c, ok := r.Subs[0].Off.IsConst(); !ok || c != -1 {
		t.Fatalf("sub[0].Off = %v", r.Subs[0].Off)
	}
}

func TestParseDirectivesOnLoop(t *testing.T) {
	src := `
program t
param N = 8
subroutine lhsy(lhs)
  real lhs(0:N-1, 0:N-1)
  real cv(0:N-1)
  real rhoq(0:N-1)
  !hpf$ independent, new(cv, rhoq)
  do i = 1, N-2
    do j = 1, N-2
      cv(j) = 1.0
      rhoq(j) = 2.0
    enddo
    do j = 1, N-2
      lhs(i,j) = cv(j-1) + rhoq(j+1)
    enddo
  enddo
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Procs[0].Body[0].(*ir.Loop)
	if !l.Independent {
		t.Error("loop not independent")
	}
	if len(l.New) != 2 || l.New[0] != "cv" || l.New[1] != "rhoq" {
		t.Errorf("new = %v", l.New)
	}
	if len(l.Body) != 2 {
		t.Fatalf("outer body stmts = %d", len(l.Body))
	}
}

func TestParseLocalizeAndOneTripLoop(t *testing.T) {
	src := `
program t
param N = 8
subroutine compute_rhs(rhs, rho_i)
  real rhs(0:N-1, 0:N-1)
  real rho_i(0:N-1, 0:N-1)
  !hpf$ independent, localize(rho_i)
  do onetrip = 1, 1
    do j = 0, N-1
      do i = 0, N-1
        rho_i(i,j) = 1.0 / rhs(i,j)
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        rhs(i,j) = rho_i(i+1,j) - rho_i(i-1,j)
      enddo
    enddo
  enddo
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Procs[0].Body[0].(*ir.Loop)
	if len(l.Localize) != 1 || l.Localize[0] != "rho_i" {
		t.Fatalf("localize = %v", l.Localize)
	}
	if lo, _ := l.Lo.IsConst(); lo != 1 {
		t.Error("onetrip lo != 1")
	}
}

func TestParseCallsAndScalars(t *testing.T) {
	src := `
program t
param N = 8
subroutine main()
  real u(0:N-1)
  real tmp
  do i = 1, N-2
    tmp = u(i) * 2.0
    call solve(u, i, tmp)
  enddo
end
subroutine solve(v, idx, s)
  real v(0:N-1)
  real s
  v(1) = s
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Procs) != 2 {
		t.Fatalf("procs = %d", len(prog.Procs))
	}
	var call *ir.CallStmt
	ir.Walk(prog.Main().Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if c, ok := s.(*ir.CallStmt); ok {
			call = c
		}
		return true
	})
	if call == nil || call.Callee != "solve" || len(call.Args) != 3 {
		t.Fatalf("call = %+v", call)
	}
	if r, ok := call.Args[0].(*ir.ArrayRef); !ok || r.Name != "u" || len(r.Subs) != 0 {
		t.Fatalf("arg0 = %v", call.Args[0])
	}
	if _, ok := call.Args[1].(ir.IndexRef); !ok {
		t.Fatalf("arg1 = %v (%T)", call.Args[1], call.Args[1])
	}
	if _, ok := call.Args[2].(ir.ScalarRef); !ok {
		t.Fatalf("arg2 = %v (%T)", call.Args[2], call.Args[2])
	}
}

func TestParseBackwardLoopAndIntrinsics(t *testing.T) {
	src := `
program t
param N = 8
subroutine main()
  real u(0:N-1)
  do i = N-2, 1, -1
    u(i) = sqrt(abs(u(i+1))) + max(u(i), 0.5)
  enddo
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l := prog.Main().Body[0].(*ir.Loop)
	if l.Step != -1 {
		t.Fatalf("step = %d", l.Step)
	}
	a := l.Body[0].(*ir.Assign)
	if !strings.Contains(a.RHS.String(), "sqrt") || !strings.Contains(a.RHS.String(), "max") {
		t.Fatalf("rhs = %s", a.RHS)
	}
}

func TestParseSubscriptForms(t *testing.T) {
	src := `
program t
param N = 8
param M = 4
subroutine main()
  real a(0:N-1, 0:N-1)
  do i = 1, N-2
    a(N-2, i) = a(-i+N, 3) + a(i+M-1, 0)
  enddo
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Main().Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	// LHS dim0 is loop-invariant N-2.
	if a.LHS.Subs[0].Var != "" {
		t.Fatalf("lhs sub0 = %+v", a.LHS.Subs[0])
	}
	refs := ir.Refs(a.RHS)
	if refs[0].Subs[0].Coef != -1 {
		t.Fatalf("(-i+N) coef = %d", refs[0].Subs[0].Coef)
	}
	if refs[1].Subs[0].Var != "i" || !refs[1].Subs[0].Off.Eq(ir.Sym("M").AddConst(-1)) {
		t.Fatalf("(i+M-1) = %+v", refs[1].Subs[0])
	}
}

// Affine terms are summed in place in AddAff's normal form: a term keeps
// the position it first took, one that cancels is dropped, and one that
// comes back goes last.
func TestParseAffineNormalForm(t *testing.T) {
	for _, c := range []struct {
		text string
		want []ir.AffTerm
		k    int
	}{
		{"N-N", nil, 0},
		{"N+M-N+N", []ir.AffTerm{{Name: "M", Coef: 1}, {Name: "N", Coef: 1}}, 0},
		{"2*N+3-M+N-1-M", []ir.AffTerm{{Name: "N", Coef: 3}, {Name: "M", Coef: -2}}, 2},
		{"0*N+M", []ir.AffTerm{{Name: "M", Coef: 1}}, 0},
	} {
		prog, err := Parse("program t\nparam N = 8\nparam M = 4\nsubroutine main()\n  real a(0:" + c.text + ")\n  do i = 1, 2\n    a(i+" + c.text + ") = 1.0\n  enddo\nend\n")
		if err != nil {
			t.Fatal(err)
		}
		ub := prog.Main().Decls[0].UB[0]
		off := prog.Main().Body[0].(*ir.Loop).Body[0].(*ir.Assign).LHS.Subs[0].Off
		for _, got := range []ir.AffExpr{ub, off} {
			if got.Const != c.k || len(got.Terms) != len(c.want) {
				t.Errorf("%s parsed as %+v, want %+v%+d", c.text, got, c.want, c.k)
				continue
			}
			for i := range c.want {
				if got.Terms[i] != c.want[i] {
					t.Errorf("%s parsed as %+v, want %+v%+d", c.text, got, c.want, c.k)
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing program", "subroutine main()\nend\n", "program"},
		{"bad step", "program t\nsubroutine main()\ndo i = 1, 4, 2\nenddo\nend\n", "step"},
		{"two loop vars", `
program t
param N = 4
subroutine main()
  real a(0:N-1)
  do i = 1, 2
    do j = 1, 2
      a(i+j) = 1.0
    enddo
  enddo
end
`, "two loop variables"},
		{"nonunit coef", `
program t
param N = 4
subroutine main()
  real a(0:N-1)
  do i = 1, 2
    a(2*i) = 1.0
  enddo
end
`, "non-unit"},
		{"dangling directive", `
program t
subroutine main()
  !hpf$ independent
end
`, "dangling"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestRoundTripThroughPrinter(t *testing.T) {
	prog, err := Parse(stencilSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	text2 := ir.Print(prog2)
	if text != text2 {
		t.Fatalf("print not stable:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
program t
! this is a comment
param N = 4
subroutine main()
  real a(0:N-1)
  ! another comment
  do i = 0, N-1
    a(i) = 1.0   ! trailing comment would be part of line? no: comments need own line
  enddo
end
`
	// Trailing comments after statements are also supported because the
	// lexer strips any !... run to end of line.
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

// The grammar admits a bound over an enclosing loop variable; refusing
// the triangular nest is cp.NewContext's job, on the parsed bound.
func TestParseTriangularLoopBound(t *testing.T) {
	prog, err := Parse(`
program tri
param N = 16
subroutine main()
  real a(0:N-1, 0:N-1)
  do i = 0, N-1
    do j = 0, i
      a(j,i) = 1.0
    enddo
  enddo
end
`)
	if err != nil {
		t.Fatal(err)
	}
	inner := prog.Procs[0].Body[0].(*ir.Loop).Body[0].(*ir.Loop)
	if len(inner.Hi.Terms) != 1 || inner.Hi.Terms[0].Name != "i" {
		t.Fatalf("inner upper bound = %v, want i", inner.Hi)
	}
}
