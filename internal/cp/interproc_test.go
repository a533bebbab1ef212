package cp

import (
	"testing"

	"dhpf/internal/ir"
)

// interprocSrc mirrors the paper's Figure 6.1: leaf routines performing
// pointwise work on whole-array arguments anchored by scalar index
// formals, called inside parallel loops.  The callee's uniform CP must be
// translated to the call sites so the enclosing loops partition.
const interprocSrc = `
program bt_solve
param N = 64
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align rhs with tm(d0, d1, d2)
!hpf$ align lhs with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine matvec_sub(v, jj, kk)
  real v(0:N-1, 0:N-1, 0:N-1)
  do i = 1, N-2
    v(i, jj, kk) = v(i, jj, kk) * 0.5
  enddo
end

subroutine main()
  real rhs(0:N-1, 0:N-1, 0:N-1)
  real lhs(0:N-1, 0:N-1, 0:N-1)
  do k = 1, N-2
    do j = 1, N-2
      call matvec_sub(rhs, j, k)
    enddo
  enddo
end
`

func TestInterprocEntryCP(t *testing.T) {
	ctx := mustCtx(t, interprocSrc)
	sel := mustSelect(t, ctx, DefaultOptions())

	// The leaf's statements all get ON_HOME v(i,jj,kk); the entry CP
	// vectorizes the internal i loop: ON_HOME v(1:N-2, jj, kk).
	entry := sel.Entry["matvec_sub"]
	if entry == nil || entry.Replicated() {
		t.Fatalf("matvec_sub entry CP = %v", entry)
	}
	if len(entry.Terms) != 1 || entry.Terms[0].Array != "v" {
		t.Fatalf("entry = %v", entry)
	}
	sub0 := entry.Terms[0].Subs[0]
	if !sub0.IsRange {
		t.Fatalf("entry sub0 not vectorized: %v", sub0)
	}
	if !sub0.Lo.Eq(ir.Num(1)) || !sub0.Hi.Eq(ir.Sym("N").AddConst(-2)) {
		t.Fatalf("entry range = %v:%v", sub0.Lo, sub0.Hi)
	}
}

func TestInterprocCallSiteTranslation(t *testing.T) {
	ctx := mustCtx(t, interprocSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	mainProc := ctx.Prog.Proc("main")
	var call *ir.CallStmt
	ir.Walk(mainProc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if c, ok := s.(*ir.CallStmt); ok {
			call = c
		}
		return true
	})
	got := sel.CPOf(call.ID)
	if got.Replicated() {
		t.Fatal("call CP replicated; translation failed")
	}
	if got.Terms[0].Array != "rhs" {
		t.Fatalf("call CP array = %s", got.Terms[0].Array)
	}
	// Subscripts: (range 1:N-2, j, k).
	subs := got.Terms[0].Subs
	if !subs[0].IsRange {
		t.Fatalf("dim0 = %v", subs[0])
	}
	if subs[1].Var != "j" || subs[1].Coef != 1 {
		t.Fatalf("dim1 = %v", subs[1])
	}
	if subs[2].Var != "k" || subs[2].Coef != 1 {
		t.Fatalf("dim2 = %v", subs[2])
	}
}

func TestInterprocCallPartitionsWork(t *testing.T) {
	// With the translated CP, the (j,k) call iterations must partition
	// across ranks following rhs's (·, BLOCK, BLOCK) layout: every rank
	// runs exactly the (j,k) pairs it owns.
	ctx := mustCtx(t, interprocSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	mainProc := ctx.Prog.Proc("main")
	kLoop := mainProc.Body[0].(*ir.Loop)
	jLoop := kLoop.Body[0].(*ir.Loop)
	call := jLoop.Body[0].(*ir.CallStmt)
	nest := []*ir.Loop{kLoop, jLoop}

	var total int64
	for r := 0; r < 4; r++ {
		iters := sel.CPOf(call.ID).IterSet(nest, ctx.Bind.Params, ctx.LocalOf(mainProc, r))
		total += iters.Card()
	}
	want := int64(62 * 62)
	if total != want {
		t.Fatalf("call iterations across ranks = %d, want %d (exact partition)", total, want)
	}
}

func TestInterprocDisabledReplicates(t *testing.T) {
	// The pipeline with the interproc pass dropped: SelectInterproc never
	// runs, so no call statement is assigned a CP.
	ctx := mustCtx(t, interprocSrc)
	opt := DefaultOptions()
	sel := NewSelection()
	if err := SelectBase(ctx, sel, opt, nil); err != nil {
		t.Fatal(err)
	}
	if err := PropagateNewArrays(ctx, sel, opt, nil); err != nil {
		t.Fatal(err)
	}
	if err := PropagateLocalize(ctx, sel, opt, nil); err != nil {
		t.Fatal(err)
	}
	mainProc := ctx.Prog.Proc("main")
	var call *ir.CallStmt
	ir.Walk(mainProc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if c, ok := s.(*ir.CallStmt); ok {
			call = c
		}
		return true
	})
	if !sel.CPOf(call.ID).Replicated() {
		t.Fatal("with interproc off the call should replicate")
	}
}

func TestNonUniformCalleeHasNilEntry(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine two_cps(a, b)
  real a(0:N-1)
  real b(0:N-1)
  do i = 1, N-2
    a(i) = 1.0
  enddo
  do i = 1, N-2
    b(i+1) = 2.0
  enddo
end

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  call two_cps(a, b)
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	if sel.Entry["two_cps"] != nil {
		t.Fatalf("two_cps entry should be nil, got %v", sel.Entry["two_cps"])
	}
}

func TestCalleesOrderAndRecursionDetection(t *testing.T) {
	ctx := mustCtx(t, interprocSrc)
	order, err := ctx.Callees()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "matvec_sub" || order[1].Name != "main" {
		names := []string{}
		for _, p := range order {
			names = append(names, p.Name)
		}
		t.Fatalf("order = %v", names)
	}
}

func TestFormalLayoutPropagation(t *testing.T) {
	ctx := mustCtx(t, interprocSrc)
	callee := ctx.Prog.Proc("matvec_sub")
	l := ctx.Layout(callee, "v")
	if l == nil {
		t.Fatal("formal v has no propagated layout")
	}
	if l != ctx.Bind.LayoutOf("rhs") {
		t.Fatal("formal v layout is not rhs's layout")
	}
}
