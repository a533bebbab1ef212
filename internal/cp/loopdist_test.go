package cp

import (
	"os"
	"testing"

	"dhpf/internal/ir"
)

// ySolveSrc is the paper's Figure 5.1 pattern (subroutine y_solve of SP):
// a forward-elimination loop where every statement references lhs/rhs at
// row j and row j+1.  All loop-independent dependences can be localized
// by giving every statement the same CP, so no distribution happens.
const ySolveSrc = `
program sp_ysolve
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align lhs with tm(d0, d1)
!hpf$ align rhs with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real lhs(0:N-1, 0:N-1)
  real rhs(0:N-1, 0:N-1)
  real fac1
  do j = 1, N-3
    do i = 1, N-2
      fac1 = 1.0 / lhs(i,j)
      lhs(i,j+1) = lhs(i,j+1) - fac1 * lhs(i,j)
      rhs(i,j+1) = rhs(i,j+1) - fac1 * rhs(i,j)
    enddo
  enddo
end
`

func TestYSolveAllStatementsGrouped(t *testing.T) {
	ctx := mustCtx(t, ySolveSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	if n := len(sel.Marked[ctx.Prog.Main()]); n != 0 {
		t.Fatalf("marked pairs = %d, want 0 (all deps localizable)", n)
	}
	// All three statements must share one CP (the paper's result: the
	// whole group runs ON_HOME lhs(i,j+1)-equivalent partition).
	jLoop := ctx.Prog.Main().Body[0].(*ir.Loop)
	iLoop := jLoop.Body[0].(*ir.Loop)
	var cps []*CP
	for _, s := range iLoop.Body {
		cps = append(cps, sel.CPOf(s.(*ir.Assign).ID))
	}
	for k := 1; k < len(cps); k++ {
		if cpKey(ctx, ctx.Prog.Main(), cps[k]) != cpKey(ctx, ctx.Prog.Main(), cps[0]) {
			t.Fatalf("statement %d CP %v differs from %v", k, cps[k], cps[0])
		}
	}
	if cps[0].Replicated() {
		t.Fatal("group CP is replicated")
	}
}

// conflictSrc modifies the pattern so two statements have NO common CP
// choice (the paper's hypothetical: statement 8 referencing lhs(i,j+1,n+4)
// forcing a distribution).  Here stmt A is pinned to partition j and
// stmt B to partition j+1 on different arrays with a loop-independent
// dependence chain through a third array at mismatched offsets.
const conflictSrc = `
program conflict
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do j = 1, N-3
    a(j) = 1.5
    b(j+1) = a(j) + 2.0
  enddo
end
`

func TestConflictingChoicesMarkedAndDistributed(t *testing.T) {
	// a(j)=… has the single choice ON_HOME a(j); b(j+1)=…a(j) has choices
	// {b(j+1), a(j)} — they share a(j)'s partition, so grouping works and
	// nothing distributes.  Verify grouping picked the common partition.
	ctx := mustCtx(t, conflictSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	if n := len(sel.Marked[proc]); n != 0 {
		t.Fatalf("marked = %d", n)
	}
	loop := proc.Body[0].(*ir.Loop)
	sa := loop.Body[0].(*ir.Assign)
	sb := loop.Body[1].(*ir.Assign)
	ka := cpKey(ctx, proc, sel.CPOf(sa.ID))
	kb := cpKey(ctx, proc, sel.CPOf(sb.ID))
	if ka != kb {
		t.Fatalf("grouped statements have different partitions: %v vs %v", sel.CPOf(sa.ID), sel.CPOf(sb.ID))
	}
}

// TestTrueConflictMarksPair: testdata/conflict2.hpf really has no common
// choice; the root's TestDerivedSetsAreACache and dep's
// TestColdCompileAnalyzeCount compile it for the same reason.
func TestTrueConflictMarksPair(t *testing.T) {
	src, err := os.ReadFile("testdata/conflict2.hpf")
	if err != nil {
		t.Fatal(err)
	}
	ctx := mustCtx(t, string(src))
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	// s=a(j)… is pinned to partition a(j); c(j+1)=s+b(j+1) to partition
	// j+1.  The scalar flow dep s forces grouping, which must fail.
	if n := len(sel.Marked[proc]); n == 0 {
		t.Fatal("expected a marked pair")
	}
	// Distribution must split the loop into two.
	DistributeLoops(ctx, proc, sel)
	loops := 0
	for _, s := range proc.Body {
		if _, ok := s.(*ir.Loop); ok {
			loops++
		}
	}
	if loops != 2 {
		t.Fatalf("top-level loops after distribution = %d, want 2", loops)
	}
	// Statements preserved, in order.
	asn := ir.Assignments(proc.Body)
	if len(asn) != 2 {
		t.Fatalf("assignments after distribution = %d", len(asn))
	}
	if len(asn[0].Nest) != 1 || len(asn[1].Nest) != 1 || asn[0].Nest[0] == asn[1].Nest[0] {
		t.Fatal("statements not split into different loops")
	}
}

func TestDistributionRefusesSCCCycle(t *testing.T) {
	// A recurrence couples the two statements in both directions: they
	// form one SCC, so distribution is illegal and must be refused.
	ctx := mustCtx(t, `
program cyc
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do j = 1, N-3
    a(j) = b(j-1) + 1.0
    b(j+1) = a(j) + 2.0
  enddo
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	// Force a marked pair artificially to exercise the SCC refusal.
	loop := proc.Body[0].(*ir.Loop)
	s1 := loop.Body[0].(*ir.Assign)
	s2 := loop.Body[1].(*ir.Assign)
	sel.Marked[proc] = append(sel.Marked[proc], [2]*ir.Assign{s1, s2})
	DistributeLoops(ctx, proc, sel)
	loops := 0
	for _, s := range proc.Body {
		if _, ok := s.(*ir.Loop); ok {
			loops++
		}
	}
	if loops != 1 {
		t.Fatalf("SCC-coupled loop was split into %d loops", loops)
	}
}

func TestSelectiveNotMaximalDistribution(t *testing.T) {
	// Four statements; only the pair (s1, s4) conflicts.  Selective
	// distribution must produce exactly 2 loops, not 4 (§5: "only
	// selectively distributes these SCCs").
	ctx := mustCtx(t, `
program sel
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ align c with tm(d0)
!hpf$ align d with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  real c(0:N-1)
  real d(0:N-1)
  do j = 1, N-3
    a(j) = 1.0
    b(j) = 2.0
    c(j) = 3.0
    d(j+1) = a(j) + 4.0
  enddo
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	loop := proc.Body[0].(*ir.Loop)
	s1 := loop.Body[0].(*ir.Assign)
	s4 := loop.Body[3].(*ir.Assign)
	sel.Marked[proc] = [][2]*ir.Assign{{s1, s4}}
	DistributeLoops(ctx, proc, sel)
	loops := 0
	for _, s := range proc.Body {
		if _, ok := s.(*ir.Loop); ok {
			loops++
		}
	}
	if loops != 2 {
		t.Fatalf("selective distribution produced %d loops, want 2", loops)
	}
}
