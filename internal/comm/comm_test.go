package comm

import (
	"testing"

	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/parser"
)

func build(t *testing.T, src string) (*cp.Context, *cp.Selection) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hpf.Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cp.NewContext(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cp.Select(ctx, cp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ctx, sel
}

const stencilSrc = `
program t
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`

func TestStencilReadEventsHoisted(t *testing.T) {
	ctx, sel := build(t, stencilSrc)
	proc := ctx.Prog.Main()
	an := Analyze(ctx, proc, sel)
	reads := 0
	for _, e := range an.Events {
		if e.Kind != ReadComm {
			continue
		}
		reads++
		if e.Depth != 0 {
			t.Errorf("stencil read not fully hoisted: %v", e)
		}
		if e.Pipelined {
			t.Errorf("stencil read marked pipelined: %v", e)
		}
	}
	if reads != 2 {
		t.Fatalf("read events = %d, want 2 (a(i,j-1), a(i,j+1))", reads)
	}
	// Owner-computes: no write-backs.
	for _, e := range an.Events {
		if e.Kind == WriteBack {
			t.Errorf("unexpected write-back: %v", e)
		}
	}
}

// ySolve4Src reproduces the §7 scenario: forward elimination writing
// rows j+1 and j+2 with non-owner CPs; the read of lhs(i,j+1,k4) is
// covered by the previous iteration's write of lhs(i,j+2,k4), while the
// read of lhs(i,j+2,k4) is not covered and stays.
const ySolve4Src = `
program ysolve
param N = 32
param n = 0
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align lhs with tm(d0, d1, *)
!hpf$ align rhs with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real lhs(0:N-1, 0:N-1, 5)
  real rhs(0:N-1, 0:N-1)
  do j = 1, N-3
    do i = 1, N-2
      rhs(i,j) = 1.0 / lhs(i,j,n+4)
      lhs(i,j+1,n+3) = lhs(i,j+1,n+3) - rhs(i,j)
      lhs(i,j+2,n+3) = lhs(i,j+2,n+3) - rhs(i,j)
    enddo
  enddo
end
`

func TestAvailabilityEliminatesAntiPipelineRead(t *testing.T) {
	ctx, sel := build(t, ySolve4Src)
	proc := ctx.Prog.Main()
	an := Analyze(ctx, proc, sel)

	var elimJ1, liveJ2 bool
	for _, e := range an.Events {
		if e.Kind != ReadComm || e.Ref.Name != "lhs" {
			continue
		}
		off, _ := e.Ref.Subs[1].Off.IsConst()
		switch off {
		case 1: // lhs(i,j+1,n+3)
			if e.Eliminated {
				elimJ1 = true
			}
		case 2: // lhs(i,j+2,n+3)
			if !e.Eliminated {
				liveJ2 = true
			}
		}
	}
	if !elimJ1 {
		t.Error("read of lhs(i,j+1,·) not eliminated by availability analysis")
	}
	if !liveJ2 {
		t.Error("read of lhs(i,j+2,·) wrongly eliminated (no covering write)")
	}
}

func TestAvailabilityOffKeepsEvents(t *testing.T) {
	ctx, sel := build(t, ySolve4Src)
	proc := ctx.Prog.Main()
	an := BuildEvents(ctx, proc, sel)
	ApplyWritebackElim(ctx, sel, an)
	for _, e := range an.Events {
		if e.Eliminated {
			t.Fatalf("event eliminated with availability off: %v", e)
		}
	}
}

func TestPipelinedEventsMarked(t *testing.T) {
	ctx, sel := build(t, ySolve4Src)
	proc := ctx.Prog.Main()
	an := Analyze(ctx, proc, sel)
	// The write-backs to lhs(i,j+1/j+2) are carried by the j loop across
	// the distributed dimension: pipelined.
	pipelined := 0
	for _, e := range an.Events {
		if e.Kind == WriteBack && e.Pipelined {
			pipelined++
			if e.CarriedBy == nil || e.CarriedBy.Var != "j" {
				t.Errorf("pipelined event carried by %v", e.CarriedBy)
			}
		}
	}
	if pipelined == 0 {
		t.Fatal("no pipelined write-backs detected in the wavefront loop")
	}
}

func TestLocalizeProducesNoCommForReciprocals(t *testing.T) {
	ctx, sel := build(t, `
program bt_rhs
param N = 32
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align rhs with tm(d0, d1, d2)
!hpf$ align rho_i with tm(d0, d1, d2)
!hpf$ align u with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine main()
  real rhs(0:N-1, 0:N-1, 0:N-1)
  real rho_i(0:N-1, 0:N-1, 0:N-1)
  real u(0:N-1, 0:N-1, 0:N-1)
  !hpf$ independent, localize(rho_i)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do i = 0, N-1
          rho_i(i,j,k) = 1.0 / u(i,j,k)
        enddo
      enddo
    enddo
    do k = 1, N-2
      do j = 1, N-2
        do i = 1, N-2
          rhs(i,j,k) = rho_i(i,j+1,k) - rho_i(i,j-1,k) + rho_i(i,j,k+1) - rho_i(i,j,k-1)
        enddo
      enddo
    enddo
  enddo
end
`)
	proc := ctx.Prog.Main()
	an := Analyze(ctx, proc, sel)
	// Reads of rho_i must generate no live communication: partial
	// replication computed the boundary values locally, so availability
	// analysis eliminates every rho_i read event.
	for _, e := range an.Events {
		if e.Kind == ReadComm && e.Ref.Name == "rho_i" && !e.Eliminated {
			t.Fatalf("rho_i read event survived: %v", e)
		}
	}
}

var _ = ir.Num
