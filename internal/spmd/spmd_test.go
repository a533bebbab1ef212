package spmd

import (
	"errors"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/passes"
)

func testMachine(p int) mpsim.Config {
	return mpsim.Config{
		Procs:        p,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		Latency:      10e-6,
		GapPerByte:   1e-8,
		FlopTime:     1e-8,
	}
}

// compareWithSerial compiles src, executes on the simulated machine, and
// checks every listed array against the serial reference.
func compareWithSerial(t *testing.T, src string, procs int, arrays []string) (*Program, *ExecResult) {
	t.Helper()
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Execute(testMachine(procs))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSerial(parser.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AgreesWithSerial(ref, 1e-10, arrays...); err != nil {
		t.Fatal(err)
	}
	return prog, res
}

func TestJacobiStencil1D(t *testing.T) {
	src := `
program jacobi
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.01 * i + 0.02 * j
      b(i,j) = 0.0
    enddo
  enddo
  do t = 1, 3
    do j = 1, N-2
      do i = 1, N-2
        b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        a(i,j) = b(i,j)
      enddo
    enddo
  enddo
end
`
	_, res := compareWithSerial(t, src, 4, []string{"a", "b"})
	if res.Machine.TotalMessages() == 0 {
		t.Error("expected boundary exchange messages")
	}
}

func TestJacobiStencil2DGrid(t *testing.T) {
	src := `
program jacobi2d
param N = 32
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(BLOCK, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.5 * i - 0.25 * j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
    enddo
  enddo
end
`
	compareWithSerial(t, src, 4, []string{"b"})
}

func TestNewPrivatizableLhsy(t *testing.T) {
	src := `
program lhsy
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align lhs with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real lhs(0:N-1, 0:N-1)
  real cv(0:N-1)
  real rhoq(0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      lhs(i,j) = 0.0
    enddo
  enddo
  !hpf$ independent, new(cv, rhoq)
  do i = 1, N-2
    do j = 0, N-1
      cv(j) = 0.1 * j + 0.01 * i
      rhoq(j) = 0.2 * j
    enddo
    do j = 1, N-2
      lhs(i,j) = cv(j-1) + rhoq(j) + cv(j+1)
    enddo
  enddo
end
`
	_, res := compareWithSerial(t, src, 4, []string{"lhs"})
	// §4.1's goal: no messages at all for this loop (privatizables are
	// partially replicated, lhs is owner-computed).
	if res.Machine.TotalMessages() != 0 {
		t.Errorf("NEW propagation should eliminate all communication, got %d msgs",
			res.Machine.TotalMessages())
	}
}

func TestLocalizeComputeRhsExecution(t *testing.T) {
	src := `
program rhs
param N = 24
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align rhs with tm(d0, d1, d2)
!hpf$ align rho_i with tm(d0, d1, d2)
!hpf$ align qs with tm(d0, d1, d2)
!hpf$ align us with tm(d0, d1, d2)
!hpf$ align u with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine main()
  real rhs(0:N-1, 0:N-1, 0:N-1)
  real rho_i(0:N-1, 0:N-1, 0:N-1)
  real qs(0:N-1, 0:N-1, 0:N-1)
  real us(0:N-1, 0:N-1, 0:N-1)
  real u(0:N-1, 0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        u(i,j,k) = 1.0 + 0.001 * (i + 2*j + 3*k)
      enddo
    enddo
  enddo
  !hpf$ independent, localize(rho_i, qs, us)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do i = 0, N-1
          rho_i(i,j,k) = 1.0 / u(i,j,k)
          qs(i,j,k) = u(i,j,k) * u(i,j,k)
          us(i,j,k) = u(i,j,k) + 0.5
        enddo
      enddo
    enddo
    do k = 1, N-2
      do j = 1, N-2
        do i = 1, N-2
          rhs(i,j,k) = rho_i(i,j+1,k) - rho_i(i,j-1,k) + rho_i(i,j,k+1) - rho_i(i,j,k-1) + qs(i,j+1,k) - qs(i,j-1,k) + qs(i,j,k+1) - qs(i,j,k-1) + us(i,j+1,k) - us(i,j-1,k) + us(i,j,k+1) - us(i,j,k-1)
        enddo
      enddo
    enddo
  enddo
end
`
	_, res := compareWithSerial(t, src, 4, []string{"rhs"})
	// LOCALIZE trades rho_i boundary messages for u boundary messages at
	// the definition site (the paper's acknowledged cost, §4.2), and
	// must come out ahead of compiling the same program without it.
	progOff, err := CompileSource(src, nil, DefaultOptions().WithDisabled(passes.PassLocalize))
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := progOff.Execute(testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	if on, off := res.Machine.TotalMessages(), resOff.Machine.TotalMessages(); on >= off {
		t.Errorf("LOCALIZE did not reduce messages: on=%d off=%d", on, off)
	}
	if on, off := res.Machine.TotalBytes(), resOff.Machine.TotalBytes(); on >= off {
		t.Errorf("LOCALIZE did not reduce volume: on=%d off=%d", on, off)
	}
}

// TestLoopDistDisabledKeepsMarkedPair pins what dropping the loopdist
// pass means: §5's grouping still runs inside cpselect and still records
// the pair it could not give a common CP (s2 joins s1 on a(j), leaving
// nothing in common with s3, pinned to row j+1), and with nothing to
// split their loop the pipeline refuses the program, naming the pair.
// Left in one loop, the pair computed a wrong d at the three block
// boundaries and verified clean.  Selective distribution makes 2 loops of
// the nest, not 4.
func TestLoopDistDisabledKeepsMarkedPair(t *testing.T) {
	src := `
program sel
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ align c with tm(d0)
!hpf$ align d with tm(d0)
!hpf$ align e with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  real c(0:N-1)
  real d(0:N-1)
  real e(0:N-1)
  do j = 0, N-1
    a(j) = 0.5 * j
    b(j) = 1.0 + 0.25 * j
    c(j) = 0.0
    d(j) = 0.0
    e(j) = 0.0
  enddo
  do j = 1, N-3
    a(j) = 1.5 * j
    e(j) = 2.0
    c(j+1) = a(j) + 2.0
    d(j+1) = c(j+1) * b(j+1)
  enddo
end
`
	topLoops := func(p *Program) int {
		n := 0
		for _, s := range p.IR.Main().Body {
			if _, ok := s.(*ir.Loop); ok {
				n++
			}
		}
		return n
	}
	prog, _ := compareWithSerial(t, src, 4, []string{"a", "c", "d", "e"})
	if n := topLoops(prog); n != 3 {
		t.Errorf("default: %d top-level loops, want 3 (init + the nest split in 2)", n)
	}

	marked := prog.Sel.Marked[prog.IR.Main()]
	if len(marked) != 1 || marked[0][0].LHS.Name != "c" || marked[0][1].LHS.Name != "d" {
		t.Fatalf("default: marked pairs = %v, want the one c -> d pair", marked)
	}

	_, err := CompileSource(src, nil, DefaultOptions().WithDisabled(passes.PassLoopDist))
	var pair *passes.UndistributedPairError
	if !errors.As(err, &pair) {
		t.Fatalf("loopdist disabled: compile returned %v, want an UndistributedPairError", err)
	}
	if want := (passes.UndistributedPairError{Proc: "main", Src: marked[0][0].ID, Dst: marked[0][1].ID}); *pair != want {
		t.Errorf("loopdist disabled: refused %+v, want the c -> d pair %+v", *pair, want)
	}
}

func TestWavefrontPipelineExecution(t *testing.T) {
	// Forward-elimination recurrence along the distributed dimension:
	// the compiled code must pipeline and still match serial results.
	src := `
program sweep
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align v with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real v(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      v(i,j) = 0.001 * (i + j) + 1.0
    enddo
  enddo
  do j = 1, N-1
    do i = 1, N-2
      v(i,j) = v(i,j) + 0.5 * v(i,j-1)
    enddo
  enddo
end
`
	_, res := compareWithSerial(t, src, 4, []string{"v"})
	if res.Machine.TotalMessages() == 0 {
		t.Error("wavefront must communicate across block boundaries")
	}
	// The pipeline serializes: later ranks idle waiting for earlier ones.
	if res.Machine.RankIdle[3] <= res.Machine.RankIdle[0] {
		t.Errorf("expected increasing pipeline idle: rank0 %g, rank3 %g",
			res.Machine.RankIdle[0], res.Machine.RankIdle[3])
	}
}

func TestInterproceduralExecution(t *testing.T) {
	src := `
program interp
param N = 32
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align w with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine scale_line(v, jj, kk)
  real v(0:N-1, 0:N-1, 0:N-1)
  do i = 0, N-1
    v(i, jj, kk) = v(i, jj, kk) * 2.0 + 1.0
  enddo
end

subroutine main()
  real w(0:N-1, 0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        w(i,j,k) = 0.01 * i + 0.1 * j + k
      enddo
    enddo
  enddo
  do k = 0, N-1
    do j = 0, N-1
      call scale_line(w, j, k)
    enddo
  enddo
end
`
	_, res := compareWithSerial(t, src, 4, []string{"w"})
	// Perfectly partitioned call: no communication at all.
	if res.Machine.TotalMessages() != 0 {
		t.Errorf("interprocedural CP should yield zero messages, got %d",
			res.Machine.TotalMessages())
	}
	// And the work must actually be split: each rank computes ~1/4.
	f0 := res.Machine.RankFlops[0]
	var tot float64
	for _, f := range res.Machine.RankFlops {
		tot += f
	}
	if f0 < tot/8 || f0 > tot/2 {
		t.Errorf("rank 0 flops %g of total %g: work not partitioned", f0, tot)
	}
}

func TestReplicatedScalarBroadcast(t *testing.T) {
	// A top-level replicated statement reading one distributed element:
	// every rank must fetch it from the owner.
	src := `
program bc
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = 0.5 * i
  enddo
  do i = 0, N-1
    b(i) = a(9)
  enddo
end
`
	compareWithSerial(t, src, 4, []string{"b"})
}

func TestDeterministicVirtualTime(t *testing.T) {
	src := `
program det
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 1.0 * i + j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := prog.Execute(testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		r2, err := prog.Execute(testMachine(4))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Machine.Time != r2.Machine.Time {
			t.Fatalf("nondeterministic virtual time: %g vs %g", r1.Machine.Time, r2.Machine.Time)
		}
	}
}

func TestParamOverride(t *testing.T) {
	src := `
program po
param N = 8
param P = 2
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 2.0 * i
  enddo
end
`
	prog, err := CompileSource(src, map[string]int{"N": 40, "P": 5}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Grid.Size() != 5 {
		t.Fatalf("grid size = %d", prog.Grid.Size())
	}
	res, err := prog.Execute(testMachine(5))
	if err != nil {
		t.Fatal(err)
	}
	got, lo, hi, err := res.Global("a")
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0 || hi[0] != 39 {
		t.Fatalf("bounds [%d:%d]", lo[0], hi[0])
	}
	for i, v := range got {
		if v != 2*float64(i) {
			t.Fatalf("a[%d] = %g", i, v)
		}
	}
}

func TestReportMentionsDecisions(t *testing.T) {
	src := `
program rep
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 1, N-2
    a(i) = 1.0
  enddo
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Report()
	for _, want := range []string{"program rep", "subroutine main", "ON_HOME a(i)"} {
		if !contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOfStr(s, sub) >= 0)
}

func indexOfStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
