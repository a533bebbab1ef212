package spmd

import (
	"testing"

	"dhpf/internal/parser"
)

const reductionSrc = `
program red
param N = 64
param P = 4
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real total
  real lo
  real hi
  total = 0.5
  lo = 1000.0
  hi = -1000.0
  do i = 0, N-1
    a(i) = 0.25*i - 3.0
  enddo
  do i = 0, N-1
    total = total + a(i)
  enddo
  do i = 0, N-1
    lo = min(lo, a(i))
    hi = max(hi, a(i))
  enddo
  do i = 0, N-1
    a(i) = a(i) + 0.001*total + 0.0001*lo - 0.0001*hi
  enddo
end
`

func TestReductionRecognized(t *testing.T) {
	prog, err := CompileSource(reductionSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plans := prog.Reductions["main"]
	if len(plans) != 3 {
		t.Fatalf("reduction plans = %d, want 3 (%+v)", len(plans), plans)
	}
	ops := map[byte]bool{}
	for _, p := range plans {
		ops[p.Op] = true
	}
	if !ops['+'] || !ops['<'] || !ops['>'] {
		t.Errorf("ops = %v", ops)
	}
}

func TestReductionExecutionMatchesSerial(t *testing.T) {
	compareWithSerial(t, reductionSrc, 4, []string{"a"})
}

func TestReductionWorkIsPartitioned(t *testing.T) {
	prog, err := CompileSource(reductionSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Execute(testMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	// Each rank should do roughly a quarter of the flops, not all of
	// them (which replication would cause).
	var tot float64
	for _, f := range res.Machine.RankFlops {
		tot += f
	}
	for r, f := range res.Machine.RankFlops {
		if f > tot/2 {
			t.Errorf("rank %d flops %g of %g: reduction not partitioned", r, f, tot)
		}
	}
}

func TestProductReductionFallsBackToReplication(t *testing.T) {
	src := `
program prod
param N = 16
param P = 4
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real p
  p = 1.0
  do i = 0, N-1
    a(i) = 1.0 + 0.01*i
  enddo
  do i = 0, N-1
    p = p * a(i)
  enddo
  do i = 0, N-1
    a(i) = a(i) * p
  enddo
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Reductions["main"]); n != 0 {
		t.Fatalf("product should not be planned, got %d plans", n)
	}
	// It must still be CORRECT (replicated accumulation).
	compareWithSerial(t, src, 4, []string{"a"})
}

func TestReductionNotPlannedWhenScalarEscapesInLoop(t *testing.T) {
	src := `
program esc
param N = 16
param P = 2
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real s
  s = 0.0
  do i = 0, N-1
    a(i) = 1.0*i
  enddo
  do i = 0, N-1
    s = s + a(i)
    a(i) = s
  enddo
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Reductions["main"]); n != 0 {
		t.Fatalf("escaping scalar wrongly planned: %d plans", n)
	}
}

func TestReductionVirtualTimeIncludesCollective(t *testing.T) {
	prog, err := CompileSource(reductionSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMachine(4)
	res, err := prog.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The three collectives add at least 3 log-tree latencies.
	if res.Machine.Time < 3*cfg.Latency {
		t.Errorf("virtual time %g suspiciously small", res.Machine.Time)
	}
	// And the result must be right.
	ref, err := RunSerial(parser.MustParse(reductionSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AgreesWithSerial(ref, 0, "a"); err != nil {
		t.Fatal(err)
	}
}
