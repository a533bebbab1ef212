package dhpf

import (
	"math"
	"strings"
	"testing"

	"dhpf/internal/nas"
)

const quickSrc = `
program demo
param N = 32
param P = 4
!hpf$ processors procs(P)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.01*i + 0.02*j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = 0.25*(a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
    enddo
  enddo
end
`

func TestPublicAPIRoundTrip(t *testing.T) {
	prog, err := Compile(quickSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Ranks() != 4 {
		t.Fatalf("ranks = %d", prog.Ranks())
	}
	res, err := prog.Run(SP2Machine(prog.Ranks()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSerial(quickSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := res.Array("b")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := ref.Array("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("b[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if res.Seconds() <= 0 || res.Messages() == 0 || res.Bytes() == 0 {
		t.Errorf("metrics: t=%g msgs=%d bytes=%d", res.Seconds(), res.Messages(), res.Bytes())
	}
	if len(res.RankSeconds()) != 4 {
		t.Errorf("rank times = %v", res.RankSeconds())
	}
}

func TestPublicAPIReport(t *testing.T) {
	prog, err := Compile(quickSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Report()
	for _, want := range []string{"program demo", "ON_HOME b(i,j)", "read comm"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPublicAPIParamsAndTrace(t *testing.T) {
	prog, err := Compile(quickSrc, map[string]int{"N": 24, "P": 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SP2Machine(prog.Ranks())
	cfg.Trace = true
	res, err := prog.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SpaceTime("demo", 40)
	if !strings.Contains(st, "P0") || !strings.Contains(st, "P1") {
		t.Fatalf("space-time diagram malformed:\n%s", st)
	}
	data, lo, hi, err := res.Array("a")
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0 || hi[0] != 23 || len(data) != 24*24 {
		t.Fatalf("bounds [%v:%v] len %d", lo, hi, len(data))
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a program", nil, DefaultOptions()); err == nil {
		t.Error("expected parse error")
	}
	// CYCLIC rejected by the analyses.
	cyc := `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(CYCLIC) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`
	if _, err := Compile(cyc, nil, DefaultOptions()); err == nil {
		t.Error("expected CYCLIC rejection")
	} else if !strings.Contains(err.Error(), "CYCLIC") {
		t.Errorf("error %q does not mention CYCLIC", err)
	}
}

// TestColdCompileAllocBudget: what a library caller pays in allocations
// for one cold SP compile with its report and every node program.  The
// count is deterministic to a few objects; the budget is the measured
// 18 766 (28 693 before one dependence graph per body and one iteration /
// non-local set per (statement, rank) served every pass, 52 937 before the
// node program was printed from one derivation per rank, 154 565 before
// the set layer stopped copying boxes) plus 1.2 %, so an allocation
// regression fails here and not first in the benchmark.
func TestColdCompileAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 19_000
	src := nas.SPSource(12, 1, 2, 2)
	got := testing.AllocsPerRun(3, func() {
		prog, err := Compile(src, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out := len(prog.Report())
		for r := 0; r < prog.Ranks(); r++ {
			out += len(prog.NodeProgram(r))
		}
		if out == 0 {
			t.Fatal("no output")
		}
	})
	if got > budget {
		t.Errorf("cold compile of SP(12,1,2,2): %.0f allocations, budget %d", got, budget)
	}
}
