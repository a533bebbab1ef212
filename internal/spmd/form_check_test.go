package spmd_test

import (
	"fmt"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// TestFormsArePlans: every firing a rank walks is planned from its
// closed form, and with CheckForms on also by Planner.Plan at the same
// point, the rank panicking on the first transfer whose array, ranks,
// elements or boxes differ.  Over the clock corpus and the hoist rows at
// grains 1, 2 and 8 on every backend the executions pass, and compare
// firings — among them firings induced from their level's last
// evaluation, and firings evaluated in full where a window crossed an
// edge of a pair's allowed range, on each of mp, shm and hybrid at each
// grain.  The fresh-frame program's read of v(i, c), c a formal, is
// planned by Plan (PlanStats.General), and compared with Plan like any.
func TestFormsArePlans(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name] = append(names, row.Name), row.Src
	}
	names, srcs["fresh-frame"] = append(names, "fresh-frame"), spmd.FreshFrameSrc
	var checked, general int64
	induced, crossed := map[string]int64{}, map[string]int64{}
	for _, name := range names {
		for _, backend := range []string{"mp", "shm", "hybrid"} {
			for _, grain := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					prog := compileOn(t, srcs[name], grain, backend)
					n, res := checkForms(t, prog, spmd.EngineCompiled)
					checked, general = checked+n, general+res.Plans.General
					in, cr := prog.Schedule().Inductions()
					site := fmt.Sprintf("%s/g%d", backend, grain)
					induced[site], crossed[site] = induced[site]+in, crossed[site]+cr
				})
			}
		}
	}
	if checked == 0 {
		t.Error("no firing was compared")
	}
	if general == 0 {
		t.Error("no firing was planned by Plan")
	}
	for _, backend := range []string{"mp", "shm", "hybrid"} {
		for _, grain := range []int{1, 2, 8} {
			if site := fmt.Sprintf("%s/g%d", backend, grain); induced[site] == 0 || crossed[site] == 0 {
				t.Errorf("%s: %d firings induced, %d crossed an edge; want some of each", site, induced[site], crossed[site])
			}
		}
	}
	t.Logf("%d firings compared, %d planned by Plan; induced, crossed by backend and grain: %v, %v", checked, general, induced, crossed)
}

// checkForms executes prog on the engine with every plan compared with
// Planner.Plan's and returns how many were, and the execution.
func checkForms(t testing.TB, prog *spmd.Program, engine spmd.Engine) (int64, *spmd.ExecResult) {
	t.Helper()
	n, restore := prog.Schedule().CheckForms()
	defer restore()
	res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), engine)
	if err != nil {
		t.Fatal(err)
	}
	return n(), res
}

// formRows are programs whose firings reach the closed form's rarer
// cases, and the general path, each named by what it reaches.
var formRows = []struct {
	name, src string
	general   bool // some firing is planned by Plan
}{
	// ON_HOME b(N-1-i, j) and the read a(N-1-i, j-1): coefficient -1 in a
	// term (execBox) and in a reference (the pairs' allowed ranges).
	{"reversed", `
program reversed
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(*, BLOCK) onto procs
!hpf$ distribute b(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i, j) = 1.0 + i + 0.5 * j
    enddo
  enddo
  do j = 1, N-1
    do i = 0, N-1
      b(N-1-i, j) = a(N-1-i, j-1)
    enddo
  enddo
end
`, false},
	// Both reads of a fire before the t loop; only rank 0 runs the second
	// nest, so rank 1 has no data of it in the transfer 0 -> 1.
	{"idle-rank", `
program idle
param N = 16
param T = 2
!hpf$ processors procs(4)
!hpf$ distribute a(*, BLOCK) onto procs
!hpf$ distribute b(*, BLOCK) onto procs
!hpf$ distribute c(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  real c(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i, j) = 1.0 + i + 0.5 * j
    enddo
  enddo
  do t = 1, T
    do j = 1, N-1
      do i = 0, N-1
        b(i, j) = b(i, j) + a(i, j-1)
      enddo
    enddo
    do j = 0, 3
      do i = 0, N-1
        c(i, j) = c(i, j) + a(i, j+1)
      enddo
    enddo
  enddo
end
`, false},
	// A wavefront down i on a 2×2 grid, strip-mined along j: a strip of 3
	// straddles the column blocks' edge, where no induction holds.
	{"straddle", `
program straddle
param N = 16
!hpf$ processors procs(2, 2)
!hpf$ distribute a(BLOCK, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i, j) = 1.0 + i + 0.5 * j
    enddo
  enddo
  do i = 1, N-1
    do j = 0, N-1
      a(i, j) = a(i, j) + a(i-1, j)
    enddo
  enddo
end
`, false},
	// ON_HOME y(i, c) reads the formal c: the read is not fixed.
	{"formal-term", `
program formalterm
param N = 16
param K = 4
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK, *) onto procs
!hpf$ distribute b(BLOCK, *) onto procs

subroutine col(x, y, c)
  real x(0:N-1, 0:K-1)
  real y(0:N-1, 0:K-1)
  do i = 1, N-1
    y(i, c) = x(i-1, c)
  enddo
end

subroutine main()
  real a(0:N-1, 0:K-1)
  real b(0:N-1, 0:K-1)
  do j = 0, K-1
    do i = 0, N-1
      a(i, j) = 1.0 + i + 0.5 * j
    enddo
  enddo
  do k = 0, K-1
    call col(a, b, k)
  enddo
end
`, true},
	// a(1) = b(14) + 2.0 after a loop: only rank 0 runs it, so only rank
	// 0 receives b(14), from rank 3.
	{"top-level", spmd.ProbeSrc, false},
	// y(3, c) outside every loop of the callee, c a formal: rank 0 runs
	// it at each of the K calls and receives x(4, c) from rank 1.  The
	// read is not fixed.
	{"top-level-formal", `
program toplevelformal
param N = 16
param K = 4
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK, *) onto procs
!hpf$ distribute b(BLOCK, *) onto procs

subroutine put(x, y, c)
  real x(0:N-1, 0:K-1)
  real y(0:N-1, 0:K-1)
  do i = 0, N-1
    y(i, c) = 2.0 * x(i, c)
  enddo
  y(3, c) = x(4, c) + 1.0
end

subroutine main()
  real a(0:N-1, 0:K-1)
  real b(0:N-1, 0:K-1)
  do j = 0, K-1
    do i = 0, N-1
      a(i, j) = 1.0 + i + 0.5 * j
    enddo
  enddo
  do k = 0, K-1
    call put(a, b, k)
  enddo
end
`, true},
}

// formRowSent is what some formRows send on mp: messages and bytes.
var formRowSent = map[string][2]int64{"top-level": {1, 8}, "top-level-formal": {4, 32}}

// TestFormRowsArePlans: formRows agree with the serial run, and with
// CheckForms on every plan is Plan's, at grains 1 and 3 on mp and shm;
// the rows with a firing that is not fixed plan it with Plan, and the
// rows formRowSent names send on mp what it says.
func TestFormRowsArePlans(t *testing.T) {
	for _, row := range formRows {
		ref, err := spmd.RunSerial(parser.MustParse(row.src), nil)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		for _, backend := range []string{"mp", "shm"} {
			for _, grain := range []int{1, 3} {
				prog := compileOn(t, row.src, grain, backend)
				n, res := checkForms(t, prog, spmd.EngineCompiled)
				if n == 0 || (res.Plans.General > 0) != row.general {
					t.Errorf("%s/%s/g%d: %d firings compared, %v; want some, general %v", row.name, backend, grain, n, res.Plans, row.general)
				}
				if _, err := res.AgreesWithSerial(ref, 0); err != nil {
					t.Errorf("%s/%s/g%d: %v", row.name, backend, grain, err)
				}
				m := res.Machine
				if want, ok := formRowSent[row.name]; ok && backend == "mp" && [2]int64{m.TotalMessages(), m.TotalBytes()} != want {
					t.Errorf("%s/%s/g%d: sent %d messages of %d B; want %d of %d", row.name, backend, grain, m.TotalMessages(), m.TotalBytes(), want[0], want[1])
				}
			}
		}
	}
}
