package spmd_test

import (
	"fmt"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// callSwapSrc passes main's loop variables to formals named after each
// other — put's i is main's j, put's j is main's i — and a value actual
// that reads both.  Every actual is main's, so put(a, j, i, 10j + i)
// writes a(j, i) = 10j + i: each of the 16 elements gets 10·row +
// column.  A call that bound put's i before evaluating the next actual
// would read put's i for main's, write only the diagonal, and the wrong
// value there.
const callSwapSrc = `
program callswap
param N = 4
!hpf$ processors procs(2)
!hpf$ distribute a(*, BLOCK) onto procs

subroutine put(v, i, j, s)
  real v(0:N-1, 0:N-1)
  v(i, j) = s
end

subroutine main()
  real a(0:N-1, 0:N-1)
  do i = 0, N-1
    do j = 0, N-1
      call put(a, j, i, 10.0 * j + i)
    enddo
  enddo
end
`

// TestActualsReadTheCallersBinding checks callSwapSrc against values
// computed by hand, not against the serial oracle alone, which binds
// calls the way the walker does: on every engine and backend, and on the
// oracle, a(r, c) is 10r + c.
func TestActualsReadTheCallersBinding(t *testing.T) {
	const n = 4
	want := make([]float64, n*n)
	for r := range n {
		for c := range n {
			want[r*n+c] = float64(10*r + c)
		}
	}
	same := func(what string, got []float64) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: a = %v, want %v", what, got, want)
		}
	}
	for _, backend := range []string{passes.BackendMP, passes.BackendShm} {
		prog := compileOn(t, callSwapSrc, 0, backend)
		for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
			res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), engine)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s, engine %d", backend, engine)
			got, _, _, err := res.Global("a")
			if err != nil {
				t.Fatal(err)
			}
			same(what, got)
		}
	}
	serial, err := spmd.RunSerial(compileAt(t, callSwapSrc, 0).IR, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := serial.Array("a")
	if err != nil {
		t.Fatal(err)
	}
	same("serial", got)
}
