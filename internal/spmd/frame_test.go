package spmd

// A procedure activation runs in a frame its rank reuses from the last
// activation of the procedure (exec.go, frame.reset): what it reads must
// be what a fresh frame holds.

import (
	"testing"

	"dhpf/internal/parser"
	"dhpf/internal/passes"
)

// freshFrameSrc calls acc once per column c of a and r, which are
// distributed by columns, so acc's iteration sets — and with them the
// compiled engines' guards — change from one activation to the next on a
// rank.  acc accumulates into its local w and copies it out: a w that
// kept the last call's values shows in r.  Its local z is declared
// z(0:m) by the integer formal m, which is 3 on the first four calls and
// 5 on the last four, so z is reused at the same bounds and reallocated
// at new ones — and z(m) is out of bounds in a z kept at 0:3.
const freshFrameSrc = `
program fresh
param N = 8
param K = 8
!hpf$ processors procs(4)
!hpf$ distribute a(*, BLOCK) onto procs
!hpf$ distribute r(*, BLOCK) onto procs

subroutine acc(v, q, c, m, s)
  real v(0:N-1, 0:K-1)
  real q(0:N-1, 0:K-1)
  real w(0:N-1)
  real z(0:m)
  do i = 0, N-1
    w(i) = w(i) + v(i, c)
  enddo
  do i = 0, 3
    z(i) = z(i) + s * i
  enddo
  z(m) = z(m) + s
  do i = 0, N-1
    q(i, c) = q(i, c) + w(i)
  enddo
  do i = 0, 3
    q(i, c) = q(i, c) + z(i) + z(m)
  enddo
end

subroutine main()
  real a(0:N-1, 0:K-1)
  real r(0:N-1, 0:K-1)
  do j = 0, K-1
    do i = 0, N-1
      a(i, j) = 1.0 + 0.5 * i + j
    enddo
  enddo
  do k = 0, K-1
    if (k < 4) then
      call acc(a, r, k, 3, 0.5 * k)
    else
      call acc(a, r, k, 5, 0.25 * k)
    endif
  enddo
end
`

// TestReusedFrameIsFresh runs freshFrameSrc on every engine and backend
// against the serial oracle, whose frames are all new.
func TestReusedFrameIsFresh(t *testing.T) {
	ref, err := RunSerial(parser.MustParse(freshFrameSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid} {
		prog := compileBackend(t, freshFrameSrc, DefaultOptions(), backend)
		for _, engine := range []Engine{EngineInterp, EngineCompiled, EngineCodegen} {
			res, err := prog.ExecuteEngine(testMachine(prog.Grid.Size()), engine)
			if err != nil {
				t.Fatalf("%s/%s: %v", backend, engine, err)
			}
			if _, err := res.AgreesWithSerial(ref, 1e-12, "r"); err != nil {
				t.Fatalf("%s/%s: %v", backend, engine, err)
			}
			// Global reads main's frame, not the last one acc ran in.
			if _, _, _, err := res.Global("w"); err == nil {
				t.Errorf("%s/%s: Global found acc's local w in main", backend, engine)
			}
		}
	}
}
